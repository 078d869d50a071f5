"""Property: a run's ``# key = value`` echo, read back as a config file, gives the
same values and echoes the same lines."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from tdsim.cli import _SECTION_AXES, _echo_items, parse_config
from tdsim.dynamics import SOLVERS
from tdsim.kernels import KERNELS

positive = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_nan=False)
    .map(repr),
    st.integers(min_value=1, max_value=10**9).map(str),
)
count = st.integers(min_value=1, max_value=10**6).map(str)
optional_count = st.one_of(st.just("none"), count)
finite = st.floats(allow_infinity=False, allow_nan=False)
k0_vec = (st.tuples(finite, finite, finite)
          .filter(lambda v: 0 < math.hypot(*v) < math.inf)
          .map(lambda v: ",".join(map(repr, v))))
init = st.one_of(st.just("plus"),
                 st.tuples(st.sampled_from(["ladder", "section"]),
                           st.integers(min_value=2, max_value=10**6))
                 .map(lambda km: f"{km[0]}:{km[1]}"))
_ALIASES = {1: ["plus", "+", "1"], 2: ["minus", "-", "2"]}


@st.composite
def tracked(draw):
    indices = draw(st.lists(st.integers(min_value=1, max_value=10**4), min_size=1,
                            max_size=6, unique=True))
    tokens = [draw(st.sampled_from(_ALIASES.get(i, [str(i)]))) for i in indices]
    return draw(st.sampled_from(["none", "all", ",".join(tokens)]))


FLAGS = st.fixed_dictionaries({}, optional={
    "geometry": st.sampled_from(["line", "sphere"]),
    "n": count,
    "radius": positive,
    "spacing": positive,
    "target_count": optional_count,
    "k0_vec": k0_vec,
    "sections": optional_count,
    "section_axis": st.sampled_from(sorted(_SECTION_AXES)),
    "kernel": st.sampled_from(KERNELS),
    "init": init,
    "solver": st.sampled_from(SOLVERS),
    "dt": positive,
    "t_max": st.one_of(st.just("0"), positive),
    "stride": count,
    "tracked": tracked(),
    "gamma": positive,
})


@settings(max_examples=200, deadline=None)
@given(flags=FLAGS)
def test_the_config_echo_round_trips(tmp_path_factory, flags):
    [(_, config)] = parse_config(flags)
    echo = _echo_items(config)
    cfg = tmp_path_factory.mktemp("echo") / "echo.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in echo), encoding="utf-8")
    [(_, again)] = parse_config(file=cfg)
    assert _echo_items(again) == echo
    assert all(getattr(again, key) == getattr(config, key) for key, _ in echo)
