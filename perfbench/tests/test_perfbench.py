"""Tests of the benchmark itself: span arithmetic, seeded inputs and the output gates."""

import random
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import tdsim  # noqa: E402
import tdsim.cli  # noqa: E402
from perfbench import checks  # noqa: E402
from perfbench.tracing import SPAN_POINTS, Span, Tracer, self_times  # noqa: E402
from perfbench.workloads import CALLS, sweep_calls  # noqa: E402

SMALL_RUN = ["run", "--geometry", "line", "--n", "12", "--spacing", "0.8", "--kernel", "exp",
             "--init", "section:2", "--sections", "2", "--tracked", "plus,2,3",
             "--t-max", "1.0"]


def _run(tmp_path, argv, capsys):
    out = tmp_path / "out.csv"
    assert tdsim.cli.main(argv + ["--output", str(out)]) == 0
    capsys.readouterr()
    return out.read_text()


# -- spans -------------------------------------------------------------------

def test_self_time_subtracts_child_coverage():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 3.0),
        Span(2, 0, "b", 2.0, 5.0),  # overlaps a: the union 1..5 counts once
        Span(3, 0, "c", 8.0, 12.0),  # clipped at the parent's end
        Span(4, 1, "d", 1.5, 2.5),  # grandchild: only a's self time shrinks
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_tracer_wraps_every_binding_and_restores(tmp_path, capsys):
    original = tdsim.dynamics.eigen_decompose
    tracer = Tracer()
    tracer.install()
    try:
        assert tdsim.dynamics.eigen_decompose is not original
        assert tdsim.eigen_decompose is tdsim.dynamics.eigen_decompose
        _run(tmp_path, SMALL_RUN, capsys)
    finally:
        tracer.uninstall()
    assert tdsim.dynamics.eigen_decompose is original
    names = [s.name for s in tracer.spans]
    # eigen_solve reaches eigen_decompose through its own module globals
    for point in ("cli.main", "cli.simulate", "ensemble.build_line",
                  "ensemble.partition_sections", "basis.section_state",
                  "dynamics.eigen_solve", "dynamics.eigen_decompose",
                  "observables.populations", "cli.render_csv"):
        assert point in names
    by_id = {s.id: s for s in tracer.spans}
    decompose = next(s for s in tracer.spans if s.name == "dynamics.eigen_decompose")
    assert by_id[decompose.parent].name == "dynamics.eigen_solve"
    metrics = tracer.metrics()
    assert metrics["dynamics.eigen_decompose.calls"] == (1, "count")
    assert metrics["dynamics.eigen_decompose.n3_per_s"][0] > 0
    assert metrics["kernels.generator_mb"] == (12 * 12 * 16 / 1e6, "MB")
    assert metrics["dynamics.rk4_propagate.calls"] == (0, "count")


def test_missing_span_point_is_reported_not_zeroed(monkeypatch):
    monkeypatch.delattr(tdsim.cli, "spectrum_eigenvalues")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["cli.spectrum_eigenvalues"]
    metrics = tracer.metrics()
    assert "cli.spectrum_eigenvalues.calls" not in metrics
    assert "cli.spectrum_eigenvalues.distinct_frac" not in metrics
    assert len([m for m in metrics if m.endswith(".calls")]) == len(SPAN_POINTS) - 1


# -- inputs ------------------------------------------------------------------

def test_sweep_inputs_depend_only_on_the_seed():
    assert sweep_calls("d", 7) == sweep_calls("d", 7)
    assert sweep_calls("d", 7) != sweep_calls("d", 8)
    calls = sweep_calls("d", 7)
    assert len(calls) == 60
    assert len({c[-1] for c in calls}) == 60  # one output file per call
    for workload, make in CALLS.items():
        assert make("d", 3) == make("d", 3), workload


def test_sweep_spheres_hold_enough_lattice_points():
    for seed in range(20):
        for call in sweep_calls("d", seed):
            if "--target-count" in call:
                opt = dict(zip(call[1::2], call[2::2]))
                r = float(opt["--radius"]) / float(opt["--spacing"])
                reach = int(r) + 1
                g = np.arange(-reach, reach + 1)
                i, j, k = np.meshgrid(g, g, g, indexing="ij")
                assert np.sum(i**2 + j**2 + k**2 <= r * r) >= 1.5 * int(opt["--target-count"])


# -- gates -------------------------------------------------------------------

def _doctor(text, column, row, value):
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    cells = lines[start + row].split(",")
    cells[column] = repr(float(value))
    lines[start + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_run_gate_accepts_a_real_run_and_its_reference(tmp_path, capsys):
    text = _run(tmp_path, SMALL_RUN, capsys)
    parsed = checks.check_run_csv(text)
    checks.check_run_reference([parsed], random.Random(0), horizon=1.0, n_times=5)
    checks.check_final_reference([parsed], random.Random(0))


def test_run_gate_rejects_doctored_csvs(tmp_path, capsys):
    text = _run(tmp_path, SMALL_RUN, capsys)
    header, names, data = checks.parse_csv(text)
    total = names.index("total")
    rising = _doctor(text, total, 50, data[49, total] + 1e-6)
    with pytest.raises(checks.CheckFailed, match="rises"):
        checks.check_run_csv(rising)
    with pytest.raises(checks.CheckFailed, match=r"outside \[0, 1\]"):
        checks.check_run_csv(_doctor(text, 1, 10, 1.5))
    with pytest.raises(checks.CheckFailed, match="exceeds total"):
        checks.check_run_csv(_doctor(text, 1, 10, data[10, total] + 1e-6))
    # passes every invariant but disagrees with the reference propagation
    init = names.index("pop_init")
    shifted = _doctor(text, init, 40, data[40, init] * 0.99)
    rows = checks.check_run_csv(shifted)
    with pytest.raises(checks.CheckFailed, match="reference"):
        checks.check_run_reference([rows], random.Random(0), horizon=1.0, n_times=100)
    late = checks.check_run_csv(_doctor(text, init, len(data) - 1, data[-1, init] * 0.99))
    with pytest.raises(checks.CheckFailed, match="oracle_expm"):
        checks.check_final_reference([late], random.Random(0))


def test_spectrum_gate_rejects_a_wrong_trace(tmp_path, capsys):
    argv = ["spectrum", "--geometry", "sphere", "--radius", "2.5", "--spacing", "1.0",
            "--target-count", "30", "--kernel", "exp"]
    text = _run(tmp_path, argv, capsys)
    header, lam = checks.check_spectrum_csv(text)
    checks.check_spectrum_reference(header, lam)
    lines = text.splitlines()
    idx = next(i for i, line in enumerate(lines) if line.startswith("0,"))
    i, re, im = lines[idx].split(",")
    lines[idx] = f"{i},{float(re) - 1e-3!r},{im}"
    with pytest.raises(checks.CheckFailed, match="eigenvalue sum"):
        checks.check_spectrum_csv("\n".join(lines) + "\n")


def test_expm_action_matches_the_dense_oracle():
    ens = tdsim.build_sphere_lattice(2.5, 0.9, target_count=25)
    gen = tdsim.build_generator(ens, "exp")
    beta0 = tdsim.plus_state(ens)
    got = checks.expm_action(gen.matrix, beta0.amplitudes, [0.3, 1.7])
    for t, state in zip([0.3, 1.7], got):
        ref = tdsim.oracle_expm(gen, beta0, t).amplitudes
        assert np.max(np.abs(state - ref)) < 1e-12
