"""Command-line front end: scenario presets, config parsing, CSV output.

Subcommands:

* ``run``      -- build geometry, propagate, write one CSV per run,
* ``spectrum`` -- write the sorted eigenvalues of the TD-basis generator,
* ``presets``  -- list the built-in scenario presets.

Configs resolve in the order defaults < preset < config file < flags.
Every emitted CSV starts with ``# key = value`` lines echoing the fully
resolved config; stripping the ``# `` prefix yields a config file that
reproduces the run bit for bit.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .basis import TD, AmplitudeState, build_transform, ladder_state, plus_state, section_state
from .dynamics import Trajectory, propagate, step_indices
from .ensemble import Ensemble, build_line, build_sphere_lattice, partition_sections
from .kernels import build_generator
from .observables import ObservableSeries, populations, state_population, total_excitation

__all__ = [
    "RunConfig",
    "RunResult",
    "ConfigError",
    "PRESETS",
    "parse_config",
    "simulate",
    "render_csv",
    "run",
    "spectrum",
    "main",
]

LAMBDA0 = 2.0 * math.pi  # resonant wavelength in units 1/k0


class ConfigError(ValueError):
    """Invalid or conflicting configuration input."""


@dataclass(frozen=True)
class RunConfig:
    geometry: str = "line"
    n: int = 2
    radius: float = 3.0
    spacing: float = 1.0
    target_count: int | None = None
    k0_vec: tuple[float, float, float] = (1.0, 0.0, 0.0)
    sections: int | None = None
    section_axis: str = "k0"
    kernel: str = "sine"
    init: str = "plus"
    solver: str = "auto"
    dt: float = 0.01
    t_max: float = 10.0
    stride: int = 1
    tracked: str = "none"
    gamma: float = 1.0
    output: str | None = None


# ---------------------------------------------------------------------------
# presets (figure scenarios); each preset is a list of runs so that the
# multi-run scenario expands to one CSV per (kernel, init) pair
# ---------------------------------------------------------------------------

def _fig4_runs() -> list[dict]:
    base = dict(
        geometry="sphere",
        radius=4.6875 * LAMBDA0,
        spacing=0.75 * LAMBDA0,
        target_count=1000,
        kernel="sine",
        init="plus",
        tracked="none",
        dt=0.01,
        t_max=10.0,
    )
    runs = []
    for kernel in ("sine", "exp"):
        for init, sections, suffix in (
            ("plus", None, "plus"),
            ("section:2", 2, "minus"),
            ("section:3", 3, "3"),
        ):
            runs.append(dict(base, kernel=kernel, init=init, sections=sections,
                             section_axis="z", _suffix=f"{kernel}_{suffix}"))
    return runs


PRESETS: dict[str, list[dict]] = {
    "fig1a": [dict(geometry="line", n=100, spacing=1.0, kernel="sine", init="plus",
                   tracked="plus,2,3,4,5,100", dt=0.01, t_max=10.0, _suffix="")],
    "fig1b": [dict(geometry="line", n=100, spacing=1.0, kernel="sine", init="ladder:2",
                   tracked="plus,2,3,4,5,100", dt=0.01, t_max=10.0, _suffix="")],
    "fig2": [dict(geometry="sphere", radius=3.0, spacing=1.0, target_count=121,
                  kernel="sine", init="plus", tracked="plus,2,3,121",
                  dt=0.01, t_max=10.0, _suffix="")],
    "fig3": [dict(geometry="sphere", radius=3.0, spacing=1.0, target_count=121,
                  kernel="sine", init="ladder:2", tracked="plus,2,3,121",
                  dt=0.01, t_max=10.0, _suffix="")],
    "fig4": _fig4_runs(),
}

PRESET_NOTES = {
    "fig1a": "line of 100 atoms, spacing 1/k0, sine kernel, start in |+>",
    "fig1b": "line of 100 atoms, spacing 1/k0, sine kernel, start in |2> = |->",
    "fig2": "sphere radius 3/k0, 121 atoms, sine kernel, start in |+>",
    "fig3": "sphere radius 3/k0, 121 atoms, sine kernel, start in |2> = |->",
    "fig4": "sphere of 1000 atoms, spacing 0.75*lambda0, both kernels, starts "
            "|+> / 2-section |-> / 3-section |3>; one CSV per run",
}

# keys with fixed run-over-run kernel/init structure; overriding them on a
# multi-run preset would silently collapse distinct runs
_MULTIRUN_FIXED = ("kernel", "init", "sections", "section_axis")


# ---------------------------------------------------------------------------
# value parsing
# ---------------------------------------------------------------------------

def _parse_choice(name, allowed):
    def conv(text):
        if text not in allowed:
            raise ConfigError(f"{name} must be one of {sorted(allowed)}, got {text!r}")
        return text
    return conv


def _parse_number(name, cast=float, nonneg=False, optional=False):
    kind = "a number" if cast is float else "an integer"
    sign = "nonnegative" if nonneg else "positive"

    def conv(text):
        if optional and text in ("", "none", "None"):
            return None
        try:
            value = cast(text)
        except ValueError:
            raise ConfigError(f"{name} must be {kind}, got {text!r}") from None
        if not (value >= 0 if nonneg else value > 0) or value == math.inf:
            raise ConfigError(f"{name} must be {sign}, got {text!r}")
        return value
    return conv


def _parse_k0_vec(text):
    parts = [p for p in str(text).replace("(", "").replace(")", "").split(",") if p.strip()]
    if len(parts) != 3:
        raise ConfigError(f"k0_vec needs three comma-separated numbers, got {text!r}")
    try:
        vec = tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"k0_vec needs three comma-separated numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in vec) or sum(v * v for v in vec) <= 0:
        raise ConfigError(f"k0_vec must be finite with positive norm, got {text!r}")
    return vec


def _parse_init(text):
    if text == "plus":
        return text
    for prefix in ("ladder:", "section:"):
        if text.startswith(prefix):
            _parse_number("init index", int)(text[len(prefix):])
            return text
    raise ConfigError(
        f"init must be 'plus', 'ladder:m' or 'section:m', got {text!r}"
    )


_TRACKED_ALIASES = {"plus": "plus", "+": "plus", "minus": "2", "-": "2"}


def _parse_tracked(text):
    text = str(text).strip()
    if text in ("", "none", "all"):
        return text or "none"
    canonical = []
    for token in map(str.strip, text.split(",")):
        name = _TRACKED_ALIASES.get(token)
        if name is None:
            idx = _parse_number("tracked index", int)(token)
            name = "plus" if idx == 1 else str(idx)
        if name in canonical:
            raise ConfigError(f"tracked index {name} is repeated in {text!r}")
        canonical.append(name)
    return ",".join(canonical)


_CONVERTERS = {
    "geometry": _parse_choice("geometry", {"line", "sphere"}),
    "n": _parse_number("n", int),
    "radius": _parse_number("radius"),
    "spacing": _parse_number("spacing"),
    "target_count": _parse_number("target_count", int, optional=True),
    "k0_vec": _parse_k0_vec,
    "sections": _parse_number("sections", int, optional=True),
    "section_axis": _parse_choice("section_axis", {"k0", "x", "y", "z"}),
    "kernel": _parse_choice("kernel", {"sine", "exp"}),
    "init": _parse_init,
    "solver": _parse_choice("solver", {"auto", "rk4", "eigen"}),
    "dt": _parse_number("dt"),
    "t_max": _parse_number("t_max", nonneg=True),
    "stride": _parse_number("stride", int),
    "tracked": _parse_tracked,
    "gamma": _parse_number("gamma"),
    "output": str,
}


def _convert(key: str, value):
    if key not in _CONVERTERS:
        raise ConfigError(f"unknown config key {key!r}")
    if isinstance(value, str):
        return _CONVERTERS[key](value)
    return value  # presets carry typed values


def read_config_file(path) -> dict:
    """Flat ``key = value`` text, ``#`` comments, unknown keys rejected."""
    pairs = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONVERTERS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        pairs[key] = _convert(key, value)
    return pairs


def _validate_config(config: RunConfig) -> RunConfig:
    try:
        step_indices(config.dt, config.t_max, config.stride)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if config.init.startswith("section:"):
        m = int(config.init.split(":", 1)[1])
        if config.sections is None:
            raise ConfigError("init 'section:m' requires the sections key")
        if m > config.sections:
            raise ConfigError(
                f"init {config.init!r} needs at least {m} sections, "
                f"config has {config.sections}"
            )
    return config


def resolve_configs(preset: str | None = None, file_pairs: dict | None = None,
                    flag_pairs: dict | None = None) -> list[tuple[str, RunConfig]]:
    """Merge defaults, preset, file and flags into resolved (suffix, config) runs."""
    flag_pairs = dict(flag_pairs or {})
    file_pairs = dict(file_pairs or {})
    overrides = {**file_pairs, **flag_pairs}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        runs = PRESETS[preset]
        if len(runs) > 1:
            clashes = [k for k in _MULTIRUN_FIXED if k in overrides]
            if clashes:
                raise ConfigError(
                    f"preset {preset!r} fixes {', '.join(clashes)} per run; "
                    "override them on a single-run preset instead"
                )
    else:
        runs = [dict(_suffix="")]
    resolved = []
    for run_dict in runs:
        merged = {k: _convert(k, v) for k, v in run_dict.items() if k != "_suffix"}
        merged.update(overrides)
        config = _validate_config(replace(RunConfig(), **merged))
        resolved.append((run_dict.get("_suffix", ""), config))
    return resolved


def parse_config(args=None, file=None) -> list[tuple[str, RunConfig]]:
    """Resolve a mapping of config keys (plus an optional ``preset``) over a config file."""
    args = dict(args or {})
    preset = args.pop("preset", None)
    flags = {k: _convert(k, v) for k, v in args.items()}
    file_pairs = read_config_file(file) if file else {}
    return resolve_configs(preset, file_pairs, flags)


# ---------------------------------------------------------------------------
# simulation pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunResult:
    config: RunConfig  # fully resolved (solver concrete)
    ensemble: Ensemble
    trajectory: Trajectory  # fock basis
    td_trajectory: Trajectory | None
    columns: list


_SECTION_AXES = {"k0": None, "x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0),
                 "z": (0.0, 0.0, 1.0)}


def _build_ensemble(config: RunConfig) -> Ensemble:
    if config.geometry == "line":
        ens = build_line(config.n, config.spacing, config.k0_vec)
    else:
        ens = build_sphere_lattice(config.radius, config.spacing, config.k0_vec,
                                   config.target_count)
    if config.sections is not None:
        ens = partition_sections(ens, config.sections,
                                 _SECTION_AXES[config.section_axis])
    return ens


def _build_init(config: RunConfig, ensemble: Ensemble) -> AmplitudeState:
    if config.init == "plus":
        return plus_state(ensemble)
    kind, _, index = config.init.partition(":")
    m = int(index)
    if kind == "ladder":
        return ladder_state(ensemble, m)
    return section_state(ensemble, m)


def _tracked_indices(config: RunConfig, n: int) -> list[int]:
    if config.tracked == "none":
        return []
    if config.tracked == "all":
        return list(range(1, n + 1))
    indices = []
    for token in config.tracked.split(","):
        idx = 1 if token == "plus" else int(token)
        if not 1 <= idx <= n:
            raise ConfigError(f"tracked index {idx} out of range 1..{n}")
        indices.append(idx)
    return indices


def simulate(config: RunConfig) -> RunResult:
    """Build -> propagate -> observe for one resolved run config."""
    config = _validate_config(config)
    ensemble = _build_ensemble(config)
    tracked = _tracked_indices(config, ensemble.n)
    init = _build_init(config, ensemble)
    generator = build_generator(ensemble, config.kernel, config.gamma)
    traj = propagate(generator, init, config.dt, config.t_max, config.stride, config.solver)
    td_traj = None
    columns: list[tuple[str, ObservableSeries]] = []
    if tracked:
        td_traj = replace(traj, amplitudes=build_transform(ensemble).apply(traj.amplitudes),
                          basis=TD)
        pops = populations(td_traj, tracked)
        for idx in tracked:
            name = "pop_plus" if idx == 1 else f"pop_{idx}"
            columns.append((name, pops[idx]))
    if config.init.startswith("section:"):
        columns.append(("pop_init", state_population(traj, init)))
    columns.append(("total", total_excitation(traj)))
    return RunResult(config=replace(config, solver=traj.solver), ensemble=ensemble,
                     trajectory=traj, td_trajectory=td_traj, columns=columns)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return repr(float(value))


_RUN_KEYS = ["kernel", "init", "solver", "dt", "t_max", "stride", "tracked", "gamma"]


def _echo_items(config: RunConfig, keys=None) -> list[tuple[str, str]]:
    """Header items: the geometry keys, then ``keys`` (default: sections and run keys)."""
    shape = ["n"] if config.geometry == "line" else ["radius", "target_count"]
    if keys is None:
        sections = [] if config.sections is None else ["sections", "section_axis"]
        keys = sections + _RUN_KEYS
    items = []
    for key in ["geometry"] + shape + ["spacing", "k0_vec"] + keys:
        value = getattr(config, key)
        if value is None:
            continue
        if key == "k0_vec":
            text = ",".join(_fmt(v) for v in value)
        else:
            text = _fmt(value) if isinstance(value, float) else str(value)
        items.append((key, text))
    return items


def render_csv(result: RunResult) -> str:
    lines = [f"# {k} = {v}" for k, v in _echo_items(result.config)]
    names = [name for name, _ in result.columns]
    lines.append(",".join(["t"] + names))
    times = result.trajectory.times
    values = [series.values for _, series in result.columns]
    for i in range(times.size):
        row = [_fmt(times[i])] + [_fmt(v[i]) for v in values]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def run(config: RunConfig, out_path) -> Path:
    """Execute one run and write its CSV to ``out_path``; returns the path."""
    result = simulate(config)
    path = Path(out_path)
    path.write_text(render_csv(result), encoding="utf-8")
    return path


def spectrum_eigenvalues(config: RunConfig) -> np.ndarray:
    """Sorted (by real, then imaginary part) eigenvalues of the TD generator.

    S M S^dagger is unitarily similar to the Fock generator M, so the
    eigenvalues are taken from M directly.
    """
    ensemble = _build_ensemble(config)
    generator = build_generator(ensemble, config.kernel, config.gamma)
    eig = np.linalg.eigvals(generator.matrix)
    return eig[np.lexsort((eig.imag, eig.real))]


def spectrum(config: RunConfig, out_path) -> Path:
    """Write the TD-generator eigenvalue table as CSV to ``out_path``."""
    eig = spectrum_eigenvalues(config)
    lines = [f"# {k} = {v}" for k, v in _echo_items(config, ["kernel", "gamma"])]
    lines.append("index,real,imag")
    for i, value in enumerate(eig):
        lines.append(f"{i},{_fmt(value.real)},{_fmt(value.imag)}")
    path = Path(out_path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# argument parsing / entry point
# ---------------------------------------------------------------------------

def _preset_listing() -> str:
    lines = ["available presets:"]
    for name in sorted(PRESETS):
        lines.append(f"  {name:<7} {PRESET_NOTES[name]}")
    return "\n".join(lines)


def _add_shared_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--preset", help="scenario preset name (see 'presets')")
    sub.add_argument("--config", help="flat key = value config file")
    for key in _CONVERTERS:
        flag = "--" + key.replace("_", "-")
        sub.add_argument(flag, dest=key, help=f"override {key}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdsim",
        description="Collective single-photon decay of timed-Dicke states",
        epilog=_preset_listing(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subs = parser.add_subparsers(dest="command")
    run_p = subs.add_parser("run", help="propagate a scenario and write CSV")
    _add_shared_flags(run_p)
    spec_p = subs.add_parser("spectrum", help="write TD-generator eigenvalues as CSV")
    _add_shared_flags(spec_p)
    subs.add_parser("presets", help="list scenario presets")
    return parser


def _default_out(command, preset, suffix, output) -> str:
    """``output`` (``_<suffix>`` added on multi-run presets), else named from preset or command."""
    if output:
        if not suffix:
            return str(output)
        stem = str(output).removesuffix(".csv")
    elif preset:
        stem = preset if command == "run" else f"{preset}_{command}"
    else:
        stem = command
    return f"{stem}_{suffix}.csv" if suffix else f"{stem}.csv"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        print(_preset_listing(), file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    if args.command == "presets":
        print(_preset_listing())
        return 0
    try:
        flags = {key: value for key, value in vars(args).items()
                 if key in _CONVERTERS and value is not None}
        configs = parse_config({**flags, "preset": args.preset}, args.config)
        outs = [_default_out(args.command, args.preset, suffix, config.output)
                for suffix, config in configs]
        for out in map(Path, outs):  # checked before any run spends compute
            if not out.parent.is_dir():
                raise ConfigError(f"cannot write {out}: {out.parent} is not a directory")
        write = run if args.command == "run" else spectrum
        for (_, config), out in zip(configs, outs):
            print(write(config, out))
        return 0
    except (ConfigError, OSError) as err:  # bad input, unreadable config, unwritable output
        print(f"tdsim: {err}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, RuntimeError) as err:
        print(f"tdsim: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
