"""Workload definitions: the CLI argument lists each workload issues.

The program under test only ever sees the generated argument lists; the
seed never reaches it.  Every call writes into ``out_dir``.
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

LAMBDA0 = 2.0 * math.pi  # resonant wavelength in units 1/k0

SWEEP_GENERATED = 56
SWEEP_N_RANGE = (50, 400)
SWEEP_PRESETS = ("fig1a", "fig1b", "fig2", "fig3")
# N is stratified over equal-width bins and the (geometry, kernel, init)
# combinations cycle over the bins, so the cost mix of a pass barely
# depends on the seed while N, spacings, axes and call order do.
SWEEP_COMBOS = [(g, k, i) for g in ("line", "sphere") for k in ("sine", "exp")
                for i in ("plus", "ladder:2", "section:2")]


def _num(value: float) -> str:
    return repr(round(float(value), 6))


def fig4_calls(out_dir: str, seed: int) -> list[list[str]]:
    """The paper's headline preset: six N = 1000 RK4 runs sharing one sphere."""
    return [["run", "--preset", "fig4", "--output", f"{out_dir}/fig4.csv"]]


def spectrum_calls(out_dir: str, seed: int) -> list[list[str]]:
    """Six fig4-geometry spectra, two of them distinct; no propagation."""
    return [["spectrum", "--preset", "fig4", "--output", f"{out_dir}/spectrum.csv"]]


def big_sphere_calls(out_dir: str, seed: int) -> list[list[str]]:
    """One N = 3000 RK4 run: the generator no longer fits in L3."""
    spacing = 0.75 * LAMBDA0
    # radius 9.05 lattice constants holds 3071 points; trimmed to 3000
    return [["run", "--geometry", "sphere", "--radius", repr(9.05 * spacing),
             "--spacing", repr(spacing), "--target-count", "3000", "--kernel", "exp",
             "--init", "plus", "--tracked", "plus,2,3", "--dt", "0.01", "--t-max", "1.0",
             "--output", f"{out_dir}/big_sphere.csv"]]


def sweep_calls(out_dir: str, seed: int) -> list[list[str]]:
    """About 60 small eigen-solver runs, as a user exploring parameters."""
    rng = random.Random(seed)
    lo, hi = SWEEP_N_RANGE
    width = (hi - lo) / SWEEP_GENERATED
    sizes = [int(lo + width * (b + rng.random())) for b in range(SWEEP_GENERATED)]
    combos = [SWEEP_COMBOS[b % len(SWEEP_COMBOS)] for b in range(SWEEP_GENERATED)]
    calls = [["run", "--preset", name] for name in SWEEP_PRESETS]
    for n, (geometry, kernel, init) in zip(sizes, combos):
        spacing = rng.uniform(0.5, 3.0)
        if geometry == "line":
            args = ["--geometry", "line", "--n", str(n), "--spacing", _num(spacing)]
        else:
            # a ball this large holds well over n lattice points; trimmed to n
            radius = spacing * ((3 * n / (4 * math.pi)) ** (1 / 3) + 1.0)
            args = ["--geometry", "sphere", "--radius", _num(radius),
                    "--spacing", _num(spacing), "--target-count", str(n)]
        args += ["--kernel", kernel, "--init", init, "--tracked", "plus,2,3",
                 "--dt", "0.01", "--t-max", "10.0"]
        if init.startswith("section:"):
            args += ["--sections", "2", "--section-axis", rng.choice(["k0", "x", "y", "z"])]
        calls.append(["run"] + args)
    rng.shuffle(calls)
    return [call + ["--output", f"{out_dir}/sweep{i:03d}.csv"] for i, call in enumerate(calls)]


CALLS = {
    "fig4": fig4_calls,
    "sweep": sweep_calls,
    "spectrum": spectrum_calls,
    "big_sphere": big_sphere_calls,
}


def setup(root: Path, workload: str, seed: int, out_dir: str) -> list[list[str]]:
    """Import tdsim from ``root/src`` and generate the workload's calls.

    This is everything a run does before its first call; ``setup_s`` times
    it in fresh interpreters.
    """
    src = Path(root) / "src"
    if not (src / "tdsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tdsim package under {src}")
    sys.path.insert(0, str(src))
    import tdsim.cli

    if Path(tdsim.__file__).resolve().parent != (src / "tdsim").resolve():
        raise SystemExit(f"perfbench: imported tdsim from {tdsim.__file__}, not {src}")
    return CALLS[workload](out_dir, seed)
