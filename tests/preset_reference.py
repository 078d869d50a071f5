"""Exact reference values for every preset run, from the matrix-exponential oracle.

``preset_reference.csv`` holds every CSV column of every preset run at
t = 0, 1, ..., 10, one line per run and column: fig1a, fig1b, fig2 and fig3
under both kernels, and the six fig4 runs.  Each row is ``oracle_expm``'s
exp(M t) beta(0), which shares no code with the solvers a run goes through,
reduced with the dense ``TDTransform.S`` and plain dot products, not with the
run's projection and reductions.  The runs' generators, ensembles and start
states are the library's own.

The acceptance suite compares the rows of its preset runs against this file
and never calls the oracle.  Regenerating it takes a few minutes, nearly all of
it in fig4's sixty N = 1000 exponentials, and is done by hand:

    PYTHONPATH=src python tests/preset_reference.py

Never regenerate it from a run's own output.
"""

from pathlib import Path

import numpy as np

from tdsim import build_generator, build_transform, oracle_expm
from tdsim.cli import _prepare, parse_config, resolve_configs

DATA = Path(__file__).with_name("preset_reference.csv")
TIMES = tuple(range(11))


def kernel_variants():
    """``((preset, kernel), config)`` of fig1a, fig1b, fig2 and fig3 under both kernels."""
    for preset in ("fig1a", "fig1b", "fig2", "fig3"):
        for kernel in ("sine", "exp"):
            [(_, config)] = parse_config({"preset": preset, "kernel": kernel})
            yield (preset, kernel), config


def preset_runs():
    """``(label, config)`` of every preset run; labels as in the data file."""
    for (preset, kernel), config in kernel_variants():
        yield f"{preset}_{kernel}", config
    for suffix, config in resolve_configs("fig4"):
        yield f"fig4_{suffix}", config


def reference_columns(config) -> dict[str, np.ndarray]:
    """Every column of the run's CSV but ``t``, at ``TIMES``, from the oracle."""
    config, ensemble, tracked, init = _prepare(config)
    M = build_generator(ensemble, config.kernel, config.gamma)
    rows = np.array([oracle_expm(M, init, t).amplitudes for t in TIMES])
    td = rows @ build_transform(ensemble).S[[idx - 1 for idx in tracked]].T
    columns = {("pop_plus" if idx == 1 else f"pop_{idx}"): np.abs(amp) ** 2
               for idx, amp in zip(tracked, td.T)}
    if config.init.startswith("section:"):
        columns["pop_init"] = np.abs(rows @ init.amplitudes.conj()) ** 2
    columns["total"] = np.einsum("tj,tj->t", rows.conj(), rows).real
    return columns


def read_reference(path=DATA) -> dict[str, dict[str, np.ndarray]]:
    """``run -> column -> values at TIMES``, columns in CSV order."""
    data = {}
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        run, column, *values = line.split(",")
        data.setdefault(run, {})[column] = np.array([float(v) for v in values])
    return data


def regenerate(path=DATA) -> None:
    lines = [",".join(["run", "column"] + [f"t={t}" for t in TIMES])]
    for label, config in preset_runs():
        for column, values in reference_columns(config).items():
            lines.append(",".join([label, column] + [repr(float(v)) for v in values]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
