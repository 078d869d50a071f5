"""Output gates: every CSV the CLI writes must pass these before a call counts.

Cheap invariants run on every output.  The reference checks rebuild the
problem through the public tdsim builders and compare against independent
propagators (:func:`expm_action` at early times, tdsim's dense
``oracle_expm`` at the last time) or against the eigenvalues of the
Fock-basis generator; they run outside the timed region.
"""

from __future__ import annotations

import math

import numpy as np

TOTAL_START_TOL = 1e-12
TOTAL_RISE_TOL = 1e-10  # acceptance criterion 6, per step
REFERENCE_TOL = 1e-6  # acceptance criterion 4
TRACE_REL_TOL = 1e-8
RE_LAMBDA_TOL = 1e-9
EIG_MATCH_TOL = 1e-8  # relative to the spectral radius

_SECTION_AXES = {"k0": None, "x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0),
                 "z": (0.0, 0.0, 1.0)}


class CheckFailed(AssertionError):
    """An output violated a gate."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def parse_csv(text: str):
    """Split a tdsim CSV into its ``# key = value`` header, column names and data."""
    header, rows, names = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            header[key] = value
        elif names is None:
            names = line.split(",")
        elif line:
            rows.append([float(v) for v in line.split(",")])
    _require(names is not None and rows, "CSV has no header row or no data")
    data = np.array(rows, dtype=float)
    _require(data.shape[1] == len(names), "CSV rows do not match the header")
    return header, names, data


def check_run_csv(text: str):
    """Invariants of a ``tdsim run`` output; returns the parsed CSV."""
    header, names, data = parse_csv(text)
    _require(names[0] == "t" and names[-1] == "total", f"unexpected columns {names}")
    _require(np.all(np.isfinite(data)), "non-finite value")
    t, pops, total = data[:, 0], data[:, 1:], data[:, -1]
    _require(t[0] == 0.0 and np.all(np.diff(t) > 0), "times must start at 0 and increase")
    # a normalised start may round to 1 + a few ulp
    _require(np.all(pops >= 0.0) and np.all(pops <= 1.0 + TOTAL_START_TOL),
             "population outside [0, 1]")
    _require(np.all(pops[:, :-1] <= total[:, None] + TOTAL_RISE_TOL),
             "a tracked population exceeds total")
    _require(abs(total[0] - 1.0) <= TOTAL_START_TOL, f"total starts at {total[0]!r}")
    rise = float(np.max(np.diff(total), initial=0.0))
    _require(rise <= TOTAL_RISE_TOL, f"total rises by {rise:.3e} in one step")
    return header, names, data


def check_spectrum_csv(text: str):
    """Invariants of a ``tdsim spectrum`` output; returns header and eigenvalues."""
    header, names, data = parse_csv(text)
    _require(names == ["index", "real", "imag"], f"unexpected columns {names}")
    _require(np.all(np.isfinite(data)), "non-finite eigenvalue")
    lam = data[:, 1] + 1j * data[:, 2]
    n = lam.size
    _require(np.array_equal(data[:, 0], np.arange(n)), "index column is not 0..N-1")
    _require(np.all(np.diff(lam.real) >= 0), "eigenvalues not sorted by real part")
    expected = -n * float(header["gamma"])
    _require(abs(lam.sum().real - expected) <= TRACE_REL_TOL * abs(expected)
             and abs(lam.sum().imag) <= TRACE_REL_TOL * abs(expected),
             f"eigenvalue sum {lam.sum()!r} != -N*gamma = {expected!r}")
    _require(np.max(lam.real) <= RE_LAMBDA_TOL, f"Re(lambda) = {np.max(lam.real)!r} > 0")
    return header, lam


# ---------------------------------------------------------------------------
# reference rebuild through the public builders
# ---------------------------------------------------------------------------

def _floats(text):
    return tuple(float(v) for v in text.split(","))


def build_ensemble(header: dict):
    """The ensemble a CSV header describes, built through tdsim's public builders."""
    import tdsim

    k0_vec = _floats(header["k0_vec"])
    if header["geometry"] == "line":
        ens = tdsim.build_line(int(header["n"]), float(header["spacing"]), k0_vec)
    else:
        target = header.get("target_count")
        ens = tdsim.build_sphere_lattice(float(header["radius"]), float(header["spacing"]),
                                         k0_vec, int(target) if target else None)
    if "sections" in header:
        ens = tdsim.partition_sections(ens, int(header["sections"]),
                                       _SECTION_AXES[header["section_axis"]])
    return ens


def generator_matrix(header: dict, ens) -> np.ndarray:
    import tdsim

    gen = tdsim.build_generator(ens, header["kernel"], float(header["gamma"]))
    return np.asarray(gen.matrix, dtype=complex)


def initial_state(header: dict, ens) -> np.ndarray:
    import tdsim

    init = header["init"]
    if init == "plus":
        state = tdsim.plus_state(ens)
    elif init.startswith("ladder:"):
        state = tdsim.ladder_state(ens, int(init.split(":")[1]))
    else:
        state = tdsim.section_state(ens, int(init.split(":")[1]))
    return np.asarray(state.amplitudes, dtype=complex)


def expm_action(matrix: np.ndarray, v: np.ndarray, times) -> list[np.ndarray]:
    """exp(M t) v at each increasing time, by sub-stepped truncated Taylor series.

    The dense ``oracle_expm`` forms exp(M t) with O(N^3) products, which
    costs seconds at N = 1000 and close to a minute at N = 3000.  This
    applies the same scaling-and-series idea to the vector: each interval
    is split into steps with ||M h||_1 <= 1 and the series is summed until
    its terms fall below double precision.  It shares no code with the
    RK4 or eigen propagators.
    """
    norm = float(np.linalg.norm(matrix, 1))
    out, state, t_prev = [], np.array(v, dtype=complex), 0.0
    for t in times:
        span = t - t_prev
        steps = max(1, math.ceil(norm * span))
        h = span / steps
        for _ in range(steps):
            term, acc = state, state.copy()
            for k in range(1, 60):
                term = (matrix @ term) * (h / k)
                acc += term
                if np.linalg.norm(term) <= 1e-17 * np.linalg.norm(acc):
                    break
            state = acc
        out.append(state.copy())
        t_prev = t
    return out


def td_amplitudes(ens, beta: np.ndarray, indices) -> np.ndarray:
    """TD-basis amplitudes <m|beta> for 1-based indices (1 = |+>, m = ladder |m>).

    Written from the basis definition, not through tdsim's transform.
    """
    n = beta.size
    x = np.exp(-1j * (ens.positions @ ens.k0_vec)) * beta
    prefix = np.concatenate([[0.0], np.cumsum(x)])
    out = []
    for m in indices:
        if m == 1:
            out.append(prefix[n] / math.sqrt(n))
        else:
            out.append((prefix[m - 1] - (m - 1) * x[m - 1]) / math.sqrt(m * (m - 1)))
    return np.array(out)


def reference_columns(header, names, ens, beta0, beta) -> dict:
    """Column values a run CSV must hold for amplitudes ``beta``."""
    cols = {"total": float(np.sum(np.abs(beta) ** 2))}
    if "pop_init" in names:
        cols["pop_init"] = float(abs(np.vdot(beta0, beta)) ** 2)
    tracked = [name for name in names if name.startswith("pop_") and name != "pop_init"]
    idx = [1 if name == "pop_plus" else int(name[4:]) for name in tracked]
    for name, amp in zip(tracked, td_amplitudes(ens, beta, idx)):
        cols[name] = float(abs(amp) ** 2)
    return cols


def check_run_reference(parsed_runs, rng, horizon: float, n_times: int = 3):
    """Compare run CSVs against :func:`expm_action` at a few seed-chosen times.

    ``parsed_runs`` are (header, names, data) triples; runs that share a
    generator (they may differ in init and sections) are propagated
    together as one block.
    """
    groups: dict = {}
    for run in parsed_runs:
        key = tuple(run[0].get(k) for k in ("geometry", "n", "radius", "target_count",
                                            "spacing", "k0_vec", "kernel", "gamma"))
        groups.setdefault(key, []).append(run)
    for runs in groups.values():
        header, _, data = runs[0]
        t = data[:, 0]
        for _, _, other in runs:
            _require(np.array_equal(other[:, 0], t), "runs sharing a generator disagree on times")
        candidates = np.nonzero((t > 0) & (t <= horizon + 1e-12))[0]
        rows = sorted(rng.sample(list(candidates), min(n_times, candidates.size)))
        ensembles = [build_ensemble(h) for h, _, _ in runs]
        matrix = generator_matrix(header, ensembles[0])
        beta0 = np.column_stack([initial_state(h, e) for (h, _, _), e in zip(runs, ensembles)])
        states = expm_action(matrix, beta0, [t[r] for r in rows])
        for row, block in zip(rows, states):
            for j, (h, names, data) in enumerate(runs):
                _compare_row(h, names, data[row], ensembles[j], beta0[:, j], block[:, j],
                             "reference")


def check_final_reference(parsed_runs, rng):
    """Compare the last row of one seed-chosen run against tdsim's ``oracle_expm``.

    :func:`check_run_reference` stops at an early horizon because its cost
    grows with time; this catches errors that build up later in a
    trajectory, at the cost of one dense exponential.
    """
    import tdsim

    header, names, data = rng.choice(parsed_runs)
    ens = build_ensemble(header)
    gen = tdsim.build_generator(ens, header["kernel"], float(header["gamma"]))
    beta0 = initial_state(header, ens)
    beta = np.asarray(tdsim.oracle_expm(gen, beta0, float(data[-1, 0])).amplitudes)
    _compare_row(header, names, data[-1], ens, beta0, beta, "oracle_expm")


def _compare_row(header, names, row, ens, beta0, beta, source):
    for name, value in reference_columns(header, names, ens, beta0, beta).items():
        got = float(row[names.index(name)])
        _require(abs(got - value) <= REFERENCE_TOL,
                 f"{name} at t={row[0]:g}: {got!r} vs {source} {value!r}")


def check_spectrum_reference(header, lam: np.ndarray):
    """The TD-generator spectrum must equal the Fock-generator spectrum."""
    matrix = generator_matrix(header, build_ensemble(header))
    hermitian = np.array_equal(matrix, matrix.conj().T)  # the sine kernel
    ref = np.linalg.eigvalsh(matrix) if hermitian else np.linalg.eigvals(matrix)
    _require(ref.size == lam.size, f"{lam.size} eigenvalues, generator has {ref.size}")
    scale = max(1.0, float(np.max(np.abs(ref))))
    dist = np.abs(lam[:, None] - ref[None, :])
    # every eigenvalue of one set has a partner in the other
    gap = max(float(dist.min(axis=0).max()), float(dist.min(axis=1).max()))
    _require(gap <= EIG_MATCH_TOL * scale,
             f"spectrum differs from Fock-generator eigenvalues by {gap:.3e}")
