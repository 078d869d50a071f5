"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Everything is cached
in module-scoped fixtures.  On a 2-vCPU Intel Xeon VM (Python 3.11, numpy
2.4.6 with OpenBLAS) this module takes about 3.6 s, about 0.7 s of it in
the fig4 fixture, which runs the six N = 1000 runs through ``simulate_runs``
as the CLI does (two generators, Krylov propagation); the rest of the
tier-1 suite adds about 6.5 s.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tdsim import (
    AmplitudeState,
    Ensemble,
    assemble_td_direct,
    build_line,
    build_generator,
    build_sphere_lattice,
    build_transform,
    decay_time,
    eigen_solve,
    fa_transfer,
    oracle_expm,
    plus_state,
    populations,
    rk4_propagate,
    to_fock,
    to_td,
    total_excitation,
    transform_generator,
)
from tdsim.cli import parse_config, render_csv, resolve_configs, simulate, simulate_runs
from tdsim.dynamics import KRYLOV_TOL

from preset_reference import TIMES, kernel_variants, read_reference

GAMMA = 1.0

# regression snapshots: transfer maxima measured on the presets at the
# frozen geometry and atom ordering
FIG2_MAX_TO_2 = 7.030414346015669e-05
FIG2_MAX_TO_3 = 8.8254930015808e-05
FIG2_MAX_TO_121 = 3.8751367754031484e-04
FIG3_MAX_TO_PLUS = 7.030414346016265e-05
FIG3_MAX_TO_121 = 2.5605112167069574e-05


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


@pytest.fixture(scope="module")
def fig2_result():
    [(_, config)] = parse_config({"preset": "fig2"})
    return simulate(config)


@pytest.fixture(scope="module")
def fig3_result():
    [(_, config)] = parse_config({"preset": "fig3"})
    return simulate(config)


@pytest.fixture(scope="module")
def fig4_results():
    runs = resolve_configs("fig4")  # the grouped path of `tdsim run --preset fig4`
    results = simulate_runs(config for _, config in runs)
    return {suffix: result for (suffix, _), result in zip(runs, results)}


@pytest.fixture(scope="module")
def variant_results():
    """fig1a, fig1b, fig2 and fig3 under both kernels, keyed ``(preset, kernel)``."""
    return {key: simulate(config) for key, config in kernel_variants()}


def geometry(n):
    if n == 121:
        return build_sphere_lattice(3.0, 1.0, target_count=121)
    if n == 1000:
        spacing = 0.75 * 2.0 * math.pi
        return build_sphere_lattice(6.25 * spacing, spacing, target_count=1000)
    return build_line(n, spacing=1.0)


def test_criterion_01_unitarity_and_basis():
    worst = {}
    for n in (2, 10, 121, 1000):
        S = build_transform(geometry(n)).S
        gram = S @ S.conj().T
        worst[n] = np.abs(gram - np.eye(n)).max()
        assert worst[n] < 1e-12, f"N={n}: ||S S^dag - I|| = {worst[n]:.3e}"
    report(1, "unitarity/orthonormality, worst deviation "
              f"{max(worst.values()):.3e} (N={max(worst, key=worst.get)})")


def test_criterion_01_operator_matches_dense_oracle():
    # the run path applies S through TDTransform.apply, never the dense S
    rng = np.random.default_rng(11)
    worst = 0.0
    for n in (1, 2, 10, 121, 1000):
        T = build_transform(geometry(n))
        S = T.S
        block = rng.normal(size=(7, n)) + 1j * rng.normal(size=(7, n))
        x = block[0]
        dev = max(np.abs(T.apply(x) - S @ x).max(),
                  np.abs(T.apply(block) - block @ S.T).max(),
                  np.abs(to_fock(T, to_td(T, AmplitudeState(x))).amplitudes - x).max())
        worst = max(worst, dev)
        assert dev <= 1e-12, f"N={n}: operator deviates from dense S by {dev:.3e}"
    report(1, f"O(N) operator matches dense S and round-trips, worst {worst:.3e}")


def test_criterion_02_kernel_hermitian_identity():
    # the lattices and a cloud given by positions alone, whose generators are built from K
    cloud = Ensemble(positions=np.random.default_rng(7).uniform(-5.0, 5.0, size=(200, 3)),
                     k0_vec=np.array([1.0, 0.0, 0.0]))
    worst = 0.0
    for e in [geometry(n) for n in (2, 10, 121, 1000)] + [cloud]:
        M_exp = build_generator(e, "exp", GAMMA).matrix
        M_sin = build_generator(e, "sine", GAMMA).matrix
        dev = np.abs(0.5 * (M_exp + M_exp.conj().T) - M_sin).max()
        worst = max(worst, dev)
        assert dev < 1e-12, f"N={e.n}: Hermitian-part deviation {dev:.3e}"
        assert np.array_equal(np.ascontiguousarray(M_exp.real).view(np.uint64),
                              M_sin.view(np.uint64)), f"N={e.n}: Re M_exp is not M_sine"
    report(2, f"Re[i e^(iK)/K] = -sin(K)/K bit for bit, Hermitian part within {worst:.3e}")


def test_criterion_03_td_assembly_consistency():
    worst = 0.0
    for e in (build_line(100, spacing=1.0), geometry(121)):
        S = build_transform(e)
        for kernel in ("sine", "exp"):
            direct = assemble_td_direct(e, kernel, GAMMA).matrix
            conj = transform_generator(S, build_generator(e, kernel, GAMMA)).matrix
            dev = np.abs(direct - conj).max()
            worst = max(worst, dev)
            assert dev < 1e-10, f"N={e.n} {kernel}: deviation {dev:.3e}"
    report(3, f"double-sum TD assembly matches S M S^dag, worst {worst:.3e}")


def test_criterion_04_solver_cross_validation():
    e = geometry(121)
    beta0 = plus_state(e)
    worst = 0.0
    orders = []
    for kernel in ("sine", "exp"):
        M = build_generator(e, kernel, GAMMA)
        traj_rk4 = rk4_propagate(M, beta0, dt=0.01, t_max=10.0, stride=10)
        traj_eig = eigen_solve(M, beta0, traj_rk4.times)
        dev = np.abs(traj_rk4.amplitudes - traj_eig.amplitudes).max()
        worst = max(worst, dev)
        for i in range(0, traj_rk4.times.size, 2):
            expm_amp = oracle_expm(M, beta0, traj_rk4.times[i]).amplitudes
            worst = max(worst,
                        np.abs(traj_rk4.amplitudes[i] - expm_amp).max(),
                        np.abs(traj_eig.amplitudes[i] - expm_amp).max())
        assert worst < 1e-6, f"{kernel}: solver discrepancy {worst:.3e}"
        ref = oracle_expm(M, beta0, 1.0).amplitudes
        errs = [np.abs(rk4_propagate(M, beta0, dt=dt, t_max=1.0).amplitudes[-1]
                       - ref).max() for dt in (0.02, 0.01)]
        order = math.log2(errs[0] / errs[1])
        orders.append(order)
        assert 3.7 < order < 4.3, f"{kernel}: convergence order {order:.3f}"
    report(4, f"three solvers agree within {worst:.3e}; "
              f"RK4 orders {', '.join(f'{o:.2f}' for o in orders)}")


def test_criterion_05_single_atom_limit():
    [(_, config)] = parse_config({"geometry": "line", "n": "1", "tracked": "plus"})
    result = simulate(config)
    pop = dict(result.columns)["pop_plus"]
    dev = np.abs(pop.values - np.exp(-2.0 * GAMMA * pop.times)).max()
    assert dev < 1e-8
    traj = rk4_propagate(build_generator(build_line(1), "sine", GAMMA),
                         plus_state(build_line(1)), dt=0.01, t_max=10.0)
    dev_rk4 = np.abs(np.abs(traj.amplitudes[:, 0]) ** 2
                     - np.exp(-2.0 * GAMMA * traj.times)).max()
    assert dev_rk4 < 1e-8
    report(5, f"single-atom population follows e^(-2 gamma t), "
              f"max deviation {max(dev, dev_rk4):.3e}")


def test_criterion_06_total_excitation_monotone(variant_results, fig4_results):
    worst = -np.inf
    for (preset, kernel), result in variant_results.items():
        total = dict(result.columns)["total"].values
        worst = max(worst, np.diff(total).max())
        assert np.diff(total).max() <= 1e-10, f"{preset}/{kernel}"
    for suffix, result in fig4_results.items():
        total = dict(result.columns)["total"].values
        worst = max(worst, np.diff(total).max())
        assert np.diff(total).max() <= 1e-10, f"fig4 {suffix}"
    report(6, f"total excitation non-increasing on every preset and kernel "
              f"(max per-step change {worst:.3e})")


def test_criterion_07_fig2_transfer_ordering(fig2_result):
    td = fig2_result.td_trajectory
    m2 = fa_transfer(td, 1, 2).values.max()
    m3 = fa_transfer(td, 1, 3).values.max()
    m121 = fa_transfer(td, 1, 121).values.max()
    assert m121 > m3 > m2
    np.testing.assert_allclose(m2, FIG2_MAX_TO_2, rtol=1e-6)
    np.testing.assert_allclose(m3, FIG2_MAX_TO_3, rtol=1e-6)
    np.testing.assert_allclose(m121, FIG2_MAX_TO_121, rtol=1e-6)
    report(7, f"transfer maxima from |+>: to 121 {m121:.3e} > to 3 {m3:.3e} "
              f"> to 2 {m2:.3e}")


def test_criterion_08_fig3_coupling_and_plateau(fig3_result):
    td = fig3_result.td_trajectory
    to_plus = fa_transfer(td, 2, 1).values.max()
    to_121 = fa_transfer(td, 2, 121).values.max()
    assert to_plus > to_121
    np.testing.assert_allclose(to_plus, FIG3_MAX_TO_PLUS, rtol=1e-6)
    np.testing.assert_allclose(to_121, FIG3_MAX_TO_121, rtol=1e-6)
    total = dict(fig3_result.columns)["total"]
    v1, v5 = np.interp([1.0, 5.0], total.times, total.values)
    assert abs(v5 - v1) < 0.05
    report(8, f"|-> couples to |+> ({to_plus:.3e}) above |121> ({to_121:.3e}); "
              f"|total(5)-total(1)| = {abs(v5 - v1):.4f} < 0.05")


def test_criterion_09_superradiant_rate_bound(fig2_result):
    total = dict(fig2_result.columns)["total"]
    mask = total.times <= 0.05
    rate = -np.polyfit(total.times[mask], np.log(total.values[mask]), 1)[0]
    n = fig2_result.ensemble.n
    assert GAMMA < rate < n * GAMMA
    report(9, f"initial decay rate {rate:.2f} gamma lies in (1, {n}) gamma")


def test_criterion_10_lamb_shift_decay_times(fig4_results):
    def t50(suffix, column):
        return decay_time(dict(fig4_results[suffix].columns)[column], 0.5)

    lines = []
    for name in ("minus", "3"):
        ts = t50(f"sine_{name}", "pop_init")
        te = t50(f"exp_{name}", "pop_init")
        assert te < ts, f"{name}: exp {te:.4f} not faster than sine {ts:.4f}"
        speedup = (ts - te) / ts
        assert 0.05 < speedup < 0.60, f"{name}: speedup {speedup:.3f}"
        lines.append(f"{name} speedup {speedup * 100:.1f}%")
    ts = t50("sine_plus", "total")
    te = t50("exp_plus", "total")
    assert te > ts, f"plus: exp {te:.4f} not slower than sine {ts:.4f}"
    change = (te - ts) / ts
    assert change < 0.10
    lines.append(f"plus slowdown {change * 100:.2f}%")
    report(10, "; ".join(lines))


def test_criterion_11_determinism(tmp_path):
    for preset in ("fig2", "fig3"):
        [(_, config)] = parse_config({"preset": preset})
        text_a = render_csv(simulate(config))
        text_b = render_csv(simulate(config))
        assert text_a == text_b, f"{preset}: repeated runs differ"
        (tmp_path / f"{preset}.csv").write_text(text_a)
    report(11, "repeated preset runs render bit-identical CSV")


# the reproducibility contract's two routes: eigen (fig2) and Krylov (N = 200 > 160)
CONTRACT_RUNS = {"fig2": ["--preset", "fig2", "--t-max", "1"],
                 "line": ["--geometry", "line", "--n", "200", "--kernel", "exp", "--t-max", "1"]}
CONTRACT_CHILD = """import sys
from tdsim.cli import main
for name, args in {runs!r}.items():
    if main(["run", *args, "--output", f"{{sys.argv[1]}}/{{name}}.csv"]) != 0:
        sys.exit(1)
"""


def _csv_parts(path):
    lines = path.read_text().splitlines()
    body = [line for line in lines if not line.startswith("# ")]
    rows = np.array([[float(x) for x in row.split(",")] for row in body[1:]])
    return [line for line in lines if line.startswith("# ")], body[0], rows


def test_criterion_11_across_processes_and_blas_thread_counts(tmp_path):
    """Bit-identical for one BLAS thread count, within 1e-12 absolute across counts."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    child = CONTRACT_CHILD.format(runs=CONTRACT_RUNS)
    procs = []
    for name, threads in (("two_a", "2"), ("two_b", "2"), ("one", "1")):
        (tmp_path / name).mkdir()
        procs.append(subprocess.Popen(
            [sys.executable, "-c", child, str(tmp_path / name)], stdout=subprocess.DEVNULL,
            env=dict(env, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)))
    assert [proc.wait(timeout=300) for proc in procs] == [0, 0, 0]
    worst = 0.0
    for run in CONTRACT_RUNS:
        two_a, two_b, one = (tmp_path / name / f"{run}.csv" for name in ("two_a", "two_b", "one"))
        assert two_a.read_bytes() == two_b.read_bytes(), f"{run}: same thread count differs"
        (meta_2, header_2, rows_2), (meta_1, header_1, rows_1) = map(_csv_parts, (two_a, one))
        assert (meta_1, header_1) == (meta_2, header_2) and rows_1.shape == rows_2.shape
        worst = max(worst, np.abs(rows_1 - rows_2).max())
    assert worst <= 1e-12
    report(11, f"byte-identical at 2 BLAS threads; 1 vs 2 threads differ by {worst:.1e}")


# a sphere whose 36^3 kernel grid is past FFT_SPLIT_CELLS: its FFT products split over two
# threads where two CPUs are usable
SPLIT_RUN = ["--geometry", "sphere", "--radius", repr(9.05 * 0.75 * 2 * math.pi),
             "--spacing", repr(0.75 * 2 * math.pi), "--target-count", "3000", "--kernel", "exp",
             "--t-max", "1"]
SPLIT_CHILD = """import os, sys, threading
from tdsim import kernels
from tdsim.cli import main
threads = threading.active_count()
if sys.argv[2] == "pinned":
    os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
code = main(["run", *{args!r}, "--output", sys.argv[1]])
print(threads, kernels._helper is not None)
sys.exit(code)
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable CPUs and sched_setaffinity")
def test_one_cpu_and_two_threads_write_the_same_bytes(tmp_path):
    """A split FFT run and a run pinned to one CPU write byte-identical CSVs."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    child = SPLIT_CHILD.format(args=SPLIT_RUN)
    procs = {side: subprocess.Popen([sys.executable, "-c", child, str(tmp_path / f"{side}.csv"),
                                     side], stdout=subprocess.PIPE, text=True, env=env)
             for side in ("pinned", "free")}
    outs = {side: proc.communicate(timeout=300)[0].split() for side, proc in procs.items()}
    assert [proc.returncode for proc in procs.values()] == [0, 0]
    # one thread after import on both sides; the helper started only where two CPUs were
    assert outs["pinned"][-2:] == ["1", "False"] and outs["free"][-2:] == ["1", "True"]
    pinned, free = ((tmp_path / f"{side}.csv").read_bytes() for side in ("pinned", "free"))
    assert pinned == free


def test_criterion_12_presets_match_the_oracle_reference(variant_results, fig4_results):
    # each amplitude is within KRYLOV_TOL |beta(0)| of exact, so each population of a
    # normalised start is within 2 KRYLOV_TOL + KRYLOV_TOL^2
    bound = 2 * KRYLOV_TOL + KRYLOV_TOL**2
    reference = read_reference()
    results = {f"{preset}_{kernel}": result
               for (preset, kernel), result in variant_results.items()}
    results.update({f"fig4_{suffix}": result for suffix, result in fig4_results.items()})
    assert sorted(results) == sorted(reference)
    worst = 0.0
    for label, result in results.items():
        times = result.times
        rows = np.abs(times[:, None] - np.array(TIMES)).argmin(axis=0)
        assert np.abs(times[rows] - TIMES).max() < 1e-9, f"{label}: no row at t = 0..10"
        columns = dict(result.columns)
        assert list(columns) == list(reference[label]), f"{label}: columns differ"
        for name, ref in reference[label].items():
            dev = np.abs(columns[name].values[rows] - ref).max()
            worst = max(worst, dev)
            assert dev <= bound, f"{label} {name}: {dev:.3e} off the oracle"
    report(12, f"{len(results)} preset runs match the oracle at t = 0..10 within "
               f"{worst:.3e} (bound {bound:.1e})")
