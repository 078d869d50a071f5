import tracemalloc

import numpy as np
import pytest

from tdsim import (
    build_line,
    build_generator,
    build_sphere_lattice,
    build_transform,
    eigen_decompose,
    eigen_solve,
    oracle_expm,
    plus_state,
    propagate,
    rk4_propagate,
    to_td,
    transform_generator,
)
import tdsim.dynamics as dynamics
from tdsim.basis import AmplitudeState
from tdsim.dynamics import (
    KRYLOV_MAX_DIM,
    DegenerateSpectrumError,
    Trajectory,
    step_indices,
)


def random_stable_matrix(rng, n):
    """Random generator with negative-semidefinite Hermitian part."""
    R = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return -(R @ R.conj().T) / n + 1j * (H + H.conj().T) / 2.0


# each propagation method on a common signature, over t in [0, 1]
ROUTES = (
    lambda M, beta0: rk4_propagate(M, beta0, dt=0.5, t_max=1.0),
    lambda M, beta0: eigen_solve(M, beta0, [0.0, 1.0]),
    lambda M, beta0: propagate(M, beta0, 1.0, 1.0, 1, "krylov"),
)


class TestRk4:
    def test_scalar_decay(self):
        traj = rk4_propagate(np.array([[-1.0]]), np.array([1.0]), dt=0.01, t_max=1.0)
        assert abs(traj.amplitudes[-1, 0] - np.exp(-1.0)) < 1e-9

    def test_zero_generator(self):
        beta0 = np.array([0.3 + 0.1j, 0.2, 0.5j])
        traj = rk4_propagate(np.zeros((3, 3)), beta0, dt=0.1, t_max=2.0)
        assert np.abs(traj.amplitudes - beta0[None, :]).max() == 0.0

    def test_matches_eigen_two_atoms(self):
        e = build_line(2, spacing=np.pi / 2)
        M = build_generator(e, "sine")
        beta0 = plus_state(e)
        traj_rk4 = rk4_propagate(M, beta0, dt=0.01, t_max=5.0)
        traj_eig = eigen_solve(M, beta0, traj_rk4.times)
        assert np.abs(traj_rk4.amplitudes[-1] - traj_eig.amplitudes[-1]).max() < 1e-8

    def test_snapshot_grid(self):
        traj = rk4_propagate(np.array([[-1.0]]), np.array([1.0]), dt=0.5, t_max=2.0)
        np.testing.assert_allclose(traj.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert traj.amplitudes[0, 0] == 1.0

    def test_stride_keeps_last(self):
        traj = rk4_propagate(np.array([[-1.0]]), np.array([1.0]),
                             dt=0.1, t_max=0.7, stride=3)
        np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.7])

    def test_basis_mismatch(self):
        e = build_line(2)
        td = transform_generator(build_transform(e), build_generator(e, "sine"))
        for route in ROUTES:
            with pytest.raises(ValueError, match="basis"):
                route(td, plus_state(e))

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            rk4_propagate(np.array([[-1.0]]), np.array([1.0]), dt=0.0)
        with pytest.raises(ValueError):
            rk4_propagate(np.array([[-1.0]]), np.array([1.0]), t_max=-1.0)

    def test_nonfinite_rejected(self):
        # with a non-square generator and a state of the wrong length: raw inputs are
        # checked by the types they are wrapped in, on every route
        cases = [
            (np.array([[np.nan]]), np.array([1.0]), "finite"),
            (np.array([[-1.0]]), np.array([np.inf]), "finite"),
            (-np.ones((2, 3)), np.array([1.0, 0.0]), "square"),
            (-np.eye(2), np.array([1.0, 0.0, 0.0]), "dimension"),
        ]
        for route in ROUTES:
            for M, beta0, message in cases:
                with pytest.raises(ValueError, match=message):
                    route(M, beta0)


class TestEigenSolve:
    def test_diagonal_generator(self):
        M = np.diag([-1.0, -2.0]).astype(complex)
        times = np.linspace(0.0, 3.0, 7)
        traj = eigen_solve(M, np.array([1.0, 0.0]), times)
        np.testing.assert_allclose(traj.amplitudes[:, 0], np.exp(-times), atol=1e-12)
        np.testing.assert_allclose(traj.amplitudes[:, 1], 0.0, atol=1e-12)

    def test_eigenvector_initial_condition(self):
        rng = np.random.default_rng(3)
        M = random_stable_matrix(rng, 8)
        lam, V = np.linalg.eig(M)
        k = 2
        v = V[:, k] / np.linalg.norm(V[:, k])
        times = np.linspace(0.0, 2.0, 9)
        traj = eigen_solve(M, v, times)
        pop = np.sum(np.abs(traj.amplitudes) ** 2, axis=1)
        np.testing.assert_allclose(pop, np.exp(2.0 * lam[k].real * times), atol=1e-10)

    def test_decomposition_invariants(self):
        e = build_sphere_lattice(2.0, 1.0)
        M = build_generator(e, "exp")
        beta0 = plus_state(e).amplitudes
        sol = eigen_decompose(M, beta0)
        resid = M.matrix @ sol.eigenvectors - sol.eigenvectors * sol.eigenvalues
        assert np.abs(resid).max() < 1e-8 * np.linalg.norm(M.matrix)
        recon = sol.eigenvectors @ sol.coefficients
        assert np.abs(recon - beta0).max() < 1e-10

    def test_agrees_with_rk4_sphere(self):
        e = build_sphere_lattice(3.0, 1.0)  # 123 atoms
        M = build_generator(e, "sine")
        beta0 = plus_state(e)
        traj_rk4 = rk4_propagate(M, beta0, dt=0.01, t_max=10.0, stride=100)
        traj_eig = eigen_solve(M, beta0, traj_rk4.times)
        assert np.abs(traj_rk4.amplitudes - traj_eig.amplitudes).max() < 1e-6

    def test_degenerate_spectrum_error(self):
        jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(DegenerateSpectrumError, match="KRYLOV_TOL = 1e-10"):
            eigen_solve(jordan, np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_the_conditioning_rule_binds_eigen_and_krylov_steps_past_it(self):
        # eigenvalues -1 +- d, cond(V) ~ 1/d: the eig route was 5.3e-6 off at d = 3e-12;
        # Krylov takes no eigenvectors, so it meets the oracle on both sides of the rule
        for d, ok in ((3e-12, False), (1e-4, True)):
            M, beta0 = np.array([[-1.0, 1.0], [d * d, -1.0]]), np.array([0.0, 1.0])
            ref = oracle_expm(M, beta0, 1.0).amplitudes
            krylov = propagate(M, beta0, 1.0, 1.0, 1, "krylov").amplitudes[-1]
            assert np.abs(krylov - ref).max() < 1e-10
            if ok:
                assert np.abs(eigen_solve(M, beta0, [0.0, 1.0]).amplitudes[-1] - ref).max() < 1e-10
            else:
                with pytest.raises(DegenerateSpectrumError, match="KRYLOV_TOL = 1e-10"):
                    eigen_solve(M, beta0, [0.0, 1.0])

    def test_times_must_start_at_zero(self):
        with pytest.raises(ValueError):
            eigen_solve(np.array([[-1.0]]), np.array([1.0]), np.array([0.5, 1.0]))


class TestOracleExpm:
    def test_scalar_half_life(self):
        st = oracle_expm(np.array([[-1.0]]), np.array([1.0]), np.log(2.0))
        assert abs(st.amplitudes[0] - 0.5) < 1e-14

    def test_nilpotent_series_terminates(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        st = oracle_expm(M, np.array([0.0, 1.0]), 1.0)
        np.testing.assert_allclose(st.amplitudes, [1.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_agrees_with_eigen_random(self, seed):
        rng = np.random.default_rng(seed)
        M = random_stable_matrix(rng, 50)
        beta0 = rng.normal(size=50) + 1j * rng.normal(size=50)
        beta0 /= np.linalg.norm(beta0)
        t = 1.5
        expm_amp = oracle_expm(M, beta0, t).amplitudes
        eig_amp = eigen_solve(M, beta0, np.array([0.0, t])).amplitudes[-1]
        assert np.abs(expm_amp - eig_amp).max() < 1e-8

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            oracle_expm(np.array([[1e13]]), np.array([1.0]), 1.0)


class TestCrossSolverProperties:
    @pytest.mark.parametrize("kernel", ["sine", "exp"])
    def test_three_solver_agreement(self, kernel):
        e = build_sphere_lattice(2.0, 1.0)  # 33 atoms
        M = build_generator(e, kernel)
        beta0 = plus_state(e)
        traj_rk4 = rk4_propagate(M, beta0, dt=0.01, t_max=10.0, stride=200)
        traj_eig = eigen_solve(M, beta0, traj_rk4.times)
        assert np.abs(traj_rk4.amplitudes - traj_eig.amplitudes).max() < 1e-6
        for i, t in enumerate(traj_rk4.times):
            expm_amp = oracle_expm(M, beta0, t).amplitudes
            assert np.abs(traj_rk4.amplitudes[i] - expm_amp).max() < 1e-6
            assert np.abs(traj_eig.amplitudes[i] - expm_amp).max() < 1e-6

    def test_rk4_convergence_order(self):
        e = build_sphere_lattice(2.0, 1.0)
        M = build_generator(e, "sine")
        beta0 = plus_state(e)
        t_end = 1.0
        ref = oracle_expm(M, beta0, t_end).amplitudes
        errors = []
        for dt in (0.02, 0.01):
            traj = rk4_propagate(M, beta0, dt=dt, t_max=t_end)
            errors.append(np.abs(traj.amplitudes[-1] - ref).max())
        order = np.log2(errors[0] / errors[1])
        assert 3.7 < order < 4.3

    @pytest.mark.parametrize("kernel", ["sine", "exp"])
    def test_total_excitation_never_increases(self, kernel):
        e = build_sphere_lattice(2.0, 1.0)
        traj = rk4_propagate(build_generator(e, kernel), plus_state(e), dt=0.01, t_max=5.0)
        totals = np.sum(np.abs(traj.amplitudes) ** 2, axis=1)
        assert np.diff(totals).max() <= 1e-10

    def test_basis_route_equivalence(self):
        e = build_sphere_lattice(2.0, 1.0)
        M = build_generator(e, "sine")
        S = build_transform(e)
        beta0 = plus_state(e)
        traj_fock = rk4_propagate(M, beta0, dt=0.01, t_max=3.0, stride=50)
        td_from_fock = traj_fock.amplitudes @ S.S.T
        traj_td = rk4_propagate(transform_generator(S, M), to_td(S, beta0),
                                dt=0.01, t_max=3.0, stride=50)
        assert np.abs(td_from_fock - traj_td.amplitudes).max() < 1e-8


class TestKrylov:
    """Arnoldi bases with Saad's error estimate, restarted at the dimension cap."""

    class CountingMatrix(np.ndarray):
        products = 0

        def __matmul__(self, other):
            type(self).products += 1
            return np.asarray(self) @ other

    def test_auto_is_accurate_on_the_stiff_line(self):
        # 600 atoms 0.05/k0 apart: RK4 at dt 0.01 was 3.3e-3 off here
        e = build_line(600, spacing=0.05)
        M, beta0 = build_generator(e, "exp"), plus_state(e)
        traj = propagate(M, beta0, 0.01, 2.0, 1, "auto")
        assert traj.solver == "krylov"
        ref = oracle_expm(M, beta0, 2.0).amplitudes
        assert np.abs(traj.amplitudes[-1] - ref).max() < 1e-10

    def test_restarts_past_a_small_cap_match_eigen(self, monkeypatch):
        monkeypatch.setattr(dynamics, "KRYLOV_MAX_DIM", 8)
        e = build_sphere_lattice(3.0, 1.0, target_count=40)
        M, beta0 = build_generator(e, "exp"), plus_state(e)
        for dt, t_max in ((0.01, 10.0), (2.0, 2.0)):
            traj = propagate(M, beta0, dt, t_max, 1, "krylov")
            ref = eigen_solve(M, beta0, traj.times)
            assert np.abs(traj.amplitudes - ref.amplitudes).max() < 1e-10
        # one basis cannot reach t = 2, so that interval was split at an internal time
        counted = build_generator(e, "exp")
        object.__setattr__(counted, "matrix", counted.matrix.view(self.CountingMatrix))
        self.CountingMatrix.products = 0
        propagate(counted, beta0, 2.0, 2.0, 1, "krylov")
        assert self.CountingMatrix.products > 8

    @pytest.mark.parametrize("m", [1, 8, 64, 160])
    def test_the_small_expm_matches_the_oracle(self, m):
        rng = np.random.default_rng(m)
        for norm in np.geomspace(1e-3, 50.0, 6):
            A = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            A *= norm / np.linalg.norm(A, 1)
            v = rng.normal(size=m) + 1j * rng.normal(size=m)
            ref = oracle_expm(A, v, 1.0).amplitudes
            assert np.linalg.norm(dynamics._expm(A) @ v - ref) <= 1e-13 * np.linalg.norm(ref)

    # (dt, t_max, stride): a stride grid whose last step is short, and one step of 2
    GRIDS = ((0.01, 1.0, 3), (2.0, 2.0, 1))

    @pytest.mark.parametrize("cap", [KRYLOV_MAX_DIM, 8])
    def test_uneven_steps_match_eigen(self, cap, monkeypatch):
        monkeypatch.setattr(dynamics, "KRYLOV_MAX_DIM", cap)
        calls = []

        def spy(H, scale, runs, residual, tol, _rows=dynamics._stepped_rows):
            calls.append(runs)
            return _rows(H, scale, runs, residual, tol)

        monkeypatch.setattr(dynamics, "_stepped_rows", spy)
        e = build_sphere_lattice(3.0, 1.0, target_count=40)
        M, beta0 = build_generator(e, "exp"), plus_state(e)
        for grid in self.GRIDS:
            traj = propagate(M, beta0, *grid, "krylov")
            ref = eigen_solve(M, beta0, traj.times)
            assert np.abs(traj.amplitudes - ref.amplitudes).max() < 1e-10
        # the stride grid's first check: one run per stretch of equal gaps of k steps, k dt
        assert calls[0] == [(33, 3 * 0.01), (1, 1 * 0.01)]
        # under the small cap a basis met no row and halved its step, ending between rows
        gaps = (0.03, 0.01, 2.0)
        halved = [s for runs in calls for _, s in runs
                  if not np.isclose(s, gaps, rtol=0, atol=1e-12).any()]
        assert bool(halved) == (cap == 8)

    def test_no_eigenproblem_and_no_condition_number(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the Krylov route solved an eigenproblem")

        for name in ("eig", "eigh", "cond"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(dynamics, "KRYLOV_MAX_DIM", 8)
        e = build_sphere_lattice(3.0, 1.0, target_count=40)
        for kernel in ("sine", "exp"):
            propagate(build_generator(e, kernel), plus_state(e), 0.01, 1.0, 3, "krylov")

    def test_non_finite_rows_fail_loudly(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_expm", lambda A: np.full_like(A, np.nan))
        with pytest.raises(ValueError, match="finite"):
            propagate(-np.eye(3), np.array([1.0, 0.5, 0.0]), 1.0, 1.0, 1, "krylov")

    def test_zero_state_and_invariant_subspace(self):
        M = np.array([[-1.0, 0.0], [0.0, -2.0]])
        zero = propagate(M, np.zeros(2), 1.0, 2.0, 1, "krylov")
        assert np.array_equal(zero.amplitudes, np.zeros((3, 2)))
        one = propagate(M, np.array([1.0, 0.0]), 1.0, 2.0, 1, "krylov")  # 1-vector basis
        assert np.abs(one.amplitudes[:, 0] - np.exp(-np.array([0.0, 1.0, 2.0]))).max() < 1e-15
        assert np.array_equal(one.amplitudes[:, 1], np.zeros(3))

    def test_a_defective_generator_propagates(self):
        jordan = np.array([[-1.0, 1.0], [0.0, -1.0]])  # e^{Mt} (0, 1) = e^{-t} (t, 1)
        beta0 = np.array([0.0, 1.0])
        traj = propagate(jordan, beta0, 1.0, 1.0, 1, "krylov")
        assert np.abs(traj.amplitudes[-1] - oracle_expm(jordan, beta0, 1.0).amplitudes).max() < 1e-10


class TestRealSymmetricPath:
    """The sine generator is float64 and real symmetric: it is solved by ``eigh`` and
    applied to complex states without being cast to complex."""

    @pytest.fixture(scope="class")
    def sphere(self):
        e = build_sphere_lattice(3.0, 1.0, target_count=121)
        return build_generator(e, "sine"), plus_state(e)

    def test_eigen_solve_matches_the_oracle_and_the_eig_route(self, sphere):
        M, beta0 = sphere
        assert eigen_decompose(M, beta0).eigenvalues.dtype == np.float64  # eigh's
        times = np.linspace(0.0, 2.0, 21)
        traj = eigen_solve(M, beta0, times)
        ref = oracle_expm(M, beta0, 2.0).amplitudes
        assert np.abs(traj.amplitudes[-1] - ref).max() < 1e-10
        cast = eigen_solve(M.matrix.astype(complex), beta0, times)
        assert np.abs(traj.amplitudes - cast.amplitudes).max() < 1e-12

    def test_the_route_follows_the_structure(self, sphere, monkeypatch):
        calls = []
        for name in ("eig", "eigh"):
            def spy(a, _routine=getattr(np.linalg, name), _name=name):
                calls.append(_name)
                return _routine(a)
            monkeypatch.setattr(np.linalg, name, spy)
        M, beta0 = sphere
        eigen_decompose(M, beta0)
        skew = M.matrix.copy()
        skew[0, 1] += 0.1  # real, not symmetric
        eigen_decompose(skew, beta0)
        with pytest.raises(DegenerateSpectrumError, match="KRYLOV_TOL = 1e-10"):
            eigen_decompose(np.array([[-1.0, 1.0], [0.0, -1.0]]), np.array([0.0, 1.0]))
        assert calls == ["eigh", "eig", "eig"]

    def test_krylov_and_rk4_match_the_complex_cast(self, sphere):
        M, beta0 = sphere
        assert M.matrix.dtype == np.float64
        cast = M.matrix.astype(complex)
        for solve in (lambda G: propagate(G, beta0, 0.01, 1.0, 1, "krylov"),
                      lambda G: rk4_propagate(G, beta0, 0.01, 1.0)):
            assert np.abs(solve(M).amplitudes - solve(cast).amplitudes).max() < 1e-13

    def test_a_sine_krylov_run_makes_no_complex_copy(self):
        e = build_line(600, spacing=0.8)
        M, beta0 = build_generator(e, "sine"), plus_state(e)
        assert M.matrix.dtype == np.float64
        tracemalloc.start()
        try:
            propagate(M, beta0, 0.1, 1.0, 1, "krylov")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * e.n ** 2  # the bytes of one N x N complex array


class TestPropagate:
    DT, T_MAX, STRIDE = 0.01, 0.05, 2
    GRID = np.array([0, 2, 4, 5]) * 0.01  # every 2nd step plus the last

    @pytest.mark.parametrize("n,solver,method", [
        (KRYLOV_MAX_DIM, "auto", "eigen"),
        (KRYLOV_MAX_DIM + 1, "auto", "krylov"),
        (KRYLOV_MAX_DIM, "krylov", "krylov"),
        (501, "eigen", "eigen"),
    ])
    def test_matches_the_direct_call(self, n, solver, method):
        e = build_line(n)
        M, beta0 = build_generator(e, "sine"), plus_state(e)
        traj = propagate(M, beta0, self.DT, self.T_MAX, self.STRIDE, solver)
        ref = eigen_solve(M, beta0, self.GRID)
        assert traj.solver == method
        np.testing.assert_array_equal(traj.times, self.GRID)
        assert np.array_equal(traj.times, ref.times)
        if method == "eigen":
            assert np.array_equal(traj.amplitudes, ref.amplitudes)
        else:  # the Krylov route has no second entry point: it meets eigen within its bound
            assert np.abs(traj.amplitudes - ref.amplitudes).max() < 1e-10

    def test_rejects_an_unknown_solver_and_a_bad_grid(self):
        M, beta0 = np.array([[-1.0]]), np.array([1.0])
        for name in ("expm", "rk4"):
            with pytest.raises(ValueError, match=rf"solver must be one of .*, got '{name}'"):
                propagate(M, beta0, solver=name)
        for solver in ("krylov", "eigen"):
            with pytest.raises(ValueError, match="dt"):
                propagate(M, beta0, dt=0.0, solver=solver)
            with pytest.raises(ValueError, match="t_max"):
                propagate(M, beta0, t_max=-1.0, solver=solver)
            for dt in (0.3, 0.35):  # would end short of t_max / overshoot it
                with pytest.raises(ValueError, match=rf"t_max = 1\.0 .* dt = {dt}"):
                    propagate(M, beta0, dt=dt, t_max=1.0, solver=solver)


class TestTrajectoryType:
    def test_record_indices(self):
        np.testing.assert_array_equal(step_indices(0.1, 1.0, 3), [0, 3, 6, 9, 10])
        np.testing.assert_array_equal(step_indices(0.1, 0.0), [0])

    def test_an_oversized_grid_is_counted_not_built(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"keeps 1e\+12 rows"):
                step_indices(1e-12, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_invariants_enforced(self):
        amps = np.zeros((2, 3), dtype=complex)
        good = Trajectory(np.array([0.0, 1.0]), ((amps, None),), "fock")
        assert good.n == 3
        with pytest.raises(ValueError):
            Trajectory(np.array([0.5, 1.0]), ((amps, None),), "fock")
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), ((amps, None),), "fock")
        with pytest.raises(ValueError, match="align"):  # 2 + 2 rows on a grid of 3
            Trajectory(np.array([0.0, 1.0, 2.0]), ((amps, None), (amps, None)), "fock")
        with pytest.raises(ValueError, match="finite"):
            Trajectory(np.array([0.0, 1.0]), ((np.full((2, 3), np.nan), None),), "fock")

    def test_state_accessor(self):
        traj = rk4_propagate(np.array([[-1.0]]), np.array([1.0]), dt=0.5, t_max=1.0)
        st = traj.state(0)
        assert isinstance(st, AmplitudeState)
        assert st.amplitudes[0] == 1.0
