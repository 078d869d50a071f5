import math

import numpy as np
import pytest

from tdsim import (
    Ensemble,
    build_line,
    build_generator,
    build_sphere_lattice,
    build_transform,
    decay_time,
    eigen_solve,
    fa_transfer,
    ladder_state,
    plus_state,
    populations,
    rk4_propagate,
    state_population,
    to_td,
    total_excitation,
    transform_generator,
)
from tdsim.observables import ObservableSeries


def td_trajectory(ensemble, init, t_max=5.0, dt=0.01, gamma=1.0):
    """Propagate in the TD basis starting from the given fock-basis state."""
    S = build_transform(ensemble)
    td_gen = transform_generator(S, build_generator(ensemble, "sine", gamma))
    times = np.arange(0.0, t_max + dt / 2, dt)
    return eigen_solve(td_gen, to_td(S, init), times)


class TestPopulations:
    def test_initial_unit_vector(self):
        e = build_sphere_lattice(2.0, 1.0)
        traj = td_trajectory(e, plus_state(e))
        pops = populations(traj, range(1, e.n + 1))
        assert abs(pops[1].values[0] - 1.0) < 1e-12
        for m in range(2, e.n + 1):
            assert pops[m].values[0] < 1e-12

    def test_single_atom_population_decay(self):
        e = build_line(1)
        traj = td_trajectory(e, plus_state(e), gamma=1.0)
        pops = populations(traj, [1])[1]
        np.testing.assert_allclose(pops.values, np.exp(-2.0 * pops.times), atol=1e-8)

    def test_two_atom_pi_spacing_analytic(self):
        # sinc(pi) = 0 makes the TD generator diagonal: the minus state
        # stays empty and the plus population is exactly e^{-2 gamma t}
        e = build_line(2, spacing=np.pi)
        traj = td_trajectory(e, plus_state(e))
        pops = populations(traj, [1, 2])
        i1 = np.searchsorted(traj.times, 1.0)
        assert traj.times[i1] == 1.0
        assert abs(pops[2].values[i1]) < 1e-12
        assert abs(pops[1].values[i1] - np.exp(-2.0)) < 1e-10

    def test_requires_td_basis(self):
        e = build_line(2)
        traj = rk4_propagate(build_generator(e, "sine"), plus_state(e), t_max=1.0)
        with pytest.raises(ValueError, match="td"):
            populations(traj, [1])

    def test_index_out_of_range(self):
        e = build_line(3)
        traj = td_trajectory(e, plus_state(e), t_max=1.0)
        with pytest.raises(ValueError):
            populations(traj, [4])

    def test_values_bounded(self):
        e = build_sphere_lattice(2.0, 1.0)
        traj = td_trajectory(e, ladder_state(e, 2))
        for series in populations(traj, range(1, e.n + 1)).values():
            assert series.values.min() >= 0.0
            assert series.values.max() <= 1.0 + 1e-9


class TestTotalExcitation:
    def test_normalized_start(self):
        e = build_sphere_lattice(2.0, 1.0)
        traj = td_trajectory(e, plus_state(e))
        total = total_excitation(traj)
        assert abs(total.values[0] - 1.0) < 1e-12

    def test_basis_invariance(self):
        e = build_sphere_lattice(2.0, 1.0)
        M = build_generator(e, "sine")
        fock = rk4_propagate(M, plus_state(e), dt=0.01, t_max=3.0, stride=10)
        S = build_transform(e)
        td = td_trajectory(e, plus_state(e), t_max=3.0)
        keep = np.searchsorted(td.times, fock.times)
        f_tot = total_excitation(fock).values
        t_tot = total_excitation(td).values[keep]
        assert np.abs(f_tot - t_tot).max() < 1e-6  # rk4 vs eigen route
        td_amp = fock.amplitudes @ S.S.T
        assert np.abs(np.sum(np.abs(td_amp) ** 2, axis=1) - f_tot).max() < 1e-10

    def test_monotone_non_increasing(self):
        e = build_sphere_lattice(2.0, 1.0)
        traj = td_trajectory(e, ladder_state(e, 5))
        assert np.diff(total_excitation(traj).values).max() <= 1e-10

    def test_population_sum_equals_total(self):
        e = build_sphere_lattice(2.0, 1.0)
        traj = td_trajectory(e, plus_state(e))
        pops = populations(traj, range(1, e.n + 1))
        total = total_excitation(traj)
        acc = np.zeros_like(total.values)
        for series in pops.values():
            acc += series.values
        assert np.abs(acc - total.values).max() < 1e-10


class TestStatePopulation:
    def test_matches_indexed_population(self):
        e = build_sphere_lattice(2.0, 1.0)
        traj = td_trajectory(e, plus_state(e))
        ref = traj.state(0)
        via_state = state_population(traj, ref)
        via_index = populations(traj, [1])[1]
        assert np.abs(via_state.values - via_index.values).max() < 1e-12

    def test_basis_mismatch(self):
        e = build_line(2)
        traj = rk4_propagate(build_generator(e, "sine"), plus_state(e), t_max=1.0)
        td_state = to_td(build_transform(e), plus_state(e))
        with pytest.raises(ValueError, match="basis"):
            state_population(traj, td_state)


class TestFaTransfer:
    def test_initial_values(self):
        e = build_sphere_lattice(2.0, 1.0)
        traj = td_trajectory(e, plus_state(e))
        same = fa_transfer(traj, 1, 1)
        other = fa_transfer(traj, 1, 2)
        assert abs(same.values[0] - 1.0) < 1e-12
        assert other.values[0] < 1e-12

    def test_requires_pure_source_start(self):
        e = build_sphere_lattice(2.0, 1.0)
        traj = td_trajectory(e, plus_state(e))
        with pytest.raises(ValueError, match="pure source"):
            fa_transfer(traj, 2, 1)

    def test_bounded_by_leaked_population(self):
        e = build_sphere_lattice(2.0, 1.0)
        traj = td_trajectory(e, ladder_state(e, 2))
        source = populations(traj, [2])[2].values
        for target in (1, 3, e.n):
            transferred = fa_transfer(traj, 2, target).values
            assert np.all(transferred <= 1.0 - source + 1e-9)


class TestDecayTime:
    def test_exponential_crossing(self):
        t = np.arange(0.0, 3.0, 0.01)
        series = ObservableSeries(t, np.exp(-2.0 * t))
        crossing = decay_time(series, math.exp(-2.0))
        assert abs(crossing - 1.0) < 0.01

    def test_never_crosses(self):
        t = np.arange(0.0, 2.0, 0.1)
        series = ObservableSeries(t, np.ones_like(t))
        assert decay_time(series, 0.5) == math.inf

    def test_linear_interpolation(self):
        series = ObservableSeries(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert abs(decay_time(series, 0.25) - 0.75) < 1e-12

    def test_starts_below_threshold(self):
        series = ObservableSeries(np.array([0.0, 1.0]), np.array([0.2, 0.1]))
        with pytest.raises(ValueError, match="above threshold"):
            decay_time(series, 0.5)


class TestPermutationCovariance:
    def test_total_series_invariant_under_relabeling(self):
        base = build_sphere_lattice(2.0, 1.0)
        rng = np.random.default_rng(5)
        perm = rng.permutation(base.n)
        shuffled = Ensemble(positions=base.positions[perm], k0_vec=base.k0_vec)
        times = np.arange(0.0, 5.0, 0.05)
        t_base = total_excitation(
            eigen_solve(build_generator(base, "sine"), plus_state(base), times)
        ).values
        t_shuf = total_excitation(
            eigen_solve(build_generator(shuffled, "sine"), plus_state(shuffled), times)
        ).values
        assert np.abs(t_base - t_shuf).max() < 1e-10
