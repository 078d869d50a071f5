"""Properties over random small lines, spheres and clouds (N <= 40, both kernels):
the solvers agree with the expm oracle and Krylov with eigen on any step grid, the
Krylov route keeps total excitation from rising, relabelling the atoms leaves the run's
relabelling-free columns unchanged, the TD transform is unitary and its first-k
projection is the first k columns of the whole one, and one-atom sections reduce section
states to ladder states, bit for bit as the per-section loop builds them; and every column
a run writes is the same reduction of the trajectory that its blocks factor."""

from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")
import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import tdsim.dynamics as dynamics
from tdsim import (Ensemble, build_generator, build_line, build_sphere_lattice,
                   build_transform, eigen_solve, ladder_state, oracle_expm,
                   partition_sections, plus_state, propagate, rk4_propagate, section_state,
                   state_population, total_excitation)
from tdsim.basis import timing_phases
from tdsim.cli import RunConfig, simulate


def ensembles(min_spacing):
    spacing = st.floats(min_value=min_spacing, max_value=3.0)
    count = st.integers(min_value=1, max_value=40)
    lines = st.builds(build_line, count, spacing)
    spheres = st.builds(lambda s, n: build_sphere_lattice(2.5 * s, s, target_count=n),
                        spacing, count)  # 81 lattice points to pick from
    return st.one_of(lines, spheres)


KERNELS = st.sampled_from(["sine", "exp"])
T_MAX = st.sampled_from([0.5, 2.0])


@settings(max_examples=30, deadline=None)
@given(ensemble=ensembles(0.05), kernel=KERNELS, t_max=T_MAX)
def test_krylov_and_eigen_agree_with_the_oracle(ensemble, kernel, t_max):
    M, beta0 = build_generator(ensemble, kernel), plus_state(ensemble)
    krylov = propagate(M, beta0, 0.01, t_max, 1, "krylov")
    ref = oracle_expm(M, beta0, t_max).amplitudes
    assert np.abs(krylov.amplitudes[-1] - ref).max() < 1e-10
    assert np.abs(eigen_solve(M, beta0, krylov.times).amplitudes[-1] - ref).max() < 1e-6
    total = np.sum(np.abs(krylov.amplitudes) ** 2, axis=1)
    assert np.diff(total).max() <= 1e-10


@settings(max_examples=20, deadline=None)
@given(ensemble=ensembles(0.05), kernel=KERNELS, dt=st.floats(0.001, 0.25),
       n_steps=st.integers(1, 40), stride=st.integers(1, 40))
@example(ensemble=build_sphere_lattice(3.0, 1.0, target_count=40), kernel="exp", dt=0.01,
         n_steps=40, stride=7)  # a short last step
def test_krylov_on_any_step_grid_matches_eigen(ensemble, kernel, dt, n_steps, stride):
    M, beta0 = build_generator(ensemble, kernel), plus_state(ensemble)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "KRYLOV_MAX_DIM", 8)  # bases restart and halve their steps
        krylov = propagate(M, beta0, dt, n_steps * dt, stride, "krylov")
    ref = eigen_solve(M, beta0, krylov.times).amplitudes
    assert np.abs(krylov.amplitudes - ref).max() < 1e-10


# RK4 at dt = 0.01 is unguarded below this spacing: a 3-atom exp line 0.125/k0
# apart is 3.1e-6 off at t = 0.5, and at 0.1/k0 the steps diverge
@settings(max_examples=30, deadline=None)
@given(ensemble=ensembles(0.5), kernel=KERNELS, t_max=T_MAX)
def test_rk4_agrees_with_the_oracle(ensemble, kernel, t_max):
    M, beta0 = build_generator(ensemble, kernel), plus_state(ensemble)
    rk4 = rk4_propagate(M, beta0, dt=0.01, t_max=t_max)
    ref = oracle_expm(M, beta0, t_max).amplitudes
    assert np.abs(rk4.amplitudes[-1] - ref).max() < 1e-6  # criterion 4


def bits(amplitudes):
    return amplitudes.view(np.uint64)  # bit patterns, so signed zeros count


def section_state_loop(e, m):
    """The per-section loop that ``section_state`` vectorised, kept as its reference."""
    amp = np.zeros(e.n, dtype=complex)
    phases, norm = timing_phases(e), np.sqrt(m * (m - 1))
    for s in range(m):
        members = np.nonzero(e.sections == s)[0]
        block = phases[members] / np.sqrt(members.size)
        amp[members] = block * (-(m - 1) if s == m - 1 else 1.0) / norm
    return amp


@settings(max_examples=30, deadline=None)
@given(ensemble=ensembles(0.05).filter(lambda e: e.n >= 2), m=st.integers(2, 40),
       sections=st.integers(2, 40), axis=st.sampled_from([None, (0.0, 0.0, 1.0)]))
@example(ensemble=build_line(7, 0.8), m=2, sections=2, axis=None)
@example(ensemble=build_sphere_lattice(2.5, 1.0, target_count=9), m=3, sections=5,
         axis=(0.0, 0.0, 1.0))
@example(ensemble=build_line(7, 0.8), m=7, sections=7, axis=None)  # m = N
def test_ladder_and_section_states_are_one_pattern_bit_for_bit(ensemble, m, sections, axis):
    n = ensemble.n
    m = min(m, n)  # then m <= sections <= n
    slabs = partition_sections(ensemble, min(max(sections, m), n), axis)
    one_atom = replace(ensemble, sections=np.arange(n))
    assert np.array_equal(bits(ladder_state(one_atom, m).amplitudes),
                          bits(section_state(one_atom, m).amplitudes))
    for e in (one_atom, slabs):
        assert np.array_equal(bits(section_state(e, m).amplitudes), bits(section_state_loop(e, m)))


def run_columns(ensemble, kernel, t_max):
    """``total``, ``pop_plus`` and ``pop_init`` of a two-section ``section:2`` run."""
    e = partition_sections(ensemble, 2)
    init = section_state(e, 2)
    traj = propagate(build_generator(e, kernel), init, t_max=t_max)
    pop_plus = np.abs(build_transform(e).apply(traj.amplitudes)[:, 0]) ** 2
    return [total_excitation(traj).values, pop_plus, state_population(traj, init).values]


@settings(max_examples=30, deadline=None)
@given(ensemble=ensembles(0.05).filter(lambda e: e.n >= 2), kernel=KERNELS,
       t_max=T_MAX, data=st.data())
def test_relabelling_the_atoms_leaves_the_run_unchanged(ensemble, kernel, t_max, data):
    # ladder populations are exempt: |m> lives on the first m atoms in list order
    perm = np.array(data.draw(st.permutations(range(ensemble.n))))
    shuffled = replace(ensemble, positions=ensemble.positions[perm],
                       lattice=ensemble.lattice[perm])
    for ref, got in zip(run_columns(ensemble, kernel, t_max),
                        run_columns(shuffled, kernel, t_max)):
        assert np.abs(got - ref).max() < 1e-10


CLOUDS = st.integers(1, 40).flatmap(
    lambda n: arrays(float, (n, 3), elements=st.floats(-10.0, 10.0), unique=True))
K0_VECS = arrays(float, 3, elements=st.floats(-3.0, 3.0)).filter(
    lambda k: np.linalg.norm(k) > 0.1)


@settings(max_examples=30, deadline=None)
@given(positions=CLOUDS, k0_vec=K0_VECS)
def test_the_td_transform_of_a_random_cloud_is_unitary(positions, k0_vec):
    transform = build_transform(Ensemble(positions, k0_vec))
    S = transform.S
    eye = np.eye(transform.n)
    assert np.abs(S @ S.conj().T - eye).max() < 1e-12
    assert np.abs(transform.apply(eye) - S.T).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(positions=CLOUDS, k0_vec=K0_VECS, rows=st.integers(1, 5), data=st.data())
def test_the_first_k_projection_is_the_first_k_columns_of_apply(positions, k0_vec, rows,
                                                                data):
    transform = build_transform(Ensemble(positions, k0_vec))
    n = transform.n
    k = data.draw(st.sampled_from([1, n]) | st.integers(1, n), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    block = rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))
    for x in (block, block[0]):  # a T x N block and a single vector
        ref, got = transform.apply(x)[..., :k], transform.leading(x, k)
        assert got.shape == ref.shape
        # |2>..|k> are apply's own numbers; |+> is a dot product instead of a prefix sum
        assert np.array_equal(got[..., 1:], ref[..., 1:])
        assert np.all(np.abs(got[..., 0] - ref[..., 0]) <= 1e-14 * np.linalg.norm(x, axis=-1))


def jittered_clouds(spacing, count):
    """Positions-only clouds: each point of a trimmed lattice moved by up to 0.3 spacings."""
    def cloud(s, n, k0_vec):
        base = build_sphere_lattice(2.5 * s, s, target_count=n).positions
        return arrays(float, (n, 3), elements=st.floats(-0.3, 0.3)).map(
            lambda jitter: Ensemble(base + s * jitter, k0_vec))
    return st.tuples(spacing, count, K0_VECS).flatmap(lambda args: cloud(*args))


RUN_ENSEMBLES = st.one_of(
    ensembles(0.05).filter(lambda e: e.n >= 2),
    jittered_clouds(st.floats(min_value=0.05, max_value=3.0), st.integers(2, 40)))


@settings(max_examples=30, deadline=None)
@given(ensemble=RUN_ENSEMBLES, kernel=KERNELS, solver=st.sampled_from(["krylov", "auto"]),
       init=st.sampled_from(["plus", "ladder:2", "section:2"]))
def test_the_run_columns_are_the_reductions_of_the_built_trajectory(ensemble, kernel, solver,
                                                                    init):
    e = partition_sections(ensemble, 2)
    start = {"plus": plus_state(e), "ladder:2": ladder_state(e, 2),
             "section:2": section_state(e, 2)}[init]
    config = RunConfig(kernel=kernel, init=init, solver=solver, sections=2, t_max=1.0,
                       tracked="all")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "KRYLOV_MAX_DIM", 8)  # bases restart; auto is eigen to N = 8
        result = simulate((config, e, list(range(1, e.n + 1)), start))
        traj = propagate(build_generator(e, kernel), start, config.dt, config.t_max,
                         solver=solver)
    A = traj.amplitudes
    td = build_transform(e).apply(A)
    expect = {("pop_plus" if i == 0 else f"pop_{i + 1}"): np.abs(td[:, i]) ** 2
              for i in range(e.n)}
    if init == "section:2":  # from the T x N states: the run reads the same blocks
        expect["pop_init"] = np.abs(A @ np.conj(start.amplitudes)) ** 2
    expect["total"] = np.sum(np.abs(A) ** 2, axis=1)
    assert [name for name, _ in result.columns] == list(expect)
    for name, series in result.columns:
        assert np.abs(series.values - expect[name]).max() <= 1e-13, name
