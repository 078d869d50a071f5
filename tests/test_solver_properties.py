"""Properties over random small lines, spheres and clouds (N <= 40, both kernels):
the solvers agree with the expm oracle, the Krylov route keeps total excitation
from rising, relabelling the atoms leaves the run's relabelling-free columns
unchanged, the TD transform is unitary and its first-k projection is the first k
columns of the whole one, and one-atom sections reduce section states to ladder
states."""

from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")
import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tdsim import (Ensemble, build_generator, build_line, build_sphere_lattice,
                   build_transform, eigen_solve, ladder_state, oracle_expm,
                   partition_sections, plus_state, propagate, rk4_propagate, section_state,
                   state_population, total_excitation)
from tdsim.dynamics import krylov_propagate, step_indices


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
    times = step_indices(0.01, t_max) * 0.01
    krylov = krylov_propagate(M, beta0, times)
    ref = oracle_expm(M, beta0, t_max).amplitudes
    assert np.abs(krylov.amplitudes[-1] - ref).max() < 1e-10
    assert np.abs(eigen_solve(M, beta0, times).amplitudes[-1] - ref).max() < 1e-6
    total = np.sum(np.abs(krylov.amplitudes) ** 2, axis=1)
    assert np.diff(total).max() <= 1e-10


# RK4 at dt = 0.01 is unguarded below this spacing: a 3-atom exp line 0.125/k0
# apart is 3.1e-6 off at t = 0.5, and at 0.1/k0 the steps diverge
@settings(max_examples=30, deadline=None)
@given(ensemble=ensembles(0.5), kernel=KERNELS, t_max=T_MAX)
def test_rk4_agrees_with_the_oracle(ensemble, kernel, t_max):
    M, beta0 = build_generator(ensemble, kernel), plus_state(ensemble)
    rk4 = rk4_propagate(M, beta0, dt=0.01, t_max=t_max)
    ref = oracle_expm(M, beta0, t_max).amplitudes
    assert np.abs(rk4.amplitudes[-1] - ref).max() < 1e-6  # criterion 4


@settings(max_examples=20, deadline=None)
@given(ensemble=ensembles(0.05))
def test_one_atom_sections_give_the_ladder_states(ensemble):
    e = replace(ensemble, sections=np.arange(ensemble.n))
    for m in {2, 3, e.n} & set(range(2, e.n + 1)):
        assert np.array_equal(section_state(e, m).amplitudes, ladder_state(e, m).amplitudes)


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
