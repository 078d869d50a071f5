"""Properties over random small lines and spheres (N <= 40, both kernels): the
solvers agree with the expm oracle, and the Krylov route keeps total excitation
from rising."""

import pytest

pytest.importorskip("hypothesis")
import numpy as np
from hypothesis import given, settings, strategies as st

from tdsim import (build_generator, build_line, build_sphere_lattice, eigen_solve,
                   oracle_expm, plus_state, rk4_propagate)
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
