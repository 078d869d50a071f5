"""The FFT lattice operator: its product is the dense generator's, ``build_generator``
hands it out only where the rule says, no run at N >= ``FFT_MIN_N`` assembles an N x N
array, the routes that need the dense form read it once per call, and a CLI run on it
keeps OpenBLAS on one thread."""

import math

import pytest

pytest.importorskip("hypothesis")
import numpy as np
from hypothesis import given, settings, strategies as st

from tdsim import (Ensemble, GeneratorMatrix, LatticeGenerator, build_generator, build_line,
                   build_sphere_lattice, build_transform, eigen_solve, oracle_expm,
                   partition_sections, plus_state, propagate, rk4_propagate,
                   transform_generator)
from tdsim import _blas, kernels
from tdsim.cli import main

LAMBDA0 = 2 * math.pi
FIG4_GEOMETRY = ["--geometry", "sphere", "--radius", repr(4.6875 * LAMBDA0),
                 "--spacing", repr(0.75 * LAMBDA0), "--target-count", "1000"]


def k0_vecs():
    vec = st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    return vec.filter(lambda v: math.hypot(*v) > 0.1)


@st.composite
def lattice_ensembles(draw):
    spacing = draw(st.floats(0.3, 3.0))
    k0_vec = draw(k0_vecs())
    shape = draw(st.sampled_from(["line", "sphere", "trimmed"]))
    if shape == "line":
        e = build_line(draw(st.integers(1, 60)), spacing, k0_vec)
    else:
        radius = draw(st.floats(0.5, 3.3)) * spacing  # 1 to 147 lattice points
        e = build_sphere_lattice(radius, spacing, k0_vec)
        if shape == "trimmed":
            e = build_sphere_lattice(radius, spacing, k0_vec, draw(st.integers(1, e.n)))
    if draw(st.booleans()):
        axis = draw(st.sampled_from([None, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]))
        e = partition_sections(e, draw(st.integers(1, e.n)), axis)
    return e


@settings(max_examples=30, deadline=None)
@given(ensemble=lattice_ensembles(), kernel=st.sampled_from(["sine", "exp"]),
       gamma=st.floats(0.1, 3.0), seed=st.integers(0, 2**32 - 1))
def test_the_operator_is_the_dense_generator(ensemble, kernel, gamma, seed):
    op = LatticeGenerator(ensemble, kernel, gamma)
    dense = build_generator(ensemble, kernel, gamma)
    assert isinstance(dense, GeneratorMatrix)  # small N: the dense form
    M = op.matrix
    assert M.dtype == dense.matrix.dtype
    assert np.array_equal(M.view(np.uint64), dense.matrix.view(np.uint64))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=ensemble.n) + 1j * rng.normal(size=ensemble.n)
    err = np.abs(op @ x - M @ x).max()
    assert err <= 1e-13 * np.linalg.norm(M, 1) * np.linalg.norm(x)
    X = rng.normal(size=(ensemble.n, 3)) + 1j * rng.normal(size=(ensemble.n, 3))
    assert np.abs(op @ X - M @ X).max() <= 1e-13 * np.linalg.norm(M, 1) * np.linalg.norm(X)


def test_build_generator_takes_the_operator_by_the_rule(monkeypatch):
    fig4 = build_sphere_lattice(4.6875 * LAMBDA0, 0.75 * LAMBDA0, target_count=1000)
    line = build_line(kernels.FFT_MIN_N)
    for e in (fig4, line):
        assert isinstance(build_generator(e, "exp"), LatticeGenerator)
    assert isinstance(build_generator(build_line(kernels.FFT_MIN_N - 1), "exp"), GeneratorMatrix)
    # one atom 50 000 cells down the line: a grid of 101 250 cells, within N^2; off the
    # line, 100 001^2 cells before rounding, past it
    for cell, form in (([50_000, 0, 0], LatticeGenerator), ([50_000, 50_000, 0], GeneratorMatrix)):
        far = np.vstack([line.lattice, [cell]])
        e = Ensemble(positions=line.spacing * far, k0_vec=line.k0_vec, lattice=far,
                     spacing=line.spacing)
        assert isinstance(build_generator(e, "exp"), form)
    cloud = Ensemble(positions=line.positions, k0_vec=line.k0_vec)  # no lattice: K
    assert isinstance(build_generator(cloud, "sine"), GeneratorMatrix)
    monkeypatch.setattr(kernels, "FFT_MIN_N", 3)
    # a padded grid of 2000 x 2000 x 2 cells, past N^2 = 9: the dense form
    lattice = np.array([[0, 0, 0], [1000, 1000, 0], [-3, 7, 1]])
    sparse = Ensemble(positions=0.01 * lattice, k0_vec=np.array([1.0, 0.0, 0.0]),
                      lattice=lattice, spacing=0.01)
    assert isinstance(build_generator(sparse, "exp"), GeneratorMatrix)
    for kernel, gamma, err in (("cosine", 1.0, "unknown kernel tag"), ("exp", 0.0, "gamma"),
                               ("exp", np.inf, "must be finite")):
        with pytest.raises(ValueError, match=err):
            build_generator(line, kernel, gamma)


def test_the_grid_is_the_next_smooth_size():
    def smooth(n):
        for f in (2, 3, 5):
            while n % f == 0:
                n //= f
        return n == 1

    for n in [*range(1, 2000), 100_001]:
        size = kernels._fft_size(n)
        assert size >= n and smooth(size) and not any(map(smooth, range(n, size)))
    assert kernels._fft_size(100_001) == 101_250


def test_a_line_too_long_for_a_dense_generator_runs_by_fft():
    e = build_line(50_001, 0.37)  # M would take 40 GB
    op = build_generator(e, "exp")
    assert isinstance(op, LatticeGenerator) and op._khat.shape == (101_250, 1, 1)
    x = np.zeros(e.n, dtype=complex)
    x[-1] = 1.0
    y = op @ x  # column N - 1 of M: the kernel at each atom's lattice distance to the last
    dist = np.abs(e.lattice[:, 0] - e.lattice[-1, 0]) * (e.k0 * e.spacing)
    ref = np.empty(e.n, dtype=complex)
    kernels._fill_kernel(ref, dist, "exp", 1.0)
    ref[dist == 0] = -1.0
    assert np.abs(y - ref).max() <= 1e-13 * np.abs(ref).sum()


@pytest.fixture
def no_dense(monkeypatch):
    """Make any N x N assembly fail the test."""
    def refuse(*args):
        raise AssertionError("an N x N array was assembled")

    monkeypatch.setattr(kernels, "_lattice_matrix", refuse)
    monkeypatch.setattr(Ensemble, "K", property(refuse))


@pytest.mark.parametrize("solver", ["auto", "krylov"])
@pytest.mark.parametrize("geometry", [
    FIG4_GEOMETRY + ["--kernel", "exp", "--init", "section:3", "--sections", "3",
                     "--section-axis", "z"],
    ["--geometry", "line", "--n", "1000", "--kernel", "exp", "--init", "ladder:2"],
])
def test_a_run_at_fft_min_n_assembles_no_n_by_n_array(tmp_path, no_dense, geometry, solver):
    out = tmp_path / "run.csv"
    assert main(["run", *geometry, "--tracked", "plus,2,3", "--t-max", "1.0",
                 "--solver", solver, "--output", str(out)]) == 0
    assert "# solver = krylov\n" in out.read_text()


def test_the_spectrum_takes_the_dense_form_and_builds_no_fft_grid(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an FFT grid was built")

    monkeypatch.setattr(LatticeGenerator, "__post_init__", refuse)
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", *FIG4_GEOMETRY, "--output", str(out)]) == 0
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == 1 + 1000  # the column names, then one row per eigenvalue


@pytest.mark.parametrize("kernel", ["sine", "exp"])
def test_every_route_takes_the_operator_and_reads_its_dense_form_once(monkeypatch, kernel):
    monkeypatch.setattr(kernels, "FFT_MIN_N", 50)
    e = build_sphere_lattice(2.5, 1.0, target_count=60)
    op, beta0 = build_generator(e, kernel), plus_state(e)
    dense = GeneratorMatrix(op.matrix, "fock")
    assert isinstance(op, LatticeGenerator)
    assembled = []

    def counted(*args, _assemble=kernels.fock_matrix):
        assembled.append(args)
        return _assemble(*args)

    monkeypatch.setattr(kernels, "fock_matrix", counted)
    krylov = propagate(op, beta0, 0.01, 2.0, 1, "krylov")
    assert not assembled
    eigen = propagate(op, beta0, 0.01, 2.0, 1, "eigen")
    assert len(assembled) == 1
    assert np.abs(krylov.amplitudes - eigen.amplitudes).max() < 1e-10
    rk4 = rk4_propagate(op, beta0, 0.01, 2.0)
    assert len(assembled) == 2
    assert np.abs(rk4.amplitudes[-1] - krylov.amplitudes[-1]).max() < 1e-6  # criterion 4
    ref = oracle_expm(op, beta0, 2.0).amplitudes
    assert len(assembled) == 3
    assert np.abs(krylov.amplitudes[-1] - ref).max() < 1e-10
    S = build_transform(e)
    td = transform_generator(S, op)
    assert len(assembled) == 4
    assert np.array_equal(td.matrix, transform_generator(S, dense).matrix)
    assert np.array_equal(eigen_solve(op, beta0, [0.0, 2.0]).amplitudes,
                          eigen_solve(dense, beta0, [0.0, 2.0]).amplitudes)
    assert len(assembled) == 5


@pytest.fixture
def blas_count():
    funcs = _blas._openblas()
    if funcs is None:
        pytest.skip("numpy's BLAS is not a bundled OpenBLAS")
    return funcs[0]


def test_blas_threads_sets_the_count_for_the_block_and_restores_it(blas_count):
    before = blas_count()
    with _blas.blas_threads(1):
        assert blas_count() == 1
    assert blas_count() == before
    with pytest.raises(KeyError), _blas.blas_threads(1):
        raise KeyError
    assert blas_count() == before


@pytest.mark.parametrize("n, threads", [(1000, 1), (200, None)])
def test_a_run_on_the_fft_operator_keeps_blas_on_one_thread(tmp_path, monkeypatch, blas_count,
                                                             n, threads):
    before, seen = blas_count(), set()
    for cls in (LatticeGenerator, GeneratorMatrix):
        def counted(self, x, _apply=cls.__matmul__):
            seen.add(blas_count())
            return _apply(self, x)

        monkeypatch.setattr(cls, "__matmul__", counted)
    out = tmp_path / "run.csv"
    assert main(["run", "--geometry", "line", "--n", str(n), "--kernel", "exp", "--t-max",
                 "1.0", "--solver", "krylov", "--output", str(out)]) == 0
    assert seen == {threads or before}
    assert blas_count() == before

