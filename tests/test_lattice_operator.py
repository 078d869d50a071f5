"""The FFT lattice operator: its product is the dense generator's, ``build_generator``
hands it out only where the rule says, no run at N >= ``FFT_MIN_N`` assembles an N x N
array, the routes that need the dense form read it once per call, and a CLI run on it
keeps OpenBLAS on one thread."""

import math
import multiprocessing
import os
import sys
import threading

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



def _bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


def _split_and_unsplit(op, x):
    """``op @ x`` unsplit and with the split forced by a zero cell threshold and two usable
    CPUs, and how many stage halves the split one gave the helper."""
    halves = []

    class Counted:
        def __init__(self, helper):
            self.helper = helper

        def submit(self, *args):
            halves.append(args)
            return self.helper.submit(*args)

    def counted(_helper=kernels._fft_helper):
        return Counted(_helper())

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "FFT_SPLIT_CELLS", math.inf)
        unsplit = op @ x
        assert not halves
        mp.setattr(kernels, "FFT_SPLIT_CELLS", 0)
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        mp.setattr(kernels, "_fft_helper", counted)
        split = op @ x
    return unsplit, split, len(halves)


@settings(max_examples=30, deadline=None)
@given(ensemble=lattice_ensembles(), kernel=st.sampled_from(["sine", "exp"]),
       seed=st.integers(0, 2**32 - 1), cols=st.sampled_from([(), (1,), (3,)]))
def test_a_split_product_is_the_unsplit_product_bit_for_bit(ensemble, kernel, seed, cols):
    op = LatticeGenerator(ensemble, kernel, 0.8)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(ensemble.n, *cols)) + 1j * rng.normal(size=(ensemble.n, *cols))
    unsplit, split, halves = _split_and_unsplit(op, x)
    assert np.array_equal(_bits(split), _bits(unsplit))
    (_, P1, P2), (L0, _, _) = op._khat.shape, op._box
    assert halves == (3 if min(L0, P1 * P2) > 1 else 0)  # one half per stage, or no split


def _slab(shape, axes):
    """A full rectangle of lattice points on two of the three axes."""
    shape, axes = tuple(shape), list(axes)
    cells = np.zeros((math.prod(shape), 3), dtype=int)
    plane = np.meshgrid(*map(np.arange, shape), indexing="ij")
    cells[:, axes] = np.stack(plane, -1).reshape(-1, 2)
    return Ensemble(positions=0.7 * cells, k0_vec=np.array([0.3, 0.5, 0.2]), lattice=cells,
                    spacing=0.7)


def _big_sphere():
    return build_sphere_lattice(9.05 * 0.75 * LAMBDA0, 0.75 * LAMBDA0, target_count=3000)


@pytest.mark.parametrize("build, splits", [
    (lambda: build_line(1000, 0.37), False),  # P1 = P2 = 1: stage 2 is one column
    (lambda: build_line(1), False),
    (lambda: _slab((20, 15), [0, 1]), True),  # P2 = 1: stage 2 splits its P1 columns
    (lambda: _slab((20, 15), [0, 2]), True),  # P1 = 1: stage 2 splits its P2 columns
    (lambda: _slab((20, 15), [1, 2]), False),  # L0 = 1: stages 1 and 3 are one slab
    (_big_sphere, True),
], ids=["line", "one-atom", "slab-xy", "slab-xz", "slab-yz", "big-sphere"])
@pytest.mark.parametrize("kernel", ["sine", "exp"])
def test_split_products_of_lines_slabs_and_one_atom(build, splits, kernel):
    ensemble = build()
    op = LatticeGenerator(ensemble, kernel, 1.3)
    rng = np.random.default_rng(7)
    for shape in [(ensemble.n,), (ensemble.n, 4)]:
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        unsplit, split, halves = _split_and_unsplit(op, x)
        assert np.array_equal(_bits(split), _bits(unsplit))
        assert halves == 3 * splits


def test_grids_below_the_threshold_and_one_cpu_run_unsplit(monkeypatch):
    fig4 = build_sphere_lattice(4.6875 * LAMBDA0, 0.75 * LAMBDA0, target_count=1000)
    big = _big_sphere()
    fig4_op, big_op = LatticeGenerator(fig4, "exp"), LatticeGenerator(big, "exp")
    assert fig4_op._khat.size < kernels.FFT_SPLIT_CELLS <= big_op._khat.size
    x = np.random.default_rng(3).normal(size=big.n) + 0j
    split = big_op @ x
    monkeypatch.setattr(kernels, "_helper", None)  # this process's helper, if any, put aside
    threads = threading.active_count()
    fig4_op @ x[:fig4.n]
    assert kernels._helper is None
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert kernels._usable_cpus() == 1
    assert np.array_equal(_bits(big_op @ x), _bits(split))
    assert kernels._helper is None and threading.active_count() == threads


def test_repeated_runs_start_at_most_one_helper_thread(tmp_path, monkeypatch):
    monkeypatch.setattr(kernels, "FFT_SPLIT_CELLS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    argv = ["run", *FIG4_GEOMETRY, "--kernel", "exp", "--t-max", "0.5", "--output"]
    assert main([*argv, str(tmp_path / "first.csv")]) == 0
    threads = threading.active_count()
    assert kernels._helper is not None
    for i in range(3):
        assert main([*argv, str(tmp_path / f"again{i}.csv")]) == 0
        assert threading.active_count() == threads
    helpers = [t for t in threading.enumerate() if t.name.startswith("tdsim-fft")]
    assert len(helpers) == 1
    first = (tmp_path / "first.csv").read_bytes()
    assert all((tmp_path / f"again{i}.csv").read_bytes() == first for i in range(3))


def test_concurrent_callers_share_the_helper(monkeypatch):
    monkeypatch.setattr(kernels, "FFT_SPLIT_CELLS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    e = build_sphere_lattice(4.0, 1.0)
    ops = [LatticeGenerator(e, kernel) for kernel in ("sine", "exp")]
    rng = np.random.default_rng(11)
    xs = [rng.normal(size=e.n) + 1j * rng.normal(size=e.n) for _ in range(4)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "FFT_SPLIT_CELLS", math.inf)
        expected = [[_bits(op @ x) for x in xs] for op in ops]
    wrong, done = [], []

    def caller(k):
        op, x = ops[k % 2], xs[k % 4]
        for _ in range(20):
            if not np.array_equal(_bits(op @ x), expected[k % 2][k % 4]):
                wrong.append(k)
        done.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(k,)) for k in range(8)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert sorted(done) == list(range(8)) and not wrong


def _per_cell_grid(grid, scale, kernel, gamma):
    """The kernel grid evaluated on each cell, as before the distance table."""
    d0, d1, d2 = (np.minimum(np.arange(P), P - np.arange(P)) ** 2 for P in grid)
    x = np.sqrt(d0[:, None, None] + d1[:, None] + d2, dtype=float)
    x *= scale
    cells = kernels._fill_kernel(np.zeros(grid, dtype=complex), x, kernel, gamma)
    cells[0, 0, 0] = -gamma
    return cells


@pytest.mark.parametrize("kernel", ["sine", "exp"])
@pytest.mark.parametrize("build, table", [
    (_big_sphere, True),
    (lambda: build_line(1000, 0.37), True),
    (lambda: build_line(50_001, 0.37), True),  # keyed by |offset|: 50 626 entries, not 2.5e9
    (lambda: _slab((2, 3000), [0, 1]), False),  # 1 + 1 + 3000^2 entries: past its grid
], ids=["big-sphere", "line-1000", "line-50001", "long-slab"])
def test_the_table_built_kernel_grid_is_the_per_cell_fill(build, table, kernel):
    ensemble = build()
    grid, scale = kernels._padded_grid(ensemble.lattice), ensemble.k0 * ensemble.spacing
    _, values = kernels._kernel_table([P // 2 for P in grid], scale, kernel, 0.7, complex,
                                      math.prod(grid))
    assert (values is not None) == table
    got = kernels._kernel_grid(grid, scale, kernel, 0.7)
    assert np.array_equal(_bits(got), _bits(_per_cell_grid(grid, scale, kernel, 0.7)))


def _split_product_exits(op, x, expected):
    assert np.array_equal(_bits(op @ x), expected)


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork on this platform")
def test_a_forked_child_starts_its_own_helper(monkeypatch):
    monkeypatch.setattr(kernels, "FFT_SPLIT_CELLS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    e = build_sphere_lattice(3.0, 1.0)
    op, x = LatticeGenerator(e, "exp"), np.ones(e.n, dtype=complex)
    expected = _bits(op @ x)  # the parent's helper is running now
    child = multiprocessing.get_context("fork").Process(target=_split_product_exits,
                                                        args=(op, x, expected))
    child.start()
    child.join(timeout=60)
    if child.is_alive():  # waiting on the parent's helper, which the fork did not copy
        child.kill()
        child.join()
    assert child.exitcode == 0
