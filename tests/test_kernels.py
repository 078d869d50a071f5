import tracemalloc

import numpy as np
import pytest

from tdsim import (
    Ensemble,
    assemble_td_direct,
    build_line,
    build_generator,
    build_sphere_lattice,
    build_transform,
    transform_generator,
)
from tdsim import kernels
from tdsim.kernels import BLOCK_KEYS, KERNELS

# the whole-array expressions of the kernels, diagonal set afterwards
REFERENCE = {
    "sine": lambda K, gamma: -gamma * np.sin(K) / K,
    "exp": lambda K, gamma: -gamma * np.sin(K) / K + 1j * (gamma * np.cos(K) / K),
}
# the sine generator is real symmetric and stored as float64
DTYPES = {"sine": np.float64, "exp": np.complex128}


@pytest.fixture(scope="module")
def fig2_sphere():
    return build_sphere_lattice(3.0, 1.0, target_count=121)


@pytest.fixture(scope="module")
def line300():
    return build_line(300, spacing=0.37)


@pytest.fixture(scope="module")
def fig4_sphere():
    spacing = 0.75 * 2 * np.pi
    return build_sphere_lattice(6.25 * spacing, spacing, target_count=1000)


@pytest.fixture(scope="module")
def stiff_line():
    return build_line(600, spacing=0.05)


@pytest.fixture(scope="module")
def plane():
    # a 7 x 5 grid in the z = 3 plane: squared-offset keys with one axis not varying
    ii, jj = np.meshgrid(np.arange(-3, 4), np.arange(5), indexing="ij")
    lattice = np.column_stack([ii.ravel(), jj.ravel(), np.full(ii.size, 3)])
    return Ensemble(positions=0.6 * lattice, k0_vec=np.array([0.6, 0.0, 0.8]),
                    lattice=lattice, spacing=0.6)


def positions_only(e):
    """The same points without their lattice, so the generator is built from K."""
    return Ensemble(positions=e.positions, k0_vec=e.k0_vec)


@pytest.fixture(scope="module")
def positions_only_fig2(fig2_sphere):
    return positions_only(fig2_sphere)


@pytest.fixture(scope="module")
def sparse_lattice():
    # squared offsets up to about 2 * 10^6: a table far past N^2 = 9 entries, so the K path
    lattice = np.array([[0, 0, 0], [1000, 1000, 0], [-3, 7, 1]])
    return Ensemble(positions=0.01 * lattice, k0_vec=np.array([1.0, 0.0, 0.0]),
                    lattice=lattice, spacing=0.01)


@pytest.fixture(scope="module")
def random_cloud():
    rng = np.random.default_rng(11)
    pos = rng.uniform(-2.0, 2.0, size=(40, 3))
    return Ensemble(positions=pos, k0_vec=np.array([1.0, 0.0, 0.0]))


class TestSineGenerator:
    def test_single_atom(self):
        M = build_generator(build_line(1), "sine", gamma=1.7).matrix
        np.testing.assert_allclose(M, [[-1.7]])

    def test_pi_separation_decouples(self):
        M = build_generator(build_line(2, spacing=np.pi), "sine").matrix
        assert abs(M[0, 1]) < 1e-15
        assert abs(M[1, 0]) < 1e-15

    def test_half_pi_separation(self):
        M = build_generator(build_line(2, spacing=np.pi / 2), "sine").matrix
        np.testing.assert_allclose(M[0, 1], -2.0 / np.pi, rtol=1e-15)

    def test_real_symmetric(self, fig2_sphere):
        M = build_generator(fig2_sphere, "sine").matrix
        assert np.abs(M.imag).max() == 0.0
        assert np.array_equal(M, M.T)

    @pytest.mark.parametrize("name", ["fig2_sphere", "line300", "random_cloud"])
    def test_float64_and_exactly_symmetric(self, name, request):
        M = build_generator(request.getfixturevalue(name), "sine").matrix
        assert M.dtype == np.float64
        assert np.array_equal(M, M.T)

    def test_eigenvalues_in_decay_band(self, fig2_sphere):
        gamma = 1.0
        M = build_generator(fig2_sphere, "sine", gamma).matrix
        ev = np.linalg.eigvalsh(M.real)
        n = fig2_sphere.n
        assert ev.max() < 1e-8
        assert ev.min() > -gamma * n - 1e-8

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            build_generator(build_line(2), "sine", gamma=0.0)


class TestExpGenerator:
    def test_pi_separation(self):
        M = build_generator(build_line(2, spacing=np.pi), "exp").matrix
        np.testing.assert_allclose(M[0, 1], -1j / np.pi, atol=1e-15)

    def test_half_pi_separation_real(self):
        # i*e^{i pi/2} = -1, so the entry matches the sine kernel's value
        M = build_generator(build_line(2, spacing=np.pi / 2), "exp").matrix
        np.testing.assert_allclose(M[0, 1], -2.0 / np.pi + 0j, atol=1e-15)

    def test_diagonal(self, fig2_sphere):
        gamma = 0.8
        M = build_generator(fig2_sphere, "exp", gamma).matrix
        np.testing.assert_allclose(np.diag(M), -gamma, rtol=0, atol=0)

    def test_single_atom(self):
        M = build_generator(build_line(1), "exp").matrix
        np.testing.assert_allclose(M, [[-1.0]])


class TestKernelIdentities:
    @pytest.mark.parametrize("name", ["fig2_sphere", "random_cloud"])
    def test_hermitian_part_is_sine_generator(self, name, request):
        e = request.getfixturevalue(name)
        gamma = 1.0
        M_exp = build_generator(e, "exp", gamma).matrix
        M_sin = build_generator(e, "sine", gamma).matrix
        herm = 0.5 * (M_exp + M_exp.conj().T)
        assert np.abs(herm - M_sin).max() < 1e-12

    @pytest.mark.parametrize("gamma", [1.0, 0.7])
    @pytest.mark.parametrize("name", ["fig2_sphere", "fig4_sphere", "line300", "random_cloud",
                                      "positions_only_fig2", "sparse_lattice"])
    def test_lattice_exp_real_part_is_the_sine_generator_bitwise(self, name, gamma, request):
        e = request.getfixturevalue(name)
        M_exp = build_generator(e, "exp", gamma).matrix
        M_sin = build_generator(e, "sine", gamma).matrix
        assert np.array_equal(np.ascontiguousarray(M_exp.real).view(np.uint64),
                              M_sin.view(np.uint64))

    @pytest.mark.parametrize("kernel", ["sine", "exp"])
    def test_hermitian_part_negative_semidefinite(self, fig2_sphere, kernel):
        M = build_generator(fig2_sphere, kernel).matrix
        ev = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
        assert ev.max() <= 1e-10


class TestTdDirectAssembly:
    def test_single_atom_both_kernels(self):
        e = build_line(1)
        for kernel in ("sine", "exp"):
            M = assemble_td_direct(e, kernel, gamma=2.0)
            np.testing.assert_allclose(M.matrix, [[-2.0]])
            assert M.basis == "td"

    def test_two_atom_sine_value(self):
        e = build_line(2, spacing=np.pi / 2)
        M = assemble_td_direct(e, "sine").matrix
        np.testing.assert_allclose(M[1, 0], -2j / np.pi, atol=1e-14)

    @pytest.mark.parametrize("kernel", ["sine", "exp"])
    @pytest.mark.parametrize("name", ["fig2_sphere", "random_cloud"])
    def test_matches_conjugated_fock_generator(self, kernel, name, request):
        e = request.getfixturevalue(name)
        direct = assemble_td_direct(e, kernel).matrix
        conj = transform_generator(build_transform(e), build_generator(e, kernel)).matrix
        assert np.abs(direct - conj).max() < 1e-10

    @pytest.mark.parametrize("kernel", ["sine", "exp"])
    def test_line_geometry_agreement(self, kernel):
        e = build_line(30, spacing=0.7, k0_vec=(0.6, 0.8, 0.0))
        direct = assemble_td_direct(e, kernel).matrix
        conj = transform_generator(build_transform(e), build_generator(e, kernel)).matrix
        assert np.abs(direct - conj).max() < 1e-10

    def test_unknown_kernel(self):
        with pytest.raises(ValueError, match="kernel"):
            assemble_td_direct(build_line(2), "cosine")


class TestInPlaceAssembly:
    """The K path: clouds given by their positions alone."""

    @pytest.mark.parametrize("gamma", [1.0, 0.7])
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("name", ["fig2_sphere", "line300"])
    def test_bitwise_equal_to_whole_array_expression(self, kernel, gamma, name, request):
        e = positions_only(request.getfixturevalue(name))
        with np.errstate(divide="ignore", invalid="ignore"):
            ref = np.asarray(REFERENCE[kernel](e.K, gamma), dtype=DTYPES[kernel])
        np.fill_diagonal(ref, -gamma)
        M = build_generator(e, kernel, gamma).matrix
        # compared as bit patterns, so signed zeros count
        assert np.array_equal(M.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_peak_memory_is_K_plus_M(self, kernel):
        e = positions_only(build_line(600, spacing=0.8))
        tracemalloc.start()
        try:
            build_generator(e, kernel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # K is 8 bytes per pair and M 8 (sine) or 16 (exp); anything else whole-matrix
        # breaks the bound
        assert peak <= (8 + np.dtype(DTYPES[kernel]).itemsize) * e.n ** 2 + 2 ** 20

    def test_bad_arguments_raise_before_K(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("N x N assembly started")

        monkeypatch.setattr(Ensemble, "K", property(refuse))
        monkeypatch.setattr(kernels, "_lattice_matrix", refuse)
        for e in (build_line(4), positions_only(build_line(4))):
            for build in (build_generator, assemble_td_direct):
                with pytest.raises(ValueError, match="unknown kernel tag 'cosine'"):
                    build(e, "cosine")
                with pytest.raises(ValueError, match="gamma must be positive, got 0"):
                    build(e, "sine", gamma=0)
                with pytest.raises(ValueError, match="gamma must be positive, got -1"):
                    build(e, "exp", gamma=-1.0)


class TestFiniteness:
    @pytest.mark.parametrize("gamma", [np.inf, np.nan])
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("lattice", [True, False])
    def test_a_nonfinite_gamma_is_rejected(self, kernel, gamma, lattice):
        e = build_line(5) if lattice else positions_only(build_line(5))
        with pytest.raises(ValueError, match="generator matrix must be finite"):
            build_generator(e, kernel, gamma)

    @pytest.mark.parametrize("lattice", [True, False])
    def test_only_the_K_path_scans_the_whole_matrix(self, monkeypatch, line300, lattice):
        e = line300 if lattice else positions_only(line300)
        scanned, isfinite = [], np.isfinite

        def spy(x, *args, **kwargs):
            scanned.append(np.size(x))
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", spy)
        build_generator(e, "exp")
        # the lattice path scans its table (N entries on a line) and never M; K scans M once
        assert scanned.count(e.n ** 2) == (not lattice)
        assert max(scanned) == (e.n if lattice else e.n ** 2)


def lattice_reference(e, kernel, gamma):
    """The whole-array kernel expression on the exact integer lattice distances."""
    d2 = sum(np.subtract.outer(col, col) ** 2 for col in e.lattice.T)
    x = np.sqrt(d2) * (e.k0 * e.spacing)
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = -gamma * np.sin(x) / x
        if kernel == "exp":
            ref = ref + 1j * (gamma * np.cos(x) / x)
    np.fill_diagonal(ref, -gamma)
    return ref


class TestLatticeAssembly:
    """The table path: ensembles that carry their integer lattice."""

    @pytest.mark.parametrize("gamma", [1.0, 0.7])
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("name", ["fig2_sphere", "line300", "plane"])
    def test_bitwise_equal_to_whole_array_expression(self, kernel, gamma, name, request):
        e = request.getfixturevalue(name)
        ref = lattice_reference(e, kernel, gamma)
        M = build_generator(e, kernel, gamma).matrix
        assert M.dtype == DTYPES[kernel]
        assert np.array_equal(M.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("name", ["fig2_sphere", "fig4_sphere", "line300", "stiff_line",
                                      "plane"])
    def test_agrees_with_the_K_path(self, kernel, name, request):
        e = request.getfixturevalue(name)
        M = build_generator(e, kernel).matrix
        M_K = build_generator(positions_only(e), kernel).matrix
        # the K path rounds each float spacing * (i - j) on its own; the table does not
        assert np.abs(M - M_K).max() <= 1e-12 * np.abs(M_K).max()

    def test_builds_no_K(self, monkeypatch, fig4_sphere, line300):
        def no_K(self):
            raise AssertionError("K was built")

        monkeypatch.setattr(Ensemble, "K", property(no_K))
        for e in (fig4_sphere, line300, build_line(1)):
            for kernel in KERNELS:
                assert build_generator(e, kernel).n == e.n

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("name", ["fig4_sphere", "stiff_line"])
    def test_peak_memory_is_M_plus_one_block(self, kernel, name, request):
        e = request.getfixturevalue(name)
        itemsize = np.dtype(DTYPES[kernel]).itemsize
        tracemalloc.start()
        try:
            build_generator(e, kernel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # M, two int64 key blocks of max(BLOCK_KEYS, N) entries, the table with its float
        # distances, sin and cos (at most 3 span^2 + 1 entries), and numpy's ufunc buffers
        block = 2 * 8 * max(BLOCK_KEYS, e.n)
        table = (itemsize + 24) * (3 * int(np.ptp(e.lattice, axis=0).max()) ** 2 + 1)
        assert peak <= itemsize * e.n ** 2 + block + table + 2 ** 18

    def test_sparse_lattice_takes_the_K_path(self):
        # squared offsets up to about 2 * 10^6: a table far past N^2 = 9 entries
        lattice = np.array([[0, 0, 0], [1000, 1000, 0], [-3, 7, 1]])
        e = Ensemble(positions=0.01 * lattice, k0_vec=np.array([1.0, 0.0, 0.0]),
                     lattice=lattice, spacing=0.01)
        for kernel in KERNELS:
            assert kernels._lattice_matrix(e, kernel, 1.0) is None
            M = build_generator(e, kernel).matrix
            assert np.array_equal(M, build_generator(positions_only(e), kernel).matrix)
