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


@pytest.fixture(scope="module")
def fig2_sphere():
    return build_sphere_lattice(3.0, 1.0, target_count=121)


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
