import numpy as np
import pytest

from tdsim import (
    build_line,
    build_generator,
    build_sphere_lattice,
    build_transform,
    ladder_state,
    partition_sections,
    plus_state,
    section_state,
    to_fock,
    to_td,
    transform_generator,
)
from tdsim.basis import AmplitudeState
from tdsim.kernels import GeneratorMatrix


@pytest.fixture(scope="module")
def sphere123():
    return build_sphere_lattice(3.0, 1.0)


class TestPlusState:
    def test_single_atom(self):
        st = plus_state(build_line(1))
        np.testing.assert_allclose(st.amplitudes, [1.0])

    def test_two_atoms(self):
        d = 0.7
        st = plus_state(build_line(2, spacing=d))
        expect = np.array([1.0, np.exp(1j * d)]) / np.sqrt(2)
        np.testing.assert_allclose(st.amplitudes, expect, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 17, 123])
    def test_unit_norm(self, n):
        st = plus_state(build_line(n, spacing=0.6))
        assert abs(st.norm() - 1.0) < 1e-12


class TestLadderState:
    def test_two_atom_minus(self):
        d = 0.7
        st = ladder_state(build_line(2, spacing=d), 2)
        expect = np.array([1.0, -np.exp(1j * d)]) / np.sqrt(2)
        np.testing.assert_allclose(st.amplitudes, expect, atol=1e-15)

    def test_unit_norm_direct_sum(self):
        # oracle: (m-1)*1 + (m-1)^2 coefficient weights over m(m-1)
        e = build_line(9, spacing=1.3)
        for m in range(2, 10):
            st = ladder_state(e, m)
            norm2 = sum(abs(a) ** 2 for a in st.amplitudes)
            assert abs(norm2 - 1.0) < 1e-12
            expect = ((m - 1) + (m - 1) ** 2) / (m * (m - 1))
            assert abs(norm2 - expect) < 1e-12

    def test_orthogonality_direct_inner_product(self):
        e = build_line(6, spacing=0.9)
        s2 = ladder_state(e, 2)
        s3 = ladder_state(e, 3)
        assert abs(np.vdot(s2.amplitudes, s3.amplitudes)) < 1e-14

    def test_support_limited_to_first_m(self):
        e = build_line(8)
        st = ladder_state(e, 4)
        assert np.all(st.amplitudes[4:] == 0)

    def test_range_errors(self):
        e = build_line(3)
        for m in (1, 0, 4):
            with pytest.raises(ValueError):
                ladder_state(e, m)


class TestSectionState:
    def test_singleton_sections_equal_ladder(self):
        e = partition_sections(build_line(2, spacing=0.8), 2)
        np.testing.assert_array_equal(
            section_state(e, 2).amplitudes, ladder_state(e, 2).amplitudes
        )

    def test_two_equal_sections_norm(self):
        e = partition_sections(build_line(10, spacing=1.1), 2)
        assert abs(section_state(e, 2).norm() - 1.0) < 1e-12

    def test_three_section_weights(self):
        e = partition_sections(build_line(6, spacing=1.0), 3)
        st = section_state(e, 3)
        # per-block weights (1, 1, -2)/sqrt(6) on the section-symmetric states
        w = np.array([1.0, 1.0, -2.0]) / np.sqrt(6)
        for s in range(3):
            members = np.nonzero(e.sections == s)[0]
            phases = np.exp(1j * e.positions[members] @ e.k0_vec)
            expect = w[s] * phases / np.sqrt(members.size)
            np.testing.assert_allclose(st.amplitudes[members], expect, atol=1e-15)

    def test_two_section_difference_form(self):
        e = partition_sections(build_line(8, spacing=0.9), 2)
        st = section_state(e, 2)
        phases = np.exp(1j * e.positions @ e.k0_vec)
        plus_a = np.where(e.sections == 0, phases, 0) / 2.0
        plus_b = np.where(e.sections == 1, phases, 0) / 2.0
        np.testing.assert_allclose(
            st.amplitudes, (plus_a - plus_b) / np.sqrt(2), atol=1e-15
        )

    def test_missing_sections(self):
        with pytest.raises(ValueError, match="section"):
            section_state(build_line(4), 2)

    def test_index_out_of_range(self):
        e = partition_sections(build_line(6), 2)
        with pytest.raises(ValueError):
            section_state(e, 3)


class TestTransform:
    def test_single_atom(self):
        S = build_transform(build_line(1)).S
        np.testing.assert_allclose(S, [[1.0]])

    def test_two_atom_matrix(self):
        d = 0.7
        S = build_transform(build_line(2, spacing=d)).S
        ph = np.exp(-1j * d)
        expect = np.array([[1.0, ph], [1.0, -ph]]) / np.sqrt(2)
        np.testing.assert_allclose(S, expect, atol=1e-15)

    def test_rows_are_conjugated_states(self, sphere123):
        S = build_transform(sphere123).S
        np.testing.assert_allclose(S[0], np.conj(plus_state(sphere123).amplitudes),
                                   atol=1e-15)
        np.testing.assert_allclose(S[4], np.conj(ladder_state(sphere123, 5).amplitudes),
                                   atol=1e-15)

    def test_unitarity_sphere(self, sphere123):
        S = build_transform(sphere123).S
        gram = S @ S.conj().T
        assert np.abs(gram - np.eye(sphere123.n)).max() < 1e-12

    def test_pairwise_orthonormality_small(self):
        e = build_line(12, spacing=0.8)
        states = [plus_state(e)] + [ladder_state(e, m) for m in range(2, 13)]
        for p in range(12):
            for q in range(12):
                ip = np.vdot(states[p].amplitudes, states[q].amplitudes)
                assert abs(ip - (1.0 if p == q else 0.0)) < 1e-12


class TestTransformGenerator:
    def test_identity_commutes(self):
        e = build_line(5, spacing=0.9)
        S = build_transform(e)
        gamma = 1.3
        M = GeneratorMatrix(-gamma * np.eye(5), "fock", "sine")
        td = transform_generator(S, M)
        np.testing.assert_allclose(td.matrix, -gamma * np.eye(5), atol=1e-14)
        assert td.basis == "td"

    def test_two_atom_analytic(self):
        # K = pi/2 along k0: sinc = 2/pi, TD off-diagonal -/+ is -2i*gamma/pi
        e = build_line(2, spacing=np.pi / 2)
        td = transform_generator(build_transform(e), build_generator(e, "sine"))
        np.testing.assert_allclose(td.matrix[1, 0], -2j / np.pi, atol=1e-14)
        np.testing.assert_allclose(td.matrix[0, 0], -1.0 - 0j, atol=1e-14)

    def test_eigenvalues_preserved(self, sphere123):
        M = build_generator(sphere123, "sine")
        td = transform_generator(build_transform(sphere123), M)
        ev_f = np.sort_complex(np.linalg.eigvals(M.matrix))
        ev_t = np.sort_complex(np.linalg.eigvals(td.matrix))
        assert np.abs(ev_f - ev_t).max() < 1e-8

    def test_trace_preserved(self, sphere123):
        M = build_generator(sphere123, "sine")
        td = transform_generator(build_transform(sphere123), M)
        assert abs(np.trace(M.matrix) - np.trace(td.matrix)) < 1e-10

    def test_dimension_mismatch(self):
        S = build_transform(build_line(3))
        M = build_generator(build_line(4), "sine")
        with pytest.raises(ValueError, match="mismatch"):
            transform_generator(S, M)


class TestVectorTransforms:
    def test_plus_maps_to_first_unit_vector(self, sphere123):
        S = build_transform(sphere123)
        td = to_td(S, plus_state(sphere123))
        expect = np.zeros(sphere123.n)
        expect[0] = 1.0
        np.testing.assert_allclose(td.amplitudes, expect, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 60, 123])
    def test_ladder_maps_to_unit_vector(self, sphere123, m):
        S = build_transform(sphere123)
        td = to_td(S, ladder_state(sphere123, m))
        assert abs(td.amplitudes[m - 1] - 1.0) < 1e-12
        off = np.delete(np.abs(td.amplitudes), m - 1)
        assert off.max() < 1e-12

    def test_round_trip_random(self, sphere123):
        S = build_transform(sphere123)
        rng = np.random.default_rng(7)
        for _ in range(5):
            v = rng.normal(size=sphere123.n) + 1j * rng.normal(size=sphere123.n)
            v /= np.linalg.norm(v)
            back = to_fock(S, to_td(S, AmplitudeState(v, "fock")))
            assert np.abs(back.amplitudes - v).max() < 1e-12

    def test_basis_tag_checks(self):
        e = build_line(3)
        S = build_transform(e)
        st = plus_state(e)
        with pytest.raises(ValueError, match="fock"):
            to_td(S, to_td(S, st))
        with pytest.raises(ValueError, match="td"):
            to_fock(S, st)

    def test_dimension_check(self):
        S = build_transform(build_line(3))
        with pytest.raises(ValueError, match="mismatch"):
            to_td(S, plus_state(build_line(4)))
