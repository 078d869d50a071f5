import numpy as np
import pytest

from tdsim import Ensemble, build_line, build_sphere_lattice, partition_sections
from tdsim.cli import parse_config, simulate


def brute_force_ball_points(radius, spacing):
    """Independent enumeration of lattice points with |spacing*(i,j,k)| <= radius."""
    reach = int(np.floor(radius / spacing)) + 1
    pts = []
    for i in range(-reach, reach + 1):
        for j in range(-reach, reach + 1):
            for k in range(-reach, reach + 1):
                if (i * i + j * j + k * k) * spacing**2 <= radius**2:
                    pts.append((i, j, k))
    return pts


class TestBuildLine:
    def test_two_atoms(self):
        e = build_line(2, spacing=1.0, k0_vec=(1, 0, 0))
        np.testing.assert_array_equal(e.positions, [[0, 0, 0], [1, 0, 0]])

    def test_hundred_atoms_extent(self):
        e = build_line(100, spacing=1.0)
        assert e.n == 100
        assert e.K.max() == 99.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_line(0)
        with pytest.raises(ValueError):
            build_line(5, spacing=0.0)
        with pytest.raises(ValueError):
            build_line(5, spacing=-1.0)
        with pytest.raises(ValueError):
            build_line(5, k0_vec=(0, 0, 0))


class TestPairGeometry:
    def test_k_symmetric_zero_diagonal(self):
        e = build_sphere_lattice(2.0)
        assert np.array_equal(e.K, e.K.T)
        assert np.all(np.diag(e.K) == 0.0)

    def test_kvec_antisymmetric(self):
        e = build_sphere_lattice(2.0, k0_vec=(0.3, -1.2, 0.4))
        assert np.array_equal(e.Kvec, -e.Kvec.T)

    @pytest.mark.parametrize("spacing", [1.0, 0.5, 2.0])
    def test_line_pair_values_exact(self, spacing):
        n = 7
        e = build_line(n, spacing=spacing)
        j = np.arange(n)
        expect_K = np.abs(j[:, None] - j[None, :]) * spacing
        expect_Kvec = (j[:, None] - j[None, :]) * spacing
        assert np.array_equal(e.K, expect_K)
        assert np.array_equal(e.Kvec, expect_Kvec)

    def test_pair_values_match_a_loop_reference(self):
        e = build_sphere_lattice(2.0, 0.8, k0_vec=(0.3, -1.2, 0.4))
        k0 = np.linalg.norm(e.k0_vec)
        K, Kvec = e.K, e.Kvec  # K is rebuilt on every access
        for j, rj in enumerate(e.positions):
            for i, ri in enumerate(e.positions):
                assert abs(K[j, i] - k0 * np.linalg.norm(rj - ri)) <= 1e-12 * max(1.0, K[j, i])
                assert abs(Kvec[j, i] - e.k0_vec @ (rj - ri)) <= 1e-12 * max(1.0, K[j, i])

    def test_k0_scale_enters_K(self):
        e = build_line(3, spacing=1.0, k0_vec=(2.0, 0, 0))
        assert e.k0 == 2.0
        assert e.K[0, 1] == 2.0

    def test_duplicate_positions_rejected(self):
        for positions in (
            np.zeros((2, 3)),
            # the coincident pair is not adjacent in input order
            [[1.0, 2.0, 3.0], [0.0, 5.0, 0.0], [4.0, 0.0, 1.0], [1.0, 2.0, 3.0]],
            # -0.0 and 0.0 are the same coordinate
            [[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [-0.0, 1.0, -0.0]],
        ):
            with pytest.raises(ValueError, match="distinct"):
                Ensemble(positions=np.asarray(positions), k0_vec=np.array([1.0, 0, 0]))

    def test_partition_keeps_the_pair_matrix(self):
        e = build_sphere_lattice(3.0, 1.0, k0_vec=(0.3, -1.2, 0.4), target_count=100)
        parted = partition_sections(e, 3, axis=(0.0, 0.0, 1.0))
        assert parted.K.tobytes() == e.K.tobytes()  # bitwise, not just to rounding

    def test_simulate_keeps_no_pair_matrix(self):
        [(_, config)] = parse_config({"geometry": "sphere", "radius": "2.0", "t_max": "0.1"})
        result = simulate(config)
        assert result.ensemble.n == 33
        assert "K" not in vars(result.ensemble)


class TestLatticeFields:
    @pytest.mark.parametrize("e", [build_line(7, spacing=0.37),
                                   build_sphere_lattice(3.0, 0.8, target_count=60)])
    def test_builders_record_lattice_and_spacing(self, e):
        assert e.lattice.dtype == np.int64 and e.lattice.shape == (e.n, 3)
        assert np.array_equal(e.positions, e.spacing * e.lattice)

    def test_positions_alone_carry_no_lattice(self):
        e = Ensemble(positions=np.eye(3), k0_vec=np.array([1.0, 0.0, 0.0]))
        assert e.lattice is None and e.spacing is None

    def test_partition_keeps_lattice_and_spacing(self):
        e = build_sphere_lattice(3.0, 0.8, target_count=60)
        parted = partition_sections(e, 3)
        assert parted.spacing == e.spacing
        assert np.array_equal(parted.lattice, e.lattice)

    @pytest.mark.parametrize("fields, message", [
        (dict(lattice=np.eye(3, dtype=int)), "given together"),
        (dict(spacing=0.5), "given together"),
        (dict(lattice=np.eye(3), spacing=0.5), "integer"),
        (dict(lattice=np.eye(3, dtype=int)[:2], spacing=0.5), r"\(N, 3\)"),
        (dict(lattice=np.eye(3, dtype=int).ravel(), spacing=0.5), r"\(N, 3\)"),
        (dict(lattice=np.eye(3, dtype=int), spacing=0.0), "positive and finite"),
        (dict(lattice=np.eye(3, dtype=int), spacing=-0.5), "positive and finite"),
        (dict(lattice=np.eye(3, dtype=int), spacing=np.inf), "positive and finite"),
        (dict(lattice=np.eye(3, dtype=int), spacing=np.nan), "positive and finite"),
        (dict(lattice=np.eye(3, dtype=int), spacing=0.25), "exactly"),
        (dict(lattice=np.eye(3, dtype=np.uint64) * (2**64 - 1), spacing=0.5), "exactly"),
    ])
    def test_bad_lattice_fields_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            Ensemble(positions=0.5 * np.eye(3), k0_vec=np.array([1.0, 0.0, 0.0]), **fields)

    def test_nearly_equal_positions_rejected(self):
        lattice = np.array([[0, 0, 0], [1, 0, 0]])
        pos = 0.1 * lattice.astype(float)
        pos[1, 0] = np.nextafter(pos[1, 0], 1.0)
        with pytest.raises(ValueError, match="exactly"):
            Ensemble(positions=pos, k0_vec=np.array([1.0, 0.0, 0.0]), lattice=lattice,
                     spacing=0.1)


class TestSphereLattice:
    def test_radius_three_count(self):
        e = build_sphere_lattice(3.0, 1.0)
        assert e.n == 123
        assert e.n == len(brute_force_ball_points(3.0, 1.0))

    @pytest.mark.parametrize("radius", range(1, 11))
    def test_counts_match_brute_force(self, radius):
        e = build_sphere_lattice(float(radius), 1.0)
        assert e.n == len(brute_force_ball_points(float(radius), 1.0))

    def test_point_sets_match_brute_force(self):
        e = build_sphere_lattice(3.0, 1.0)
        expect = sorted(brute_force_ball_points(3.0, 1.0))
        got = sorted(tuple(int(round(c)) for c in p) for p in e.positions)
        assert got == expect

    def test_frozen_atom_order(self):
        # center outward, ties by descending k0 projection, then lexicographic
        e = build_sphere_lattice(2.0, 1.0)
        pts = [tuple(p) for p in e.positions]
        keys = [(p[0] ** 2 + p[1] ** 2 + p[2] ** 2, -p[0], p[0], p[1], p[2])
                for p in pts]
        assert keys == sorted(keys)
        assert pts[0] == (0.0, 0.0, 0.0)
        assert pts[1] == (1.0, 0.0, 0.0)

    def test_trim_to_121(self):
        e = build_sphere_lattice(3.0, 1.0, target_count=121)
        assert e.n == 121
        # only boundary points (|p| = 3) may be dropped, lexicographically
        # smallest first: (-3,0,0) then (-2,-2,-1)
        kept = {tuple(int(round(c)) for c in p) for p in e.positions}
        assert (-3, 0, 0) not in kept
        assert (-2, -2, -1) not in kept
        assert (3, 0, 0) in kept

    def test_trim_deterministic(self):
        a = build_sphere_lattice(3.0, 1.0, target_count=121)
        b = build_sphere_lattice(3.0, 1.0, target_count=121)
        assert np.array_equal(a.positions, b.positions)

    def test_single_atom(self):
        e = build_sphere_lattice(0.5, 1.0)
        assert e.n == 1
        np.testing.assert_array_equal(e.positions, [[0.0, 0.0, 0.0]])

    def test_infeasible_target(self):
        with pytest.raises(ValueError, match="target_count"):
            build_sphere_lattice(3.0, 1.0, target_count=124)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_sphere_lattice(0.0)
        with pytest.raises(ValueError):
            build_sphere_lattice(3.0, spacing=-1.0)


class TestPartitionSections:
    def test_line_halves(self):
        e = partition_sections(build_line(4), 2)
        np.testing.assert_array_equal(e.sections, [0, 0, 1, 1])

    def test_thousand_into_three(self):
        e = partition_sections(build_line(1000, spacing=0.1), 3)
        counts = np.bincount(e.sections)
        np.testing.assert_array_equal(counts, [334, 333, 333])

    def test_two_atoms_two_sections(self):
        e = partition_sections(build_line(2), 2)
        np.testing.assert_array_equal(e.sections, [0, 1])

    def test_contiguous_along_k0(self):
        e = partition_sections(build_sphere_lattice(3.0, 1.0, target_count=121), 2)
        proj = e.positions @ e.k0_vec
        assert proj[e.sections == 0].max() <= proj[e.sections == 1].min()

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_sizes_differ_by_at_most_one(self, m):
        e = partition_sections(build_sphere_lattice(2.0, 1.0), m)
        counts = np.bincount(e.sections)
        assert counts.size == m
        assert counts.max() - counts.min() <= 1

    def test_explicit_axis(self):
        e = build_sphere_lattice(2.0, 1.0)
        along_z = partition_sections(e, 2, axis=(0, 0, 1))
        z = e.positions[:, 2]
        assert z[along_z.sections == 0].max() <= z[along_z.sections == 1].min()
        default = partition_sections(e, 2)
        assert not np.array_equal(default.sections, along_z.sections)

    def test_axis_defaults_to_k0(self):
        e = build_line(6, spacing=0.5)
        np.testing.assert_array_equal(
            partition_sections(e, 3).sections,
            partition_sections(e, 3, axis=(1, 0, 0)).sections,
        )

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            partition_sections(build_line(4), 2, axis=(0, 0, 0))

    def test_too_many_sections(self):
        with pytest.raises(ValueError):
            partition_sections(build_line(3), 4)

    def test_original_unchanged(self):
        e = build_line(4)
        partition_sections(e, 2)
        assert e.sections is None
