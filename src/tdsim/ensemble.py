"""Atomic geometries and the pairwise phase data everything else is built from.

Positions are measured in units of 1/k0, so the dimensionless pair
quantities are K[j, i] = |k0_vec| * |r_j - r_i| (scalar separation phase)
and Kvec[j, i] = k0_vec . (r_j - r_i) (timing/propagation phase).

The line and sphere builders also record each atom's integer lattice offset
and the lattice ``spacing`` (positions = spacing * lattice, exactly), so the
generator can be assembled from the few distinct lattice distances without
building K.  A cloud given by positions alone carries neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

__all__ = [
    "Ensemble",
    "build_line",
    "build_sphere_lattice",
    "partition_sections",
]


@dataclass(frozen=True)
class Ensemble:
    """Immutable set of atom positions plus the driving wavevector.

    The pair matrices ``K`` (symmetric, zero diagonal; rebuilt on each access,
    never kept) and ``Kvec`` (antisymmetric; cached) are built on access, so
    an ensemble that never reaches a generator keeps no N x N memory.
    ``sections`` (optional) labels each atom with a contiguous-slab
    section index 0..m-1; see :func:`partition_sections`.  ``lattice`` (an
    integer (N, 3) array) and ``spacing`` are given together or not at all,
    with ``positions == spacing * lattice`` exactly.
    """

    positions: np.ndarray
    k0_vec: np.ndarray
    sections: np.ndarray | None = None
    lattice: np.ndarray | None = None
    spacing: float | None = None

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        kv = np.asarray(self.k0_vec, dtype=float).reshape(3)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must be an (N, 3) array")
        if pos.shape[0] < 1:
            raise ValueError("ensemble needs at least one atom")
        if not np.all(np.isfinite(pos)) or not np.all(np.isfinite(kv)):
            raise ValueError("positions and k0_vec must be finite")
        if math.hypot(*kv) <= 0.0:
            raise ValueError("k0_vec must have positive norm")
        with np.errstate(over="ignore", invalid="ignore"):  # 2 k0 max|r_j| bounds K and Kvec
            if not np.isfinite(2.0 * math.hypot(*kv) * np.linalg.norm(pos, axis=1).max()):
                raise ValueError("k0 |r_j - r_i| overflows; shrink k0_vec or the ensemble")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "k0_vec", kv)

        n = pos.shape[0]
        # coincident atoms end up next to each other once the rows are sorted
        ranked = pos[np.lexsort(pos.T)]
        if np.any(np.all(ranked[1:] == ranked[:-1], axis=1)):
            raise ValueError("atom positions must be pairwise distinct")

        if self.sections is not None:
            sec = np.asarray(self.sections, dtype=int)
            if sec.shape != (n,):
                raise ValueError("sections must assign one label per atom")
            labels, counts = np.unique(sec, return_counts=True)
            if labels.min() != 0 or labels.max() != len(labels) - 1:
                raise ValueError("section labels must be 0..m-1 with no gaps")
            if counts.max() - counts.min() > 1:
                raise ValueError("section sizes may differ by at most 1")
            object.__setattr__(self, "sections", sec)

        if (self.lattice is None) != (self.spacing is None):
            raise ValueError("lattice and spacing must be given together")
        if self.lattice is not None:
            lat = np.asarray(self.lattice)
            if not np.issubdtype(lat.dtype, np.integer) or lat.shape != (n, 3):
                raise ValueError("lattice must be an integer (N, 3) array, one row per atom")
            spacing = float(self.spacing)
            if not (math.isfinite(spacing) and spacing > 0):
                raise ValueError(f"spacing must be positive and finite, got {self.spacing!r}")
            lat = lat.astype(np.int64)  # a wrapped value fails the equality below
            if not np.array_equal(pos, spacing * lat):
                raise ValueError("positions must equal spacing * lattice exactly")
            object.__setattr__(self, "lattice", lat)
            object.__setattr__(self, "spacing", spacing)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def K(self) -> np.ndarray:
        # squared distances one axis at a time through one scratch buffer: no N x N x 3 array
        dist, step = np.zeros((self.n, self.n)), np.empty((self.n, self.n))
        for col in self.positions.T:
            np.subtract.outer(col, col, out=step)
            dist += np.square(step, out=step)
        np.sqrt(dist, out=dist)
        dist *= self.k0
        return dist

    @cached_property
    def Kvec(self) -> np.ndarray:
        proj = self.positions @ self.k0_vec
        # projection differences, exact antisymmetry by construction
        return proj[:, None] - proj[None, :]

    @property
    def k0(self) -> float:
        return math.hypot(*self.k0_vec)

    @property
    def n_sections(self) -> int:
        if self.sections is None:
            raise ValueError("ensemble has no section assignment")
        return int(self.sections.max()) + 1

    def section_indices(self, s: int) -> np.ndarray:
        """Atom indices belonging to section ``s`` (construction order)."""
        if self.sections is None:
            raise ValueError("ensemble has no section assignment")
        return np.nonzero(self.sections == s)[0]


def build_line(n: int, spacing: float = 1.0, k0_vec=(1.0, 0.0, 0.0)) -> Ensemble:
    """Line lattice along x: atoms at j*spacing*x_hat for j = 0..n-1."""
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing!r}")
    lattice = np.zeros((int(n), 3), dtype=np.int64)
    lattice[:, 0] = np.arange(int(n))
    return Ensemble(positions=spacing * lattice, k0_vec=np.asarray(k0_vec, dtype=float),
                    lattice=lattice, spacing=spacing)


def build_sphere_lattice(
    radius: float,
    spacing: float = 1.0,
    k0_vec=(1.0, 0.0, 0.0),
    target_count: int | None = None,
) -> Ensemble:
    """Cubic-lattice ball: points spacing*(i, j, k) with |p| <= radius.

    Atom order is frozen because the ladder states depend on it: center
    outward by |p|, ties by descending projection onto k0_vec, remaining
    ties lexicographic in (i, j, k).  If ``target_count`` is given and the
    ball holds more points, the points farthest from the origin are
    dropped first (ties dropped in lexicographic (i, j, k) order) until
    the count matches.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius!r}")
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing!r}")
    if not 2.0 * (radius + spacing) < math.sqrt(np.finfo(float).max):  # (2 reach spacing)^2 fits
        raise ValueError(f"radius {radius!r} and spacing {spacing!r} are too large: "
                         "their squared lattice distances overflow")
    reach = int(np.floor(radius / spacing)) + 1
    rng = np.arange(-reach, reach + 1)
    ii, jj, kk = np.meshgrid(rng, rng, rng, indexing="ij")
    idx = np.column_stack([ii.ravel(), jj.ravel(), kk.ravel()])
    norm2 = np.einsum("pk,pk->p", idx, idx).astype(float)
    keep = norm2 * spacing**2 <= radius**2
    idx = idx[keep]
    norm2 = norm2[keep]
    if target_count is not None:
        if target_count < 1:
            raise ValueError("target_count must be positive")
        if target_count > idx.shape[0]:
            raise ValueError(
                f"target_count {target_count} exceeds the {idx.shape[0]} "
                f"lattice points available for radius={radius}, spacing={spacing}"
            )
        # farthest first; among equal radii the lexicographically smallest (i, j, k) goes first
        order = np.lexsort((idx[:, 2], idx[:, 1], idx[:, 0], -norm2))
        kept = np.sort(order[idx.shape[0] - target_count:])  # the rest, in lattice order
        idx, norm2 = idx[kept], norm2[kept]
    kv = np.asarray(k0_vec, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # the Ensemble rejects an overflow
        proj = idx @ kv
    lattice = idx[np.lexsort((idx[:, 2], idx[:, 1], idx[:, 0], -proj, norm2))]
    return Ensemble(positions=spacing * lattice, k0_vec=kv, lattice=lattice, spacing=spacing)


def partition_sections(ensemble: Ensemble, m: int, axis=None) -> Ensemble:
    """Split the ensemble into m contiguous slabs along a projection axis.

    Atoms are ranked by their projection onto ``axis`` (default: k0_vec;
    ties broken lexicographically by coordinates) and split into m
    contiguous groups whose sizes differ by at most one, larger groups
    first.  Returns a new ensemble carrying the section labels; atom
    order, lattice and spacing are unchanged.
    """
    n = ensemble.n
    if int(m) != m or m < 1:
        raise ValueError(f"section count must be a positive integer, got {m!r}")
    if m > n:
        raise ValueError(f"cannot split {n} atoms into {m} sections")
    axis_vec = ensemble.k0_vec if axis is None else np.asarray(axis, dtype=float).reshape(3)
    if np.linalg.norm(axis_vec) <= 0:
        raise ValueError("section axis must have positive norm")
    pos = ensemble.positions
    proj = pos @ axis_vec
    order = np.lexsort((pos[:, 2], pos[:, 1], pos[:, 0], proj))
    base, extra = divmod(n, m)
    sizes = [base + 1 if s < extra else base for s in range(int(m))]
    labels = np.empty(n, dtype=int)
    labels[order] = np.repeat(np.arange(int(m)), sizes)
    return replace(ensemble, sections=labels)
