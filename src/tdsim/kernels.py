"""Effective decay generators for the single-excitation amplitude equations.

Two couplings are supported for beta_dot = M beta in the Fock basis:

* sine kernel:        M_ji = -gamma * sin(K_ji)/K_ji   (real symmetric),
* exponential kernel: M_ji = i*gamma * e^{i K_ji}/K_ji (adds collective
  Lamb shifts and the virtual, counter-rotating channel).

Both self terms are regularized to M_jj = -gamma: the sine limit is exact,
while the exponential kernel's divergent imaginary self term is the
single-atom Lamb shift, absorbed into the transition frequency.  The
Hermitian part of the exponential generator therefore equals the sine
generator entry for entry: Re[i e^{iK}/K] = -sin(K)/K.

No 1/N prefactor is applied here; the 1/N seen in the TD-basis equations
of motion comes out of the 1/sqrt(N) state normalizations.

The kernel names live in ``KERNELS``.  Kernel and gamma are checked before
any N x N work; M is float64 for sine and complex for exp.  Two assembly
paths, picked by the ensemble:

* lattice (the ensemble carries ``lattice`` and ``spacing``, as every line
  and sphere builder output does): the kernel is evaluated once per lattice
  distance, at k0 * spacing * |offset| with |offset|^2 an integer, and M is
  gathered from that table (checked finite in M's place) one row block at a
  time.  A line is keyed by |i - j| (a Toeplitz matrix), any other lattice
  by the squared offset.  No K is built; the peak is M plus one block's
  integer keys.  The exp table is built from the sine table's own ``sin``
  values, so the real part of the exp generator is the sine one bit for bit.
* ``K`` (any other cloud, or a lattice so sparse that its table would
  hold more than N^2 entries, the size of the pair matrix it replaces): the
  kernel on the whole pair matrix, assembled in place, so the peak is K plus M.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .basis import FOCK, TD, TDTransform, ladder_weights
from .ensemble import Ensemble

KERNELS = ("sine", "exp")
# keys per row block on the lattice path (two int64 blocks of scratch, cache-sized)
BLOCK_KEYS = 1 << 16

__all__ = [
    "GeneratorMatrix",
    "build_generator",
    "transform_generator",
    "assemble_td_direct",
]


def real_symmetric(matrix: np.ndarray) -> bool:
    """Whether ``matrix`` is float64 and equal to its transpose, so ``eigh`` solves it."""
    return matrix.dtype == np.float64 and np.array_equal(matrix, matrix.T)


@dataclass(frozen=True)
class GeneratorMatrix:
    """N x N generator of beta_dot = M beta with its basis tag; float64 if real."""

    matrix: np.ndarray
    basis: str
    _finite: InitVar[bool] = False  # already checked, as build_generator's matrices are

    def __post_init__(self, _finite):
        M = np.asarray(self.matrix, dtype=complex if np.iscomplexobj(self.matrix) else float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("generator matrix must be square")
        if not (_finite or np.all(np.isfinite(M))):
            raise ValueError("generator matrix must be finite")
        if self.basis not in (FOCK, TD):
            raise ValueError(f"unknown basis tag {self.basis!r}")
        object.__setattr__(self, "matrix", M)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _lattice_matrix(ensemble: Ensemble, kernel: str, gamma: float) -> np.ndarray | None:
    """Kernel values gathered from a table over the lattice distances; None if it is too big."""
    n, lattice = ensemble.n, ensemble.lattice
    spans = [int(col.max()) - int(col.min()) for col in lattice.T]
    axes = [a for a, span in enumerate(spans) if span > 0] or [0]
    line = len(axes) == 1
    size = (spans[axes[0]] if line else sum(span * span for span in spans)) + 1
    if size > n * n:  # no bigger than the pair matrix it replaces
        return None
    dist = np.arange(1, size, dtype=float)  # |offset| (line) or |offset|^2, in lattice units
    if not line:
        np.sqrt(dist, out=dist)
    x = np.multiply(dist, ensemble.k0 * ensemble.spacing, out=dist)
    table = np.empty(size, dtype=float if kernel == "sine" else complex)
    table[0] = -gamma
    np.multiply(np.sin(x), -gamma, out=table.real[1:])
    table.real[1:] /= x
    if kernel == "exp":
        np.multiply(np.cos(x), gamma, out=table.imag[1:])
        table.imag[1:] /= x
    if not np.all(np.isfinite(table)):  # M is finite exactly when its table is
        raise ValueError("generator matrix must be finite")

    cols = [np.ascontiguousarray(lattice[:, a]) for a in axes]
    fold = np.abs if line else np.square
    M = np.empty((n, n), dtype=table.dtype)
    key = np.empty((min(n, max(1, BLOCK_KEYS // n)), n), dtype=np.intp)
    step = np.empty_like(key) if len(cols) > 1 else None
    for r0 in range(0, n, key.shape[0]):
        r1 = min(r0 + key.shape[0], n)
        k = key[:r1 - r0]
        for a, col in enumerate(cols):
            out = step[:r1 - r0] if a else k
            np.subtract.outer(col[r0:r1], col, out=out)
            fold(out, out=out)
            if a:
                k += out
        np.take(table, k, out=M[r0:r1], mode="clip")  # keys < size by construction
    return M


def _kernel_matrix(ensemble: Ensemble, kernel: str, gamma: float) -> np.ndarray:
    """Fock-basis kernel values, self terms set to -gamma, checked finite."""
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel tag {kernel!r}")
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    if ensemble.lattice is not None:
        M = _lattice_matrix(ensemble, kernel, gamma)
        if M is not None:
            return M
    K = ensemble.K
    with np.errstate(divide="ignore", invalid="ignore"):
        if kernel == "sine":
            M = np.sin(K)
            M *= -gamma
        else:
            M = np.multiply(K, 1j)
            np.exp(M, out=M)
            M *= 1j * gamma
        M /= K
    np.fill_diagonal(M, -gamma)
    if not np.all(np.isfinite(M)):
        raise ValueError("generator matrix must be finite")
    return M


def build_generator(ensemble: Ensemble, kernel: str, gamma: float = 1.0) -> GeneratorMatrix:
    """Fock generator of the ``sine`` or ``exp`` kernel."""
    return GeneratorMatrix(_kernel_matrix(ensemble, kernel, gamma), FOCK, _finite=True)


def transform_generator(transform: TDTransform, generator: GeneratorMatrix) -> GeneratorMatrix:
    """Conjugate a Fock generator into the TD basis: S M S^dagger."""
    if generator.basis != FOCK:
        raise ValueError("transform_generator expects a fock-basis generator")
    if generator.n != transform.n:
        raise ValueError(
            f"dimension mismatch: transform is {transform.n}, generator is {generator.n}"
        )
    # apply(X) = X S^T: apply(M^T) = (S M)^T, and S M S^dagger = conj(apply(conj(S M)))
    SMt = transform.apply(generator.matrix.T)
    M_td = transform.apply(np.conj(SMt, out=SMt).T)
    return GeneratorMatrix(np.conj(M_td, out=M_td), TD)


def assemble_td_direct(ensemble: Ensemble, kernel: str, gamma: float = 1.0) -> GeneratorMatrix:
    """TD-basis generator assembled directly from the pair double sums.

    Element (p, q) is sum_{j,i} w^p_j w^q_i e^{-i Kvec_ji} kappa(K_ji)
    with the real ladder weights w and the timing factors e^{-i Kvec_ji}
    combined analytically, rather than conjugating the assembled Fock
    matrix.  Serves as the independent cross-check of
    :func:`transform_generator`.
    """
    kappa = _kernel_matrix(ensemble, kernel, gamma)
    timed = np.exp(-1j * ensemble.Kvec) * kappa
    W = ladder_weights(ensemble.n)
    return GeneratorMatrix(W @ timed @ W.T, TD)
