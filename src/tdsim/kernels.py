"""Effective decay generators for the single-excitation amplitude equations.

Two couplings are supported for beta_dot = M beta in the Fock basis:

* sine kernel:        M_ji = -gamma * sin(K_ji)/K_ji   (real symmetric),
* exponential kernel: M_ji = i*gamma * e^{i K_ji}/K_ji (adds collective
  Lamb shifts and the virtual, counter-rotating channel).

Both self terms are regularized to M_jj = -gamma: the sine limit is exact,
while the exponential kernel's divergent imaginary self term is the
single-atom Lamb shift, absorbed into the transition frequency.  Both
assembly paths write the kernel with one function, -gamma sin(x)/x plus
i gamma cos(x)/x for exp, so the real (= Hermitian) part of every exp
generator is the sine generator bit for bit.

No 1/N prefactor is applied here; the 1/N seen in the TD-basis equations
of motion comes out of the 1/sqrt(N) state normalizations.

The kernel names live in ``KERNELS``.  Kernel and gamma are checked before
any N x N work; M is float64 for sine and complex for exp.  Three forms,
picked by the ensemble:

* lattice (the ensemble carries ``lattice`` and ``spacing``, as every line
  and sphere builder output does): the kernel is evaluated once per lattice
  distance, at k0 * spacing * |offset| with |offset|^2 an integer, and M is
  gathered from that table (checked finite in M's place) one row block at a
  time.  A line is keyed by |i - j| (a Toeplitz matrix), any other lattice
  by the squared offset.  No K is built; the peak is M plus one block's
  integer keys.
* ``K`` (any other cloud, or a lattice so sparse that its table would
  hold more than N^2 entries, the size of the pair matrix it replaces): the
  kernel on the whole pair matrix, assembled in place, so the peak is K plus M.
* :class:`LatticeGenerator` (a lattice of N >= ``FFT_MIN_N`` atoms whose padded grid
  holds at most N^2 cells): no matrix.  M x is a zero-padded convolution over the lattice
  offsets, by a pruned FFT on a 2-3-5-smooth grid of P >= 2L - 1 cells per axis of extent
  L; ``matrix`` assembles the dense form (:func:`fock_matrix`, the first two forms) on each
  access.  A matvec, dense against FFT, took 0.30 against 0.11 ms on a 1000-atom line, 0.30
  against 0.29 ms on fig4's sphere, 3.1 against 0.9 ms on a 3000-atom sphere, but 0.03
  against 0.15 ms on a 400-atom sphere.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .basis import FOCK, TD, TDTransform, ladder_weights
from .ensemble import Ensemble

KERNELS = ("sine", "exp")
# keys per row block on the lattice path (two int64 blocks of scratch, cache-sized)
BLOCK_KEYS = 1 << 16
FFT_MIN_N = 1000  # lattices from this N on get the FFT operator (a dense matvec wins below)

__all__ = [
    "GeneratorMatrix",
    "LatticeGenerator",
    "build_generator",
    "fock_matrix",
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

    def __matmul__(self, x):
        return apply_matrix(self.matrix, x)


def apply_matrix(matrix, x):
    """``matrix @ x`` for complex ``x``, never casting a real matrix to complex (N x N)."""
    if np.iscomplexobj(matrix):
        return matrix @ x
    if x.ndim == 2:  # one real product with the block's (N, 2T) float view
        return (matrix @ np.ascontiguousarray(x).view(float)).view(complex)
    return matrix @ x.real + 1j * (matrix @ x.imag)


def _fill_kernel(out: np.ndarray, x: np.ndarray, kernel: str, gamma: float) -> np.ndarray:
    """``out`` = -gamma sin(x)/x (+ i gamma cos(x)/x for exp) in place; not finite at x = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        re = np.sin(x, out=out.real)
        re *= -gamma
        re /= x
        if kernel == "exp":
            im = np.cos(x, out=out.imag)
            im *= gamma
            im /= x
    return out


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
    _fill_kernel(table[1:], x, kernel, gamma)
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


def _check_kernel(kernel: str, gamma: float) -> None:
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel tag {kernel!r}")
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")


def fock_matrix(ensemble: Ensemble, kernel: str, gamma: float = 1.0) -> np.ndarray:
    """The dense N x N Fock generator: kernel values, self terms set to -gamma, checked
    finite; by the lattice table where it fits, else on ``K``."""
    _check_kernel(kernel, gamma)
    if ensemble.lattice is not None:
        M = _lattice_matrix(ensemble, kernel, gamma)
        if M is not None:
            return M
    K = ensemble.K
    M = _fill_kernel(np.empty(K.shape, dtype=float if kernel == "sine" else complex), K,
                     kernel, gamma)
    np.fill_diagonal(M, -gamma)
    if not np.all(np.isfinite(M)):
        raise ValueError("generator matrix must be finite")
    return M


def _fft_size(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n >= 1."""
    odd = (3 ** b * 5 ** c for b in range(n.bit_length()) for c in range(n.bit_length()))
    # each odd part m times the least power of two reaching ceil(n / m)
    return min(m << (-(-n // m) - 1).bit_length() for m in odd if m < 2 * n)


def _padded_grid(lattice: np.ndarray, cap: float = math.inf) -> tuple | None:
    """Per axis, the FFT size of a zero-padded convolution over the lattice extent L; None
    if the grid, or its unrounded 2L - 1 cells per axis, would hold more than ``cap`` cells."""
    sizes = [2 * int(extent) + 1 for extent in np.ptp(lattice, axis=0)]
    if math.prod(sizes) > cap:
        return None
    grid = tuple(_fft_size(size) for size in sizes)
    return grid if math.prod(grid) <= cap else None


@dataclass(frozen=True, eq=False)
class LatticeGenerator:
    """Fock generator of a lattice ensemble, applied by a pruned FFT convolution (see the
    module docstring); ``matrix`` assembles the dense form on each access, never kept."""

    ensemble: Ensemble
    kernel: str
    gamma: float = 1.0
    basis: str = field(default=FOCK, init=False)
    _khat: np.ndarray = field(init=False, repr=False)  # the kernel grid's transform
    _box: tuple = field(init=False, repr=False)  # (L0, L1, P2): padded on the last axis
    _cells: np.ndarray = field(init=False, repr=False)  # each atom's flat index in the box

    def __post_init__(self):
        _check_kernel(self.kernel, self.gamma)
        lattice = self.ensemble.lattice
        if lattice is None:
            raise ValueError("LatticeGenerator needs an ensemble with a lattice")
        grid = _padded_grid(lattice)
        # squared circular offsets min(i, P - i)^2, summed over the axes
        d0, d1, d2 = (np.minimum(np.arange(P), P - np.arange(P)) ** 2 for P in grid)
        x = np.sqrt(d0[:, None, None] + d1[:, None] + d2, dtype=float)
        x *= self.ensemble.k0 * self.ensemble.spacing
        table = _fill_kernel(np.zeros(grid, dtype=complex), x, self.kernel, self.gamma)
        table[0, 0, 0] = -self.gamma
        with np.errstate(over="ignore", invalid="ignore"):  # a nonfinite khat raises below
            khat = np.fft.fftn(table)
        if not np.all(np.isfinite(khat)):
            raise ValueError("generator matrix must be finite")
        box = (*(int(extent) + 1 for extent in np.ptp(lattice[:, :2], axis=0)), grid[2])
        cells = np.ravel_multi_index(tuple((lattice - lattice.min(axis=0)).T), box)
        object.__setattr__(self, "_khat", khat)
        object.__setattr__(self, "_box", box)
        object.__setattr__(self, "_cells", cells)

    @property
    def n(self) -> int:
        return self.ensemble.n

    @property
    def matrix(self) -> np.ndarray:
        return fock_matrix(self.ensemble, self.kernel, self.gamma)

    def __matmul__(self, x):
        """``M @ x`` for a vector or an (N, T) block of columns."""
        (P0, P1, _), (L0, L1, _) = self._khat.shape, self._box
        cols = np.shape(x)[1:]  # () for a vector, (T,) for a block
        box = np.zeros(self._box + cols, dtype=complex)
        box.reshape(-1, *cols)[self._cells] = x
        # forward over the occupied lines only: axis 2 on L0 L1 lines, then axis 1 on L0 P2
        y = np.fft.fft(np.fft.fft(np.fft.fft(box, axis=2), n=P1, axis=1), n=P0, axis=0)
        y *= self._khat.reshape(self._khat.shape + (1,) * len(cols))
        # and back, keeping the box's rows of each axis before the next
        y = np.fft.ifft(np.fft.ifft(y, axis=0)[:L0], axis=1)[:, :L1]
        return np.fft.ifft(y, axis=2).reshape(-1, *cols)[self._cells]


def build_generator(ensemble: Ensemble, kernel: str,
                    gamma: float = 1.0) -> GeneratorMatrix | LatticeGenerator:
    """Fock generator of the ``sine`` or ``exp`` kernel: a :class:`LatticeGenerator` for a
    lattice of N >= ``FFT_MIN_N`` atoms whose padded grid holds at most N^2 cells, else the
    dense :class:`GeneratorMatrix`."""
    n, lattice = ensemble.n, ensemble.lattice
    if n >= FFT_MIN_N and lattice is not None and _padded_grid(lattice, n * n) is not None:
        return LatticeGenerator(ensemble, kernel, gamma)
    return GeneratorMatrix(fock_matrix(ensemble, kernel, gamma), FOCK, _finite=True)


def transform_generator(transform: TDTransform,
                        generator: GeneratorMatrix | LatticeGenerator) -> GeneratorMatrix:
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
    kappa = fock_matrix(ensemble, kernel, gamma)
    timed = np.exp(-1j * ensemble.Kvec) * kappa
    W = ladder_weights(ensemble.n)
    return GeneratorMatrix(W @ timed @ W.T, TD)
