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
  access.  The kernel grid is gathered from the same kind of distance table.  A product is
  three stages of independent FFT lines.  On a grid of ``FFT_SPLIT_CELLS`` or more cells,
  with two usable CPUs, each stage runs half its lines on one helper thread (numpy.fft
  releases the GIL), with the same bits as on one thread.  On a 2-vCPU AMD EPYC VM with one
  BLAS thread, a matvec took, dense against FFT: 0.15 against 0.06 ms on a 1000-atom line,
  0.16 against 0.21 ms on fig4's sphere (a 25^3 grid, not split), 3.3 against 0.29 ms on a
  3000-atom sphere (36^3; 0.60 ms unsplit), but 0.03 against 0.08 ms on a 400-atom sphere.
  A 10 000-atom sphere (54^3) took 0.81 ms split and 2.05 ms unsplit.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import InitVar, dataclass, field

import numpy as np

from .basis import FOCK, TD, TDTransform, ladder_weights
from .ensemble import Ensemble

KERNELS = ("sine", "exp")
# keys per row block on the lattice path (two int64 blocks of scratch, cache-sized)
BLOCK_KEYS = 1 << 16
FFT_MIN_N = 1000  # lattices from this N on get the FFT operator (a dense matvec wins below)
# from this many padded grid cells on, an FFT product splits over two threads; per product,
# split products alternating with unsplit ones on a 2-vCPU AMD EPYC VM, a 25^3 grid took
# 5-8% longer split, a 30^3 one 0.64-0.70 times as long and a 54^3 one 0.47 times
FFT_SPLIT_CELLS = 20_000

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


def _kernel_table(spans, scale: float, kernel: str, gamma: float, dtype,
                  cap: int) -> tuple[list, np.ndarray | None]:
    """The kernel at each lattice distance of offsets up to ``spans`` per axis, entry 0 the
    self term -gamma, with ``scale`` = k0 * spacing; with the axes it keys: by |offset| if
    that is one axis (a line), else by |offset|^2.  None in place of a table longer than
    ``cap``."""
    axes = [a for a, span in enumerate(spans) if span > 0] or [0]
    line = len(axes) == 1
    size = (spans[axes[0]] if line else sum(span * span for span in spans)) + 1
    if size > cap:
        return axes, None
    dist = np.arange(1, size, dtype=float)  # |offset| (line) or |offset|^2, in lattice units
    if not line:
        np.sqrt(dist, out=dist)
    table = np.zeros(size, dtype=dtype)  # a sine fill leaves a complex table's imaginary part
    table[0] = -gamma
    _fill_kernel(table[1:], np.multiply(dist, scale, out=dist), kernel, gamma)
    return axes, table


def _lattice_matrix(ensemble: Ensemble, kernel: str, gamma: float) -> np.ndarray | None:
    """Kernel values gathered from a table over the lattice distances; None if it is too big."""
    n, lattice = ensemble.n, ensemble.lattice
    spans = [int(col.max()) - int(col.min()) for col in lattice.T]
    axes, table = _kernel_table(spans, ensemble.k0 * ensemble.spacing, kernel, gamma,
                                float if kernel == "sine" else complex, n * n)
    if table is None:  # no bigger than the pair matrix it replaces
        return None
    if not np.all(np.isfinite(table)):  # M is finite exactly when its table is
        raise ValueError("generator matrix must be finite")

    cols = [np.ascontiguousarray(lattice[:, a]) for a in axes]
    fold = np.abs if len(axes) == 1 else np.square
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


def _kernel_grid(grid: tuple, scale: float, kernel: str, gamma: float) -> np.ndarray:
    """The kernel over the circular offsets min(i, P - i) of a padded grid, self term -gamma:
    gathered from :func:`_kernel_table`, or evaluated on each cell where the table would
    hold more entries than the grid has cells."""
    axes, table = _kernel_table([P // 2 for P in grid], scale, kernel, gamma, complex,
                                math.prod(grid))
    power = 1 if len(axes) == 1 else 2
    d0, d1, d2 = (np.minimum(np.arange(P), P - np.arange(P)) ** power for P in grid)
    key = d0[:, None, None] + d1[:, None] + d2
    if table is not None:
        return np.take(table, key)
    x = np.sqrt(key, dtype=float)
    x *= scale
    cells = _fill_kernel(np.zeros(grid, dtype=complex), x, kernel, gamma)
    cells[0, 0, 0] = -gamma
    return cells


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_helper = None  # the process's FFT helper: one thread, started by the first split product
_helper_lock = threading.Lock()


def _fft_helper():
    """The one-thread executor that runs half of each split FFT stage."""
    global _helper
    with _helper_lock:
        if _helper is None:
            from concurrent.futures import ThreadPoolExecutor  # 2 ms, so not at import

            _helper = ThreadPoolExecutor(1, thread_name_prefix="tdsim-fft")
        return _helper


def _forget_helper():
    """A forked child has no helper thread, whatever its parent had."""
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


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
        table = _kernel_grid(grid, self.ensemble.k0 * self.ensemble.spacing, self.kernel,
                             self.gamma)
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
        """``M @ x`` for a vector or an (N, T) block of columns: three stages of independent
        FFT lines, each split over two threads on large grids (see the module docstring)."""
        (P0, P1, P2), (L0, L1, _) = self._khat.shape, self._box
        cols = np.shape(x)[1:]  # () for a vector, (T,) for a block
        box = np.zeros(self._box + cols, dtype=complex)
        box.reshape(-1, *cols)[self._cells] = x
        y = np.empty((L0, P1, P2) + cols, dtype=complex)
        columns = y.reshape(L0, P1 * P2, *cols)
        khat = self._khat.reshape(P0, P1 * P2, *(1,) * len(cols))

        def forward(s):  # per axis-0 slab: axis 2 on its L1 lines, then axis 1 out to P1
            y[s] = np.fft.fft(np.fft.fft(box[s], axis=2), n=P1, axis=1)

        def convolve(s):  # per (axis 1, axis 2) column: axis 0 out to P0 and back to L0
            z = np.fft.fft(columns[:, s], n=P0, axis=0)
            z *= khat[:, s]
            columns[:, s] = np.fft.ifft(z, axis=0)[:L0]

        def back(s):  # per axis-0 slab: axis 1 back to L1, then axis 2, into the box
            box[s] = np.fft.ifft(np.fft.ifft(y[s], axis=1)[:, :L1], axis=2)

        split = (min(L0, P1 * P2) > 1 and self._khat.size >= FFT_SPLIT_CELLS
                 and _usable_cpus() > 1)
        helper = _fft_helper() if split else None
        for stage, lines in ((forward, L0), (convolve, P1 * P2), (back, L0)):
            if split:  # the helper takes the second half of the lines, joined before the next
                half = helper.submit(stage, slice(lines // 2, None))
                try:
                    stage(slice(lines // 2))
                finally:
                    half.result()
            else:
                stage(slice(None))
        return box.reshape(-1, *cols)[self._cells]


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
