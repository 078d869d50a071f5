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

The kernel names live in ``KERNELS``.  Kernel and gamma are checked before K
is built; M is assembled in place, float64 for sine and complex for exp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import FOCK, TD, TDTransform, ladder_weights
from .ensemble import Ensemble

KERNELS = ("sine", "exp")

__all__ = [
    "GeneratorMatrix",
    "build_generator",
    "transform_generator",
    "assemble_td_direct",
]


def generator_array(matrix) -> np.ndarray:
    """``matrix`` as a float64 array if it is real, else as a complex one."""
    return np.asarray(matrix, dtype=complex if np.iscomplexobj(matrix) else float)


def real_symmetric(matrix: np.ndarray) -> bool:
    """Whether ``matrix`` is float64 and equal to its transpose, so ``eigh`` solves it."""
    return matrix.dtype == np.float64 and np.array_equal(matrix, matrix.T)


@dataclass(frozen=True)
class GeneratorMatrix:
    """N x N generator of beta_dot = M beta with its basis tag; float64 if real."""

    matrix: np.ndarray
    basis: str

    def __post_init__(self):
        M = generator_array(self.matrix)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("generator matrix must be square")
        if not np.all(np.isfinite(M)):
            raise ValueError("generator matrix must be finite")
        if self.basis not in (FOCK, TD):
            raise ValueError(f"unknown basis tag {self.basis!r}")
        object.__setattr__(self, "matrix", M)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _kernel_matrix(ensemble: Ensemble, kernel: str, gamma: float) -> np.ndarray:
    """Fock-basis kernel values on the K matrix, self terms set to -gamma."""
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel tag {kernel!r}")
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
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
    return M


def build_generator(ensemble: Ensemble, kernel: str, gamma: float = 1.0) -> GeneratorMatrix:
    """Fock generator of the ``sine`` or ``exp`` kernel."""
    return GeneratorMatrix(_kernel_matrix(ensemble, kernel, gamma), FOCK)


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
