"""Propagators for beta_dot = M beta with a time-independent generator.

:func:`step_indices` owns the time-grid rule (``t_max`` a multiple of ``dt``).
:func:`propagate` is a run's one entry point: it holds the ``auto`` rule
(eigen where one Krylov basis would span the whole space, N <= ``KRYLOV_MAX_DIM``,
Krylov above) and passes the time grid to one of two routes, each held to
``KRYLOV_TOL`` or raising:

* :func:`eigen_solve`      -- spectral solution sum_i c_i V_i e^{l_i t} (eigh if real symmetric);
* :func:`krylov_propagate` -- Arnoldi bases checked by Saad's error estimate.

Two references only cross-check them, and no run goes through either:

* :func:`rk4_propagate`    -- classical fixed-step Runge-Kutta 4 (default dt = 0.01 / gamma);
* :func:`oracle_expm`      -- scaling-and-squaring matrix exponential, truncated-series core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import FOCK, AmplitudeState
from .kernels import GeneratorMatrix, real_symmetric

__all__ = [
    "Trajectory",
    "EigenSolution",
    "propagate",
    "DegenerateSpectrumError",
    "rk4_propagate",
    "krylov_propagate",
    "eigen_decompose",
    "eigen_solve",
    "oracle_expm",
    "step_indices",
]

SOLVERS = ("auto", "eigen", "krylov")
# bound on each Krylov row's error estimate, relative to |beta(0)|, and on cond(V) eps
# for every eigenvector basis a state is rebuilt from (eig's and Krylov's alike)
KRYLOV_TOL = 1e-10
KRYLOV_MAX_DIM = 160  # Arnoldi vectors in one basis; past it the basis restarts
# (solver "auto" takes eigen up to this N, where one basis could hold the whole space)
_KRYLOV_CHECK = 8  # vectors added between error estimates
MAX_TIME_ROWS = 10**7  # kept rows of one time grid, counted before it is built


class DegenerateSpectrumError(RuntimeError):
    """Raised when the eigenbasis is too ill-conditioned to solve with."""


@dataclass(frozen=True)
class Trajectory:
    """Time grid plus amplitude snapshots, row t -> beta(t)."""

    times: np.ndarray
    amplitudes: np.ndarray
    basis: str
    solver: str = "unknown"

    def __post_init__(self):
        t = _time_grid(self.times)
        a = np.asarray(self.amplitudes, dtype=complex)
        if np.ndim(self.times) != 1 or a.ndim != 2 or a.shape[0] != t.shape[0]:
            raise ValueError("times and amplitude snapshots must align")
        if not np.all(np.isfinite(a)):
            raise ValueError("trajectory snapshots must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "amplitudes", a)

    @property
    def n(self) -> int:
        return self.amplitudes.shape[1]

    def state(self, i: int) -> AmplitudeState:
        return AmplitudeState(self.amplitudes[i], self.basis)


@dataclass(frozen=True)
class EigenSolution:
    """Spectral data of a generator plus the initial-condition coefficients."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    coefficients: np.ndarray


def _resolve(generator, state0):
    """Matrix, amplitudes and basis of a run.  A raw array is wrapped in its type, which
    checks it, under the other input's basis tag (``fock`` if neither has one); what
    no single type can check, that the two agree in basis and dimension, is checked here."""
    if not isinstance(generator, GeneratorMatrix):
        generator = GeneratorMatrix(generator, getattr(state0, "basis", FOCK))
    if not isinstance(state0, AmplitudeState):
        state0 = AmplitudeState(state0, generator.basis)
    if generator.basis != state0.basis:
        raise ValueError(
            f"basis mismatch: generator is {generator.basis!r}, state is {state0.basis!r}"
        )
    if generator.n != state0.n:
        raise ValueError(
            f"dimension mismatch: generator is {generator.n}, state is {state0.n}"
        )
    return generator.matrix, state0.amplitudes, generator.basis


def _check_conditioned(V) -> None:
    """Raise unless cond(V) eps <= ``KRYLOV_TOL``: a state rebuilt from the columns of V
    carries a rounding error that grows with cond(V) (Moler & Van Loan, SIAM Rev. 45, 2003)."""
    cond = np.linalg.cond(V)
    if not cond * np.finfo(float).eps <= KRYLOV_TOL:
        raise DegenerateSpectrumError(
            f"eigenvector condition number {cond:.3e} times eps exceeds KRYLOV_TOL = "
            f"{KRYLOV_TOL:.0e}")


def _apply(matrix, x):
    """``matrix @ x`` for complex ``x``, never casting a real matrix to complex (N x N)."""
    if np.iscomplexobj(matrix):
        return matrix @ x
    if x.ndim == 2:  # one real product with the block's (N, 2T) float view
        return (matrix @ np.ascontiguousarray(x).view(float)).view(complex)
    return matrix @ x.real + 1j * (matrix @ x.imag)


def _time_grid(times) -> np.ndarray:
    t = np.asarray(times, dtype=float).reshape(-1)
    if t.size < 1 or t[0] != 0.0 or (t.size > 1 and np.any(np.diff(t) <= 0)):
        raise ValueError("times must be strictly increasing and start at 0")
    return t


def step_indices(dt: float, t_max: float, stride: int = 1) -> np.ndarray:
    """Every ``stride``-th step index of a ``dt`` grid plus the last, which
    lands on ``t_max``: that must be an integer multiple of ``dt`` (1e-9 rel)."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not 0 <= t_max < math.inf:
        raise ValueError(f"t_max must be nonnegative and finite, got {t_max!r}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride!r}")
    steps = t_max / dt
    if steps / stride + 1 > MAX_TIME_ROWS:  # counted, not built
        raise ValueError(f"time grid keeps {steps / stride + 1:.4g} rows > {MAX_TIME_ROWS:.0e}")
    n_steps = round(steps)
    if not math.isclose(steps, n_steps, rel_tol=1e-9):
        raise ValueError(f"t_max = {t_max!r} is not an integer multiple of dt = {dt!r}")
    return np.unique(np.append(np.arange(0, n_steps + 1, stride), n_steps))


def propagate(generator, state0, dt: float = 0.01, t_max: float = 10.0,
              stride: int = 1, solver: str = "auto") -> Trajectory:
    """beta(t) every ``stride`` steps of ``dt`` up to ``t_max`` by ``solver``
    (one of ``SOLVERS``); the trajectory's ``solver`` names the method."""
    if solver not in SOLVERS:
        raise ValueError(f"solver must be one of {list(SOLVERS)}, got {solver!r}")
    if solver == "auto":
        n = np.shape(getattr(generator, "matrix", generator))[0]
        solver = "eigen" if n <= KRYLOV_MAX_DIM else "krylov"
    solve = eigen_solve if solver == "eigen" else krylov_propagate
    return solve(generator, state0, step_indices(dt, t_max, stride) * dt)


def rk4_propagate(generator, state0, dt: float = 0.01, t_max: float = 10.0,
                  stride: int = 1) -> Trajectory:
    """Fixed-step RK4 integration, snapshots every ``stride`` steps."""
    matrix, beta0, basis = _resolve(generator, state0)
    keep = step_indices(dt, t_max, stride)
    out = np.empty((keep.size, beta0.size), dtype=complex)
    out[0] = beta = beta0
    for row in range(1, keep.size):
        for _ in range(keep[row] - keep[row - 1]):  # one classical RK4 step each
            k1 = _apply(matrix, beta)
            k2 = _apply(matrix, beta + 0.5 * dt * k1)
            k3 = _apply(matrix, beta + 0.5 * dt * k2)
            k4 = _apply(matrix, beta + dt * k3)
            beta = beta + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[row] = beta
    return Trajectory(times=keep * dt, amplitudes=out, basis=basis, solver="rk4")


def krylov_propagate(generator, state0, times) -> Trajectory:
    """beta(t) = e^{Mt} beta(0) on a time grid from Arnoldi bases (two Gram-Schmidt
    passes) of at most ``KRYLOV_MAX_DIM`` vectors.  A basis of beta(t0) serves the times
    after t0 (halvings of the first interval, then the grid) up to the first whose a
    posteriori error estimate (Saad 1992) exceeds ``KRYLOV_TOL`` |beta(0)|; it writes
    the grid rows among them and the next basis restarts from the last (as in Expokit)."""
    matrix, beta, basis = _resolve(generator, state0)
    t = _time_grid(times)
    out = np.empty((t.size, beta.size), dtype=complex)
    out[0] = beta
    tol = KRYLOV_TOL * np.linalg.norm(beta)
    dim = min(KRYLOV_MAX_DIM, beta.size)
    V = np.empty((dim + 1, beta.size), dtype=complex)  # rows: the orthonormal basis
    H = np.empty((dim + 1, dim), dtype=complex)
    halvings = 0.5 ** np.arange(52, 0, -1)  # internal times, in units of the first interval
    row, t0 = 1, 0.0
    while row < t.size:
        taus = np.append(halvings * (t[row] - t0), t[row:] - t0)
        scale = np.linalg.norm(beta) or 1.0  # a zero state spans a zero basis
        V[0], H[:] = beta / scale, 0
        for m in range(1, dim + 1):
            w = _apply(matrix, V[m - 1])
            for _ in range(2):
                h = (V[:m] @ w.conj()).conj()
                w -= h @ V[:m]
                H[:m, m - 1] += h
            H[m, m - 1] = residual = np.linalg.norm(w)
            if m % _KRYLOV_CHECK == 0 or m == dim or residual == 0:
                mu, W = np.linalg.eig(H[:m, :m])
                c = np.linalg.solve(W, scale * np.eye(m, 1)[:, 0])
                E = c[:, None] * np.exp(np.outer(mu, taus))  # e^{H tau_i} scale e_1 = W E[:, i]
                ok = residual * np.abs(W[-1] @ E) <= tol
                if ok.all() or m == dim:
                    break
            V[m] = w / residual
        kept = np.append(ok, False).argmin()  # the times before the first that fails
        if not kept:
            raise DegenerateSpectrumError(
                f"no Krylov step from t = {t0!r} meets its error bound, KRYLOV_TOL = "
                f"{KRYLOV_TOL:.0e} times |beta(0)|")
        _check_conditioned(W)  # the rounding error of W E, which the estimate omits
        B = W.T @ V[:m]  # the state at t0 + tau_i is E[:, i] @ B
        rows = max(kept - halvings.size, 0)
        np.matmul(E[:, kept - rows:kept].T, B, out=out[row:row + rows])
        t0, beta = t0 + taus[kept - 1], E[:, kept - 1] @ B
        row += rows
    return Trajectory(times=t, amplitudes=out, basis=basis, solver="krylov")


def eigen_decompose(generator, state0) -> EigenSolution:
    """Eigenpairs with coefficients V c = beta(0); ``eigh`` (V orthogonal) if real symmetric,
    else ``eig`` with V held to the conditioning rule of :func:`_check_conditioned`."""
    matrix, beta0, _ = _resolve(generator, state0)
    if real_symmetric(matrix):
        lam, V = np.linalg.eigh(matrix)
        return EigenSolution(lam, V, _apply(V.T, beta0))
    lam, V = np.linalg.eig(matrix.astype(complex, copy=False))
    _check_conditioned(V)
    c = np.linalg.solve(V, beta0)
    return EigenSolution(eigenvalues=lam, eigenvectors=V, coefficients=c)


def eigen_solve(generator, state0, times) -> Trajectory:
    """Exact-in-time solution beta(t) = V (c * e^{lambda t}) on a time grid."""
    _, beta0, basis = _resolve(generator, state0)
    t = _time_grid(times)
    sol = eigen_decompose(generator, state0)
    phases = np.exp(np.outer(sol.eigenvalues, t))
    amp = _apply(sol.eigenvectors, sol.coefficients[:, None] * phases).T
    amp[0] = beta0
    return Trajectory(times=t, amplitudes=amp, basis=basis, solver="eigen")


def oracle_expm(generator, state0, t: float) -> AmplitudeState:
    """beta(t) = exp(M t) beta(0) by scaling and squaring.

    The scaled exponential is summed as a truncated Taylor series; this
    path shares no code with rk4_propagate or eigen_solve and exists to
    cross-check them.
    """
    matrix, beta0, basis = _resolve(generator, state0)
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    A = matrix.astype(complex, copy=False) * t  # cast once: a real M is summed as complex
    norm = float(np.linalg.norm(A, 1))
    if norm > 2.0**40:
        raise OverflowError(f"||M t|| = {norm:.3e} is out of range for expm")
    squarings = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0.5 else 0
    A = A / 2.0**squarings
    n = A.shape[0]
    E = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 41):
        term = term @ A / k
        E = E + term
        if np.linalg.norm(term, 1) < 1e-18 * np.linalg.norm(E, 1):
            break
    for _ in range(squarings):
        E = E @ E
    return AmplitudeState(E @ beta0, basis)
