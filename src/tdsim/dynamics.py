"""Propagators for beta_dot = M beta with a time-independent generator.

:func:`step_indices` owns the time-grid rule (``t_max`` a multiple of ``dt``).
:func:`propagate` is a run's one entry point: it holds the ``auto`` rule
(eigen for N <= ``EIGEN_SOLVER_MAX_N``, RK4 above) and dispatches to two
of three independent routes, which must agree:

* :func:`rk4_propagate` -- classical fixed-step Runge-Kutta 4, the
  reference method (default dt = 0.01 in units of 1/gamma);
* :func:`eigen_solve`  -- spectral solution beta(t) = sum_i c_i V_i e^{l_i t},
  exact in time, default for moderate N;
* :func:`oracle_expm`  -- scaling-and-squaring matrix exponential with a
  truncated-series core, written independently of the other two and used
  only as a verification oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import FOCK, AmplitudeState
from .kernels import GeneratorMatrix

__all__ = [
    "Trajectory",
    "EigenSolution",
    "propagate",
    "DegenerateSpectrumError",
    "rk4_propagate",
    "eigen_decompose",
    "eigen_solve",
    "oracle_expm",
    "step_indices",
]

EIGEN_COND_LIMIT = 1e12
EIGEN_SOLVER_MAX_N = 500  # solver "auto": eigen up to this N, rk4 above


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
        t = np.asarray(self.times, dtype=float)
        a = np.asarray(self.amplitudes, dtype=complex)
        if t.ndim != 1 or a.ndim != 2 or a.shape[0] != t.shape[0]:
            raise ValueError("times and amplitude snapshots must align")
        if t[0] != 0.0 or (t.size > 1 and np.any(np.diff(t) <= 0)):
            raise ValueError("times must be strictly increasing and start at 0")
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
    """Accept GeneratorMatrix/AmplitudeState or raw arrays; check tags."""
    if isinstance(generator, GeneratorMatrix):
        matrix, g_basis = generator.matrix, generator.basis
    else:
        matrix, g_basis = np.asarray(generator, dtype=complex), None
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("generator must be a square matrix")
    if isinstance(state0, AmplitudeState):
        beta0 = state0.amplitudes
        s_basis = state0.basis
    else:
        beta0 = np.asarray(state0, dtype=complex).reshape(-1)
        s_basis = None
    if g_basis is not None and s_basis is not None and g_basis != s_basis:
        raise ValueError(
            f"basis mismatch: generator is {g_basis!r}, state is {s_basis!r}"
        )
    if beta0.shape[0] != matrix.shape[0]:
        raise ValueError(
            f"dimension mismatch: generator is {matrix.shape[0]}, state is {beta0.shape[0]}"
        )
    if not (np.all(np.isfinite(matrix)) and np.all(np.isfinite(beta0))):
        raise ValueError("generator and initial state must be finite")
    basis = g_basis or s_basis or FOCK
    return matrix, beta0, basis


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
    n_steps = round(steps)
    if not math.isclose(steps, n_steps, rel_tol=1e-9):
        raise ValueError(f"t_max = {t_max!r} is not an integer multiple of dt = {dt!r}")
    return np.unique(np.append(np.arange(0, n_steps + 1, stride), n_steps))


def propagate(generator, state0, dt: float = 0.01, t_max: float = 10.0,
              stride: int = 1, solver: str = "auto") -> Trajectory:
    """beta(t) every ``stride`` steps of ``dt`` up to ``t_max`` by ``solver``
    (``auto``, ``rk4`` or ``eigen``); the trajectory's ``solver`` names the method."""
    if solver == "auto":
        n = np.shape(getattr(generator, "matrix", generator))[0]
        solver = "eigen" if n <= EIGEN_SOLVER_MAX_N else "rk4"
    if solver == "rk4":
        return rk4_propagate(generator, state0, dt, t_max, stride)
    if solver == "eigen":
        return eigen_solve(generator, state0, step_indices(dt, t_max, stride) * dt)
    raise ValueError(f"solver must be 'auto', 'rk4' or 'eigen', got {solver!r}")


def rk4_propagate(generator, state0, dt: float = 0.01, t_max: float = 10.0,
                  stride: int = 1) -> Trajectory:
    """Fixed-step RK4 integration, snapshots every ``stride`` steps."""
    matrix, beta0, basis = _resolve(generator, state0)
    keep = step_indices(dt, t_max, stride)
    keep_set = set(keep.tolist())
    out = np.empty((keep.size, beta0.size), dtype=complex)
    out[0] = beta0
    beta = beta0.copy()
    row = 1
    for step in range(1, int(keep[-1]) + 1):
        k1 = matrix @ beta
        k2 = matrix @ (beta + 0.5 * dt * k1)
        k3 = matrix @ (beta + 0.5 * dt * k2)
        k4 = matrix @ (beta + dt * k3)
        beta = beta + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step in keep_set:
            out[row] = beta
            row += 1
    return Trajectory(times=keep * dt, amplitudes=out, basis=basis, solver="rk4")


def eigen_decompose(generator, state0) -> EigenSolution:
    """Eigendecomposition of the generator with coefficients V c = beta(0)."""
    matrix, beta0, _ = _resolve(generator, state0)
    lam, V = np.linalg.eig(matrix)
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > EIGEN_COND_LIMIT:
        raise DegenerateSpectrumError(
            f"eigenvector matrix condition number {cond:.3e} exceeds "
            f"{EIGEN_COND_LIMIT:.0e}; the spectrum is numerically degenerate, "
            "propagate with RK4 instead (set solver = rk4)"
        )
    c = np.linalg.solve(V, beta0)
    return EigenSolution(eigenvalues=lam, eigenvectors=V, coefficients=c)


def eigen_solve(generator, state0, times) -> Trajectory:
    """Exact-in-time solution beta(t) = V (c * e^{lambda t}) on a time grid."""
    matrix, beta0, basis = _resolve(generator, state0)
    t = np.asarray(times, dtype=float).reshape(-1)
    if t.size < 1 or t[0] != 0.0 or (t.size > 1 and np.any(np.diff(t) <= 0)):
        raise ValueError("times must be strictly increasing and start at 0")
    sol = eigen_decompose(matrix, beta0)
    phases = np.exp(np.outer(sol.eigenvalues, t))
    amp = (sol.eigenvectors @ (sol.coefficients[:, None] * phases)).T
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
    A = matrix * t
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
