"""Propagators for beta_dot = M beta with a time-independent generator.

:func:`step_indices` owns the time-grid rule (``t_max`` a multiple of ``dt``).
:func:`propagate` is a run's one entry point: it holds the ``auto`` rule
(eigen where one Krylov basis would span the whole space, N <= ``KRYLOV_MAX_DIM``,
Krylov above) and passes the grid's integer steps of ``dt`` to one of two routes, each held
to ``KRYLOV_TOL`` or raising:

* ``eigen``  -- :func:`eigen_solve`, the spectral solution sum_i c_i V_i e^{l_i t} (eigh if
  real symmetric); an ill-conditioned or defective eigenbasis raises;
* ``krylov`` -- Arnoldi bases checked by Saad's error estimate, each stepping its rows y
  (beta = y V, m values) by one small e^{k dt H_m} per gap of k steps: no eigenproblem, so
  a defective generator propagates too.  It needs only ``generator @ v``, so a
  :class:`~tdsim.kernels.LatticeGenerator` runs with no N x N array; every other route
  (and the references below) reads the generator's dense ``matrix`` once per call.

Both return a :class:`Trajectory` of blocks (Y, V): the eigen route's rows are one block,
and each Krylov basis V holds its rows as m numbers y.  Every reduction in
:mod:`tdsim.observables` reads the blocks, so a Krylov run forms no T x N array unless its
``amplitudes`` are asked for.  Arbitrary ``times`` go through :func:`eigen_solve` (or
:func:`oracle_expm`, one ``t`` at a time).

Two references only cross-check them, and no run goes through either:

* :func:`rk4_propagate`    -- classical fixed-step Runge-Kutta 4 (default dt = 0.01 / gamma);
* :func:`oracle_expm`      -- scaling-and-squaring matrix exponential, truncated-series core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import FOCK, AmplitudeState
from .kernels import GeneratorMatrix, LatticeGenerator, apply_matrix, real_symmetric

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

SOLVERS = ("auto", "eigen", "krylov")
# bound on each Krylov row's error estimate, relative to |beta(0)|, and on cond(V) eps
# for the eigenvector basis ``eig`` rebuilds a state from
KRYLOV_TOL = 1e-10
KRYLOV_MAX_DIM = 160  # Arnoldi vectors in one basis; past it the basis restarts
# (solver "auto" takes eigen up to this N, where one basis could hold the whole space)
_KRYLOV_CHECK = 8  # vectors added between error estimates
MAX_TIME_ROWS = 10**7  # kept rows of one time grid, counted before it is built


class DegenerateSpectrumError(RuntimeError):
    """Raised when the eigenbasis is too ill-conditioned to solve with (or, in principle, when
    a Krylov step halves to nothing without meeting its error bound)."""


@dataclass(frozen=True)
class Trajectory:
    """Time grid plus the states at it as blocks ``(Y, V)`` of consecutive rows, in order: a
    block's states are ``Y @ V``, its T_b x m rows in a Krylov basis V (m x N), or ``Y``
    itself where V is None.  Reductions read the blocks; ``amplitudes`` forms the T x N rows."""

    times: np.ndarray
    blocks: tuple
    basis: str
    solver: str = "unknown"

    def __post_init__(self):
        t = _time_grid(self.times)
        if np.ndim(self.times) != 1 or sum(len(Y) for Y, _ in self.blocks) != t.size:
            raise ValueError("times and amplitude snapshots must align")
        if not all(np.isfinite(Y).all() for Y, _ in self.blocks):  # V is not scanned
            raise ValueError("trajectory snapshots must be finite")
        object.__setattr__(self, "times", t)

    @property
    def n(self) -> int:
        Y, V = self.blocks[0]
        return (Y if V is None else V).shape[1]

    @cached_property
    def amplitudes(self) -> np.ndarray:
        """The T x N states, row t -> beta(t)."""
        return self.map_states(lambda x: x)

    def state(self, i: int) -> AmplitudeState:
        """beta at ``times[i]``, from the one block that holds it (no T x N rows formed)."""
        i = range(self.times.size)[i]  # negative i counts from the end; out of range raises
        for Y, V in self.blocks:
            if i < len(Y):
                return AmplitudeState(Y[i] if V is None else Y[i] @ V, self.basis)
            i -= len(Y)

    def map_states(self, linear) -> np.ndarray:
        """``linear`` (a map acting row by row) of every state; on a Krylov block it acts
        on the basis, Y @ linear(V), so no block's T_b x N states are formed."""
        return np.concatenate([linear(Y) if V is None else Y @ linear(V)
                               for Y, V in self.blocks])

    def norms_squared(self) -> np.ndarray:
        """|beta(t)|^2 of every row; on a Krylov block y (V V^H) y^*, which stays exact
        however far V drifts from orthonormal."""
        return np.concatenate([
            np.sum(np.abs(Y) ** 2, axis=1) if V is None
            else np.einsum("ij,ij->i", Y @ (V @ V.conj().T), Y.conj()).real
            for Y, V in self.blocks])


@dataclass(frozen=True)
class EigenSolution:
    """Spectral data of a generator plus the initial-condition coefficients."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    coefficients: np.ndarray


def _resolve(generator, state0):
    """Generator and start state of a run.  A raw array is wrapped in its type, which
    checks it, under the other input's basis tag (``fock`` if neither has one); what
    no single type can check, that the two agree in basis and dimension, is checked here."""
    if not isinstance(generator, (GeneratorMatrix, LatticeGenerator)):
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
    return generator, state0


def _check_conditioned(V) -> None:
    """Raise unless cond(V) eps <= ``KRYLOV_TOL``: a state rebuilt from the columns of V
    carries a rounding error that grows with cond(V) (Moler & Van Loan, SIAM Rev. 45, 2003)."""
    cond = np.linalg.cond(V)
    if not cond * np.finfo(float).eps <= KRYLOV_TOL:
        raise DegenerateSpectrumError(
            f"eigenvector condition number {cond:.3e} times eps exceeds KRYLOV_TOL = "
            f"{KRYLOV_TOL:.0e}")


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
    """beta(t) every ``stride`` steps of ``dt`` up to ``t_max`` by ``solver`` (one of
    ``SOLVERS``); the trajectory's ``solver`` names the method.  The eigen route's rows are
    one block, and each Krylov basis (after the row of beta(0)) another."""
    if solver not in SOLVERS:
        raise ValueError(f"solver must be one of {list(SOLVERS)}, got {solver!r}")
    generator, state0 = _resolve(generator, state0)
    if solver == "auto":
        solver = "eigen" if generator.n <= KRYLOV_MAX_DIM else "krylov"
    steps = step_indices(dt, t_max, stride)
    if solver == "krylov":
        return _krylov(generator, state0, steps, dt)
    return eigen_solve(generator, state0, steps * dt)


def rk4_propagate(generator, state0, dt: float = 0.01, t_max: float = 10.0,
                  stride: int = 1) -> Trajectory:
    """Fixed-step RK4 integration, snapshots every ``stride`` steps."""
    generator, state0 = _resolve(generator, state0)
    matrix = generator.matrix
    keep = step_indices(dt, t_max, stride)
    out = np.empty((keep.size, state0.n), dtype=complex)
    out[0] = beta = state0.amplitudes
    for row in range(1, keep.size):
        for _ in range(keep[row] - keep[row - 1]):  # one classical RK4 step each
            k1 = apply_matrix(matrix, beta)
            k2 = apply_matrix(matrix, beta + 0.5 * dt * k1)
            k3 = apply_matrix(matrix, beta + 0.5 * dt * k2)
            k4 = apply_matrix(matrix, beta + dt * k3)
            beta = beta + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[row] = beta
    return Trajectory(keep * dt, ((out, None),), generator.basis, "rk4")


def _krylov(generator, state0, steps, dt) -> Trajectory:
    """Arnoldi bases (two Gram-Schmidt passes) of at most ``KRYLOV_MAX_DIM`` vectors over the
    grid ``steps * dt`` (``steps`` from :func:`step_indices`).  A basis V of beta(t0) grows
    until every later row passes Saad's (1992) a posteriori estimate,
    h_{m+1,m} |e_m^T y_k| <= ``KRYLOV_TOL`` |beta(0)|, or it reaches the cap; its rows y_k
    (beta = y_k V) come from :func:`_stepped_rows`, one run per stretch of equal step gaps.
    It keeps the rows before the first that fails and the next basis restarts from the last
    (as in Expokit); a capped basis that passes no row halves its first step until one passes.
    The generator enters only through ``generator @ v``; both inputs come resolved."""
    beta = state0.amplitudes
    t = steps * dt
    tol = KRYLOV_TOL * np.linalg.norm(beta)
    dim = min(KRYLOV_MAX_DIM, beta.size)
    V = np.empty((dim + 1, beta.size), dtype=complex)  # rows: the orthonormal basis
    H = np.empty((dim + 1, dim), dtype=complex)
    blocks, row, t0 = [(beta[None], None)], 1, 0.0
    while row < t.size:
        head = [] if t0 == t[row - 1] else [(1, t[row] - t0)]  # a halved step's remainder
        gaps = np.diff(steps[row - 1 + len(head):])
        ends = np.flatnonzero(np.diff(gaps, append=0))  # the last gap of each equal stretch
        runs = head + [(n, gap * dt) for n, gap in zip(np.diff(ends, prepend=-1), gaps[ends])]
        scale = np.linalg.norm(beta) or 1.0  # a zero state spans a zero basis
        V[0], H[:] = beta / scale, 0
        for m in range(1, dim + 1):
            w = generator @ V[m - 1]
            for _ in range(2):
                h = (V[:m] @ w.conj()).conj()
                w -= h @ V[:m]
                H[:m, m - 1] += h
            H[m, m - 1] = residual = np.linalg.norm(w)
            if m % _KRYLOV_CHECK == 0 or m == dim or residual == 0:
                Y = _stepped_rows(H[:m, :m], scale, runs, residual, tol)
                if len(Y) == t.size - row or m == dim:
                    break
            V[m] = w / residual
        step = t[row] - t0
        while not len(Y):
            step /= 2
            if t0 + step == t0:
                raise DegenerateSpectrumError(
                    f"no Krylov step from t = {t0!r} meets its error bound, KRYLOV_TOL = "
                    f"{KRYLOV_TOL:.0e} times |beta(0)|")
            Y = _stepped_rows(H[:m, :m], scale, [(1, step)], residual, tol)
        if not np.isfinite(Y).all():
            raise ValueError("trajectory snapshots must be finite")
        beta = Y[-1] @ V[:m]
        if step < t[row] - t0:  # a halved step ends between grid rows
            t0 += step
            continue
        # a block of fewer rows than basis vectors is kept as its states, so that no block
        # holds more numbers than the rows it stands for
        blocks.append((Y, V[:m].copy()) if len(Y) >= m else (Y @ V[:m], None))
        row += len(Y)
        t0 = t[row - 1]
    return Trajectory(t, tuple(blocks), generator.basis, "krylov")


def _stepped_rows(H, scale, steps, residual, tol) -> np.ndarray:
    """Rows y_k = scale e^{tau_k H} e_1 at the times of ``steps`` ((rows, step) runs), up to
    the first whose Saad estimate ``residual`` |y_{k,m}| exceeds ``tol``.  Each run takes one
    :func:`_expm` and doubles its rows, writing Y F^k after Y, in log2(rows) products into
    one array; rows cut short by a failing row are copied out of it, so that a kept block
    does not hold the unwritten rows alive."""
    Y = np.empty((1 + sum(n for n, _ in steps), len(H)), dtype=complex)
    Y[0] = np.eye(1, len(H)) * scale
    end = 0  # the last row written
    for n, step in steps:
        F = _expm(step * H).T  # a row y steps to y F
        start = end  # the run steps on from its first row, the last row before it
        while end - start < n:
            count = min(end - start + 1, n - (end - start))
            new = np.matmul(Y[start:start + count], F, out=Y[end + 1:end + 1 + count])
            fails = residual * np.abs(new[:, -1]) > tol
            if fails.any():
                return Y[1:end + 1 + fails.argmax()].copy()
            end += count
            if end - start < n:
                F = F @ F
    return Y[1:]


_TAYLOR = 1.0 / np.array([math.factorial(k) for k in range(19)])  # 1/k!, k = 0..18


def _expm(A) -> np.ndarray:
    """e^A of a small matrix by scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26(4),
    2005): A / 2^s with ||A / 2^s||_1 <= 1, whose degree-18 Taylor polynomial is exact to
    below eps (1/19! < 1e-17), summed by Paterson-Stockmeyer in 7 products, squared s times."""
    norm = np.linalg.norm(A, 1)
    s = math.ceil(math.log2(norm)) if norm > 1 else 0
    powers = [np.eye(len(A)), A / 2.0**s]
    for _ in range(3):
        powers.append(powers[-1] @ powers[1])
    E = sum(c * P for c, P in zip(_TAYLOR[16:], powers))
    for i in (3, 2, 1, 0):
        E = powers[4] @ E + sum(c * P for c, P in zip(_TAYLOR[4 * i:4 * i + 4], powers))
    for _ in range(s):
        E = E @ E
    return E


def eigen_decompose(generator, state0) -> EigenSolution:
    """Eigenpairs with coefficients V c = beta(0); ``eigh`` (V orthogonal) if real symmetric,
    else ``eig`` with V held to the conditioning rule of :func:`_check_conditioned`."""
    generator, state0 = _resolve(generator, state0)
    matrix, beta0 = generator.matrix, state0.amplitudes
    if real_symmetric(matrix):
        lam, V = np.linalg.eigh(matrix)
        return EigenSolution(lam, V, apply_matrix(V.T, beta0))
    lam, V = np.linalg.eig(matrix.astype(complex, copy=False))
    _check_conditioned(V)
    c = np.linalg.solve(V, beta0)
    return EigenSolution(eigenvalues=lam, eigenvectors=V, coefficients=c)


def eigen_solve(generator, state0, times) -> Trajectory:
    """Exact-in-time solution beta(t) = V (c * e^{lambda t}) on a time grid."""
    generator, state0 = _resolve(generator, state0)
    t = _time_grid(times)
    sol = eigen_decompose(generator, state0)
    phases = np.exp(np.outer(sol.eigenvalues, t))
    amp = apply_matrix(sol.eigenvectors, sol.coefficients[:, None] * phases).T
    amp[0] = state0.amplitudes
    return Trajectory(t, ((amp, None),), generator.basis, "eigen")


def oracle_expm(generator, state0, t: float) -> AmplitudeState:
    """beta(t) = exp(M t) beta(0) by scaling and squaring.

    The scaled exponential is summed as a truncated Taylor series; this
    path shares no code with rk4_propagate or eigen_solve and exists to
    cross-check them.
    """
    generator, state0 = _resolve(generator, state0)
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    A = generator.matrix.astype(complex, copy=False) * t  # a real M is summed as complex
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
    return AmplitudeState(E @ state0.amplitudes, generator.basis)
