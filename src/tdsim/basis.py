"""Timed-Dicke states and the unitary map between the Fock and TD bases.

The TD basis is the symmetric timed state |+> together with the ladder
family |m>, m = 2..N: state m lives on the first m atoms (construction
order), carries the timing phase e^{i k0.r_j} on each, and weights atom m
with -(m-1) so that it is orthogonal to |+> and to every lower ladder
state.  Row m of the transform S holds the conjugated coefficients of
state m, so beta_td = S beta_fock and S is unitary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import Ensemble

FOCK = "fock"
TD = "td"

__all__ = [
    "AmplitudeState",
    "TDTransform",
    "plus_state",
    "ladder_state",
    "section_state",
    "ladder_weights",
    "timing_phases",
    "build_transform",
    "to_td",
    "to_fock",
]


@dataclass(frozen=True)
class AmplitudeState:
    """Length-N complex amplitude vector tagged with its basis."""

    amplitudes: np.ndarray
    basis: str = FOCK

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitudes must be finite")
        if self.basis not in (FOCK, TD):
            raise ValueError(f"unknown basis tag {self.basis!r}")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def n(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class TDTransform:
    """Unitary S with beta_td = S beta_fock; row 1 is |+>, rows 2..N ladder.

    S is a Helmert matrix with the phase e^{-i k0.r_j} on column j, so it
    is held as the N timing phases and applied in O(N) per vector by a
    prefix sum; the dense ``S`` is built only on request.
    """

    phases: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phases",
                           np.asarray(self.phases, dtype=complex).reshape(-1))

    @property
    def n(self) -> int:
        return self.phases.shape[0]

    @property
    def S(self) -> np.ndarray:
        """Dense N x N matrix, rebuilt on each access; the verification oracle."""
        return ladder_weights(self.n) * np.conj(self.phases)[None, :]

    def apply(self, x) -> np.ndarray:
        """``x @ S.T`` for a length-N vector or a T x N block, O(N) per row.

        With x' = x e^{-i k0.r}: y_1 = sum(x')/sqrt(N) and, for m >= 2,
        y_m = (x'_1 + ... + x'_{m-1} - (m-1) x'_m) / sqrt(m(m-1)).
        """
        y = x * np.conj(self.phases)
        prefix = np.cumsum(y, axis=-1)
        m = np.arange(2, self.n + 1)
        y[..., 1:] *= -(m - 1.0)
        y[..., 1:] += prefix[..., :-1]
        y[..., 1:] /= np.sqrt(m * (m - 1.0))
        y[..., 0] = prefix[..., -1] / np.sqrt(self.n)
        return y

    def leading(self, x, k: int) -> np.ndarray:
        """``apply(x)[..., :k]`` (|+>, |2>, ..., |k>) in O(k + N) per row: |2>..|k> live on
        the first k atoms, so they are ``apply``'s own numbers; |+> is one product."""
        y = TDTransform(self.phases[:k]).apply(x[..., :k])
        y[..., 0] = x @ np.conj(self.phases) / np.sqrt(self.n)
        return y


def timing_phases(ensemble: Ensemble) -> np.ndarray:
    """Per-atom phases e^{i k0.r_j}."""
    return np.exp(1j * (ensemble.positions @ ensemble.k0_vec))


def ladder_weights(n: int) -> np.ndarray:
    """Real weight matrix of the TD basis, rows ordered |+>, |2>, ..., |N>.

    Row 0 is the uniform weight 1/sqrt(N); row m-1 (m >= 2) weights the
    first m-1 atoms with 1/sqrt(m(m-1)) and atom m with -(m-1)/sqrt(m(m-1)).
    Multiplying each column j by e^{i k0.r_j} gives the state coefficients.
    """
    W = np.zeros((n, n))
    W[0, :] = 1.0 / np.sqrt(n)
    for m in range(2, n + 1):
        norm = np.sqrt(m * (m - 1))
        W[m - 1, : m - 1] = 1.0 / norm
        W[m - 1, m - 1] = -(m - 1) / norm
    return W


def plus_state(ensemble: Ensemble) -> AmplitudeState:
    """Symmetric timed state: coefficient e^{i k0.r_j}/sqrt(N) on atom j."""
    amp = timing_phases(ensemble) / np.sqrt(ensemble.n)
    return AmplitudeState(amp, FOCK)


def ladder_state(ensemble: Ensemble, m: int) -> AmplitudeState:
    """Antisymmetric timed state |m> on the first m atoms, m in 2..N."""
    n = ensemble.n
    if int(m) != m or not 2 <= m <= n:
        raise ValueError(f"ladder index must be in 2..{n}, got {m!r}")
    amp = np.zeros(n, dtype=complex)
    norm = np.sqrt(m * (m - 1))
    phases = timing_phases(ensemble)
    amp[: m - 1] = phases[: m - 1] / norm
    amp[m - 1] = -(m - 1) * phases[m - 1] / norm
    return AmplitudeState(amp, FOCK)


def section_state(ensemble: Ensemble, m: int) -> AmplitudeState:
    """Ladder pattern over section-symmetric blocks.

    With |+>_s the timed-symmetric state over section s, returns
    [sum_{s<m} |+>_s - (m-1)|+>_m] / sqrt(m(m-1)).  For two sections this
    is (|+>_1 - |+>_2)/sqrt(2).  Sections of one atom each reduce exactly
    to :func:`ladder_state`.
    """
    if ensemble.sections is None:
        raise ValueError("section_state requires an ensemble with sections; "
                         "use partition_sections first")
    m0 = ensemble.n_sections
    if int(m) != m or not 2 <= m <= m0:
        raise ValueError(f"section state index must be in 2..{m0}, got {m!r}")
    amp = np.zeros(ensemble.n, dtype=complex)
    phases = timing_phases(ensemble)
    norm = np.sqrt(m * (m - 1))
    for s in range(m):
        members = ensemble.section_indices(s)
        block = phases[members] / np.sqrt(members.size)
        amp[members] = block * (-(m - 1) if s == m - 1 else 1.0) / norm
    return AmplitudeState(amp, FOCK)


def build_transform(ensemble: Ensemble) -> TDTransform:
    """The unitary S of the ensemble, held as its timing phases."""
    return TDTransform(timing_phases(ensemble))


def _check_dim(transform: TDTransform, state: AmplitudeState):
    if state.n != transform.n:
        raise ValueError(
            f"dimension mismatch: transform is {transform.n}, state is {state.n}"
        )


def to_td(transform: TDTransform, state: AmplitudeState) -> AmplitudeState:
    """Map Fock amplitudes to TD amplitudes, beta_td = S beta_fock."""
    _check_dim(transform, state)
    if state.basis != FOCK:
        raise ValueError(f"to_td expects a fock-basis state, got {state.basis!r}")
    return AmplitudeState(transform.apply(state.amplitudes), TD)


def to_fock(transform: TDTransform, state: AmplitudeState) -> AmplitudeState:
    """Inverse map, beta_fock = S^dagger beta_td."""
    _check_dim(transform, state)
    if state.basis != TD:
        raise ValueError(f"to_fock expects a td-basis state, got {state.basis!r}")
    return AmplitudeState(transform.S.conj().T @ state.amplitudes, FOCK)
