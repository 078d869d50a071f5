"""Reductions of trajectories to the plotted quantities.

Populations of TD basis states are |beta_m(t)|^2 on a TD-basis trajectory;
TD indices are 1-based with index 1 the symmetric state |+> and index m
the ladder state |m>.  Arbitrary reference states (e.g. section states)
get their survival probability through :func:`state_population`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import TD, AmplitudeState
from .dynamics import Trajectory

__all__ = [
    "ObservableSeries",
    "populations",
    "state_population",
    "total_excitation",
    "fa_transfer",
    "decay_time",
]

PURE_START_TOL = 1e-9


@dataclass(frozen=True)
class ObservableSeries:
    """A real-valued time series on a trajectory's time grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("times and values must be 1-d and aligned")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


def _check_td_index(traj: Trajectory, index: int):
    if int(index) != index or not 1 <= index <= traj.n:
        raise ValueError(f"TD index must be in 1..{traj.n}, got {index!r}")


def populations(traj: Trajectory, indices) -> dict[int, ObservableSeries]:
    """|beta_m(t)|^2 for each requested TD index (1 = |+>, m = ladder |m>)."""
    if traj.basis != TD:
        raise ValueError("populations requires a td-basis trajectory")
    out = {}
    for index in indices:
        _check_td_index(traj, index)
        vals = np.abs(traj.amplitudes[:, index - 1]) ** 2
        out[index] = ObservableSeries(traj.times, vals)
    return out


def state_population(traj: Trajectory, ref: AmplitudeState) -> ObservableSeries:
    """Survival probability |<ref|beta(t)>|^2 of an arbitrary reference state."""
    if ref.basis != traj.basis:
        raise ValueError(
            f"basis mismatch: trajectory is {traj.basis!r}, reference is {ref.basis!r}"
        )
    if ref.n != traj.n:
        raise ValueError("reference state dimension does not match trajectory")
    overlaps = traj.amplitudes @ np.conj(ref.amplitudes)
    return ObservableSeries(traj.times, np.abs(overlaps) ** 2)


def total_excitation(traj: Trajectory) -> ObservableSeries:
    """Total probability sum_j |beta_j(t)|^2 that the sample stays excited."""
    vals = np.sum(np.abs(traj.amplitudes) ** 2, axis=1)
    return ObservableSeries(traj.times, vals)


def fa_transfer(traj: Trajectory, source: int, target: int) -> ObservableSeries:
    """Population transferred into ``target`` from a pure ``source`` start."""
    if traj.basis != TD:
        raise ValueError("fa_transfer requires a td-basis trajectory")
    _check_td_index(traj, source)
    _check_td_index(traj, target)
    p0 = abs(traj.amplitudes[0, source - 1]) ** 2
    if p0 < 1.0 - PURE_START_TOL:
        raise ValueError(
            f"trajectory does not start in the pure source state, TD index "
            f"{source} (initial population {p0:.12f})"
        )
    return populations(traj, [target])[target]


def decay_time(series: ObservableSeries, threshold: float) -> float:
    """First time the series crosses below ``threshold``, interpolated.

    Returns ``math.inf`` when the series never crosses.  The series must
    start above the threshold.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold!r}")
    v = series.values
    t = series.times
    if v[0] <= threshold:
        raise ValueError(
            f"series starts at {v[0]:.6g}, not above threshold {threshold:.6g}"
        )
    below = np.nonzero(v < threshold)[0]
    if below.size == 0:
        return math.inf
    i = int(below[0])
    frac = (v[i - 1] - threshold) / (v[i - 1] - v[i])
    return float(t[i - 1] + frac * (t[i] - t[i - 1]))
