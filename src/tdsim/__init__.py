"""Collective single-photon decay of timed-Dicke states.

Builds line and spherical-lattice ensembles, assembles the sine- and
exponential-kernel decay generators for the single-excitation amplitudes,
transforms between the Fock and timed-Dicke bases, propagates by
eigendecomposition or Krylov projection (RK4 is kept as a reference), and
reduces trajectories to populations, transfer curves and decay times.  The
``tdsim`` CLI exposes figure presets that emit CSV trajectories.
"""

from .basis import (
    AmplitudeState,
    TDTransform,
    build_transform,
    ladder_state,
    plus_state,
    section_state,
    to_fock,
    to_td,
)
from .dynamics import (
    DegenerateSpectrumError,
    EigenSolution,
    Trajectory,
    eigen_decompose,
    eigen_solve,
    krylov_propagate,
    oracle_expm,
    propagate,
    rk4_propagate,
)
from .ensemble import Ensemble, build_line, build_sphere_lattice, partition_sections
from .kernels import (
    GeneratorMatrix,
    assemble_td_direct,
    build_generator,
    transform_generator,
)
from .observables import (
    ObservableSeries,
    decay_time,
    fa_transfer,
    populations,
    state_population,
    total_excitation,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeState",
    "DegenerateSpectrumError",
    "EigenSolution",
    "Ensemble",
    "GeneratorMatrix",
    "ObservableSeries",
    "TDTransform",
    "Trajectory",
    "assemble_td_direct",
    "build_generator",
    "build_line",
    "build_sphere_lattice",
    "build_transform",
    "decay_time",
    "eigen_decompose",
    "eigen_solve",
    "fa_transfer",
    "krylov_propagate",
    "ladder_state",
    "oracle_expm",
    "partition_sections",
    "plus_state",
    "populations",
    "propagate",
    "rk4_propagate",
    "section_state",
    "state_population",
    "to_fock",
    "to_td",
    "total_excitation",
    "transform_generator",
]
