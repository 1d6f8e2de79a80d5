"""helns: helically symmetric Navier-Stokes solver and diagnostics.

A pseudo-spectral periodic-box solver for the incompressible Navier-Stokes
equations written in perturbation form around the Lamb-Oseen vortex, a radial
Crank-Nicolson heat engine for vertically averaged profiles, the circulation
decomposition u = a u_LO + v with its weighted-norm machinery, and a suite of
inequality and decay-rate diagnostics.
"""

from .grid import GridSpec
from .spectral import SpectralOps
from .fields import (
    PerturbationSpec,
    oseen_vorticity,
    shear_flow,
    random_helical_perturbation,
)
from .radial import (
    RadialProfile,
    DomainTooSmallError,
    run_radial,
    radial_biot_savart,
    oseen_extraction,
)
from .decomposition import (
    DecompositionResult,
    circulation_a,
    decompose,
    ring_average_cylindrical,
    weighted_l2m_norm,
)
from .diagnostics import (
    DEFAULT_C0,
    DecayFit,
    DiagnosticsRecord,
    RecordBuilder,
    fit_exponential,
    fit_power,
    load_records_csv,
    oseen_difference_check,
    rate_study,
    sweep_ladyzhenskaya,
    sweep_poincare,
    write_records_csv,
)
from .solver import SimulationState, run_spectral3d, step_spectral3d
from .config import ConfigError, ExperimentConfig, parse_config, serialize_config
from .experiment import InstabilityError, RunResult, run_experiment
from .snapshot import SnapshotData, read_snapshot, write_snapshot

__version__ = "0.1.0"

__all__ = [
    "GridSpec",
    "SpectralOps",
    "PerturbationSpec",
    "oseen_vorticity",
    "shear_flow",
    "random_helical_perturbation",
    "RadialProfile",
    "DomainTooSmallError",
    "run_radial",
    "radial_biot_savart",
    "oseen_extraction",
    "DecompositionResult",
    "circulation_a",
    "decompose",
    "ring_average_cylindrical",
    "weighted_l2m_norm",
    "DEFAULT_C0",
    "DecayFit",
    "DiagnosticsRecord",
    "RecordBuilder",
    "fit_exponential",
    "fit_power",
    "load_records_csv",
    "oseen_difference_check",
    "rate_study",
    "sweep_ladyzhenskaya",
    "sweep_poincare",
    "write_records_csv",
    "SimulationState",
    "run_spectral3d",
    "step_spectral3d",
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
    "InstabilityError",
    "RunResult",
    "run_experiment",
    "SnapshotData",
    "read_snapshot",
    "write_snapshot",
    "__version__",
]
