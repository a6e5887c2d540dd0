"""Simulation and analysis toolkit for driven photon-magnon resonators.

Steady states, stability maps, hysteretic field sweeps, and emission
spectra of a cavity photon mode coupled to a Kerr magnon mode, in both
the externally driven (passive) and gain-driven (active) configurations.
"""

from .errors import (ConditioningError, ConfigError, DivergenceError,
                     FitError, InternalConsistencyError)
from .model import (HBAR_JS, DriveSpec, ModeState, SystemParams,
                    eta_from_power, power_from_drive)

__version__ = "0.1.0"

__all__ = [
    "HBAR_JS",
    "ConditioningError",
    "ConfigError",
    "DivergenceError",
    "DriveSpec",
    "FitError",
    "InternalConsistencyError",
    "ModeState",
    "SystemParams",
    "__version__",
    "eta_from_power",
    "power_from_drive",
]
