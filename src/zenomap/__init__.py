"""Quantum maps under repeated measurement.

Simulates how frequent state readout reshapes quantum dynamics in two
opposite regimes: a driven two-level system, where readout between drive
segments freezes the transfer (the quantum Zeno effect, in closed form and
by Monte Carlo), and kicked multilevel ladders, where readout destroys the
interference responsible for dynamical localization and restores diffusive,
classical-like energy growth. A classical standard-map ensemble provides the
diffusion baseline.

The package exports the library calls the README documents and the error
classes; everything else is imported from its module (``zenomap.runner``,
``zenomap.measurement``, ``zenomap.two_level``, ...).
"""

__version__ = "0.1.0"

from .classical import ClassicalEnsemble, ensemble_diffusion
from .errors import (
    ConfigError,
    LostKickError,
    NoLocalizationError,
    NonFiniteError,
    NormDriftError,
    TruncationOverflowError,
    ZenomapError,
)
from .kick_engine import BasisWindow, QuantumState, SpectrumModel, build_kernel, step
from .observables import (
    detect_break_time,
    diffusion_slope,
    dispersion,
    fit_localization_length,
)
from .two_level import ProbabilityPair, zeno_survival

__all__ = [
    "__version__",
    # errors
    "ZenomapError", "TruncationOverflowError",
    "NoLocalizationError", "NormDriftError", "NonFiniteError", "LostKickError", "ConfigError",
    # kicked ladder
    "BasisWindow", "QuantumState", "SpectrumModel", "build_kernel", "step",
    "dispersion", "fit_localization_length",
    "diffusion_slope", "detect_break_time",
    # two-level system
    "ProbabilityPair", "zeno_survival",
    # classical baseline
    "ClassicalEnsemble", "ensemble_diffusion",
]
