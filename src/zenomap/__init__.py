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

# OpenBLAS reads these once, when numpy loads it.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _load_blas_with_one_thread() -> None:
    """Import numpy with one BLAS thread, unless the caller chose a count.

    zenomap's BLAS calls are the kick's small blocked products and the norm
    and dispersion dot products. numpy's OpenBLAS would start a worker per
    CPU that spins idle after the import, and it splits a dot product of
    more than about 10^4 states across its threads, which moves the last
    bits of the result with the machine's CPU count. The variable is set for
    the import only, so child processes inherit the caller's environment.
    """
    import os
    import sys

    if "numpy" in sys.modules or any(name in os.environ for name in _BLAS_THREAD_VARIABLES):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_load_blas_with_one_thread()

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
