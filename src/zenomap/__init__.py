"""Quantum maps under repeated measurement.

Simulates how frequent state readout reshapes quantum dynamics in two
opposite regimes: a driven two-level system, where readout freezes the
coherent transfer (the quantum Zeno effect), and kicked multilevel ladders,
where readout destroys the interference responsible for dynamical
localization and restores diffusive, classical-like energy growth. A
classical standard-map ensemble provides the diffusion baseline.
"""

__version__ = "0.1.0"

from .classical import (
    ClassicalEnsemble,
    ClassicalParticle,
    K_CRITICAL,
    classical_step,
    ensemble_diffusion,
    ensemble_series,
)
from .errors import (
    ConfigError,
    InvalidStateError,
    NoLocalizationError,
    NormDriftError,
    TruncationOverflowError,
    ZenomapError,
)
from .kick_engine import (
    BasisWindow,
    KickKernel,
    QuantumState,
    SpectrumModel,
    adjoint_step,
    apply_free,
    apply_kick,
    build_kernel,
    step,
)
from .measurement import (
    MeasurementMode,
    MeasurementSchedule,
    PhaseRandomizer,
    apply_measurement,
    should_measure,
)
from .observables import (
    BreakTimeEstimate,
    DispersionSeries,
    LocalizationFit,
    detect_break_time,
    diffusion_slope,
    dispersion,
    fit_localization_length,
    time_averaged_profile,
)
from .runner import (
    ExperimentConfig,
    PRESETS,
    RunRecord,
    emit_chart,
    parse_config,
    render_chart,
    render_csv,
    run_experiment,
    write_csv,
)
from .two_level import (
    ProbabilityPair,
    RabiParams,
    TwoLevelState,
    coherent_evolve,
    coherent_step,
    measured_evolve_closed,
    measured_probability_step,
    monte_carlo_measured_evolve,
    zeno_survival,
)

__all__ = [
    "__version__",
    # errors
    "ZenomapError", "InvalidStateError", "TruncationOverflowError",
    "NoLocalizationError", "NormDriftError", "ConfigError",
    # two-level
    "TwoLevelState", "RabiParams", "ProbabilityPair",
    "coherent_step", "coherent_evolve", "measured_probability_step",
    "measured_evolve_closed", "zeno_survival", "monte_carlo_measured_evolve",
    # kick engine
    "BasisWindow", "QuantumState", "KickKernel", "SpectrumModel",
    "build_kernel", "apply_kick", "apply_free", "step", "adjoint_step",
    # measurement
    "MeasurementMode", "MeasurementSchedule", "PhaseRandomizer",
    "should_measure", "apply_measurement",
    # classical
    "ClassicalParticle", "ClassicalEnsemble", "K_CRITICAL",
    "classical_step", "ensemble_diffusion", "ensemble_series",
    # observables
    "DispersionSeries", "LocalizationFit", "BreakTimeEstimate",
    "dispersion", "time_averaged_profile", "fit_localization_length",
    "diffusion_slope", "detect_break_time",
    # runner
    "ExperimentConfig", "RunRecord", "PRESETS", "parse_config",
    "run_experiment", "render_csv", "write_csv", "render_chart", "emit_chart",
]
