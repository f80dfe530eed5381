"""Config-driven experiment runner: scenarios, CSV series, and SVG charts.

A run is described by a flat ``key = value`` text document (``#`` starts a
comment, unknown keys are rejected). ``CONFIG_KEYS`` holds each key's parser
and bound; the command line checks its options by the same rules. The
defaults reproduce the canonical kicked-rotator scenario: initial state 500,
kick strength 10, period 1, momentum window halfwidth 2000. Scenario presets
a-d select the four measurement schedules (none / initial state every kick /
all states every 200 kicks / all states every kick).

Reproducibility contract: a run is a pure function of (config, seed).
Measurement phases for realization ``r`` come from the substream
``SeedSequence(seed, spawn_key=(0, r))``; a random level spectrum is drawn
once from ``SeedSequence(seed)`` and shared by every realization (the
spectrum is a property of the system, not of the trajectory). Realizations
may evolve on a thread pool capped by the ``ZENO_MAP_THREADS`` environment
variable (default: the CPUs the process may run on); results are aggregated
in realization order, so output bytes do not depend on the thread count.
"""

from __future__ import annotations

import dataclasses
import math
import os
import secrets
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from . import __version__
from .classical import ClassicalEnsemble, ensemble_series
from .errors import ConfigError, TruncationOverflowError
from .kick_engine import (
    BasisWindow,
    QuantumState,
    SpectrumModel,
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
from .observables import DispersionSeries, dispersion
from .pool import map_ordered

# Scenario presets: measurement schedule per curve label.
PRESETS = {
    "a": {"measurement_mode": "none", "measurement_period": 1},
    "b": {"measurement_mode": "initial", "measurement_period": 1},
    "c": {"measurement_mode": "all", "measurement_period": 200},
    "d": {"measurement_mode": "all", "measurement_period": 1},
}

# Free-flight spectrum per ``spectrum`` value.
_SPECTRA = {
    "rotator": lambda config, window: SpectrumModel.rotator(window, config.tau),
    "linear": lambda config, window: SpectrumModel.linear(window, config.tau, config.omega),
    "random": lambda config, window: SpectrumModel.random_levels(window, config.tau, config.seed),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated description of one run: every construction checks each
    field's ``CONFIG_KEYS`` rule, the schedule and the window (``ConfigError``)."""

    experiment: str
    spectrum: str = "rotator"
    m0: int = 500
    k: float = 10.0
    tau: float = 1.0
    n_kicks: int = 1000
    window_halfwidth: int = 2000
    measurement_mode: str = "none"
    measurement_period: int = 1
    subset: Optional[tuple[int, ...]] = None
    seed: int = 0
    realizations: int = 1
    output_path: Optional[str] = None
    emit_svg: bool = False
    omega: float = 1.0
    particles: int = 10000

    def __post_init__(self) -> None:
        for key, rule in CONFIG_KEYS.items():
            if not rule.accepts(getattr(self, key)):
                raise ConfigError(rule.message, key)
        try:
            self.schedule()
        except ValueError as err:
            raise ConfigError(str(err), "subset") from None
        window = self.window()
        bad = [m for m in self.subset or () if not window.m_min <= m <= window.m_max]
        if bad:
            raise ConfigError(
                f"states {bad} outside the window [{window.m_min}, {window.m_max}]", "subset"
            )

    def window(self) -> BasisWindow:
        return BasisWindow.centered(self.m0, self.window_halfwidth)

    def schedule(self) -> MeasurementSchedule:
        """The schedule of this config; ``"initial"`` reads out ``m0`` alone."""
        if self.measurement_mode == "initial":
            if self.subset is not None:
                raise ValueError("subset given but mode is initial")
            return MeasurementSchedule.subset_of((self.m0,), self.measurement_period)
        return MeasurementSchedule(
            MeasurementMode(self.measurement_mode), self.measurement_period, self.subset
        )

    def spectrum_model(self, window: BasisWindow) -> SpectrumModel:
        return _SPECTRA[self.spectrum](self, window)

    def with_preset(self, letter: str) -> "ExperimentConfig":
        if letter not in PRESETS:
            raise ConfigError(f"unknown preset '{letter}'; choose one of {', '.join(PRESETS)}")
        return dataclasses.replace(self, subset=None, **PRESETS[letter])


# ---------------------------------------------------------------------------
# simulators

def _simulate_kicked(config: ExperimentConfig, realization: int) -> DispersionSeries:
    window = config.window()
    kernel = build_kernel(config.k)
    spectrum = config.spectrum_model(window)
    schedule = config.schedule()
    rng = PhaseRandomizer(config.seed, realization)
    state = QuantumState.delta(window)
    home = window.offset(window.m0)

    n = config.n_kicks
    j = np.arange(n + 1)
    disp = np.zeros(n + 1)
    norm = np.zeros(n + 1)
    p_home = np.zeros(n + 1)
    disp[0] = dispersion(state)
    norm[0] = state.norm_sq()
    p_home[0] = abs(state.amplitudes[home]) ** 2
    try:
        for kick in range(1, n + 1):
            state = step(state, kernel, spectrum)
            if should_measure(schedule, kick):
                state = apply_measurement(state, schedule, rng)
            disp[kick] = dispersion(state)
            norm[kick] = state.norm_sq()
            p_home[kick] = abs(state.amplitudes[home]) ** 2
    except TruncationOverflowError as err:
        raise TruncationOverflowError(
            f"run aborted after kick {state.time_index}: {err}; rerun with a "
            f"window_halfwidth larger than {config.window_halfwidth}",
            edge=err.edge,
            occupation=err.occupation,
        ) from err
    return DispersionSeries(j, disp, norm, p_home)


def _simulate_classical(config: ExperimentConfig, realization: int) -> DispersionSeries:
    seq = np.random.SeedSequence(config.seed, spawn_key=(0, realization))
    ensemble = ClassicalEnsemble.prepared(
        config.particles, float(config.m0), config.tau, config.k,
        seed=np.random.Generator(np.random.PCG64(seq)),
    )
    return ensemble_series(ensemble, config.n_kicks)


def _simulate_zeno(config: ExperimentConfig, realization: int) -> DispersionSeries:
    # Closed-form measured evolution of the two-level system from level 1. For
    # the ladder m in {m0, m0 + 1}, the momentum dispersion reduces to the
    # transfer probability p2, and p_m0 is the survival probability p1.
    # np.float_power, unlike ** on ints, matches measured_evolve_closed exactly.
    # An overflowing phase gives nan rows, which the series rejects.
    phi = 0.5 * config.omega * config.tau
    j = np.arange(config.n_kicks + 1)
    angle = 2.0 * phi
    contrast = np.float_power(math.cos(angle) if math.isfinite(angle) else math.nan, j)
    return DispersionSeries(j, 0.5 * (1.0 - contrast), np.ones(j.size), 0.5 * (1.0 + contrast))


_SIMULATORS = {
    "zeno": _simulate_zeno,
    "kicked": _simulate_kicked,
    "classical": _simulate_classical,
}


# ---------------------------------------------------------------------------
# config parsing

def _integer(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got '{raw}'") from None


def _number(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got '{raw}'") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got '{raw}'")
    return value


def _flag(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ValueError(f"expected true or false, got '{raw}'")


def _integers(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got '{raw}'") from None


@dataclass(frozen=True)
class KeyRule:
    """How one config key is read from text, and which values it takes:
    ``message`` is the error for a value that ``accepts`` refuses."""

    parse: Callable[[str], Any]
    accepts: Callable[[Any], bool] = lambda value: True
    message: str = ""

    def convert(self, raw: str) -> Any:
        """Parse and check ``raw``; raises ``ValueError`` with the user's message."""
        value = self.parse(raw)
        if not self.accepts(value):
            raise ValueError(self.message)
        return value


def _at_least(low: int, message: str = "") -> KeyRule:
    return KeyRule(_integer, lambda value: value >= low, message or f"must be >= {low}")


def _one_of(values: Iterable[str]) -> KeyRule:
    values = tuple(values)
    return KeyRule(str, values.__contains__, f"must be one of {', '.join(values)}")


# The rule of every ExperimentConfig field, in field order. The choice keys
# take their values from the code that dispatches on them, and the
# ``zenomap zeno`` and ``zenomap classical`` options reuse these rules.
CONFIG_KEYS = {
    "experiment": _one_of(_SIMULATORS),
    "spectrum": _one_of(_SPECTRA),
    "m0": KeyRule(_integer),
    "k": KeyRule(_number, lambda k: 0 <= k < math.inf, "kick strength must be >= 0"),
    "tau": KeyRule(_number, lambda tau: 0 < tau < math.inf, "kick period must be positive"),
    "n_kicks": _at_least(1),
    "window_halfwidth": _at_least(8, "must be >= 8 (window of at least 16 states)"),
    "measurement_mode": _one_of([mode.value for mode in MeasurementMode] + ["initial"]),
    "measurement_period": _at_least(1),
    "subset": KeyRule(_integers),
    "seed": _at_least(0),
    "realizations": _at_least(1),
    "output_path": KeyRule(str),
    "emit_svg": KeyRule(_flag),
    "omega": KeyRule(_number, math.isfinite, "must be a finite number"),
    "particles": _at_least(1),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a ``key = value`` run document."""
    values: dict = {}
    where: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got '{line}'", line=lineno)
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError("unknown key", key, lineno)
        if key in values:
            raise ConfigError(
                f"duplicate key (first set on line {where[key]})", key, lineno
            )
        if not raw:
            raise ConfigError("empty value", key, lineno)
        try:
            values[key] = CONFIG_KEYS[key].parse(raw)
        except ValueError as err:
            raise ConfigError(str(err), key, lineno) from None
        where[key] = lineno
    if "experiment" not in values:
        raise ConfigError("missing required key 'experiment'")
    try:
        return ExperimentConfig(**values)
    except ConfigError as err:
        raise ConfigError(err.message, err.key, where.get(err.key)) from None


# ---------------------------------------------------------------------------
# execution

@dataclass
class RunRecord:
    """Everything one run produced."""

    config: ExperimentConfig
    realization_series: list[DispersionSeries]
    aggregate: DispersionSeries
    wall_time: float
    version: str = __version__


def _aggregate(series: Sequence[DispersionSeries]) -> DispersionSeries:
    if len(series) == 1:
        return series[0]
    return DispersionSeries(
        series[0].j,
        np.mean([s.dispersion for s in series], axis=0),
        np.mean([s.norm for s in series], axis=0),
        np.mean([s.p_m0 for s in series], axis=0),
    )


def run_experiment(config: ExperimentConfig) -> RunRecord:
    """Execute every realization of ``config`` and aggregate the series.

    Deterministic given (config, seed): identical inputs produce identical
    records regardless of the thread budget.
    """
    t0 = time.perf_counter()
    simulate = _SIMULATORS[config.experiment]
    series = map_ordered(lambda r: simulate(config, r), config.realizations)
    record = RunRecord(
        config=config,
        realization_series=series,
        aggregate=_aggregate(series),
        wall_time=time.perf_counter() - t0,
    )
    return record


# ---------------------------------------------------------------------------
# CSV output

def _format_value(x: float) -> str:
    # repr of a float is the shortest decimal that round-trips exactly
    return repr(float(x))


def render_csv(series: DispersionSeries) -> str:
    lines = ["j,dispersion,norm,p_m0"]
    for idx in range(len(series)):
        lines.append(
            f"{int(series.j[idx])},{_format_value(series.dispersion[idx])},"
            f"{_format_value(series.norm[idx])},{_format_value(series.p_m0[idx])}"
        )
    return "\n".join(lines) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    """Write UTF-8 ``text`` to ``path`` via a temporary file that ``os.replace``
    moves into place; the file gets ``open(path, "w")``'s mode (0666 less the
    umask), and on failure an existing ``path`` is left unchanged."""
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_csv(record: RunRecord, path: str) -> None:
    """Write the aggregate series as ``j,dispersion,norm,p_m0`` rows."""
    write_text_atomic(path, render_csv(record.aggregate))


# ---------------------------------------------------------------------------
# SVG chart

_CHART_W, _CHART_H = 880, 560
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 78, 24, 24, 58
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _nice_ticks(hi: float, count: int = 6) -> list[float]:
    if hi <= 0:
        return [0.0]
    raw = hi / max(count - 1, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * magnitude
    for mult in (1.0, 2.0, 2.5, 5.0):
        if raw <= mult * magnitude:
            step = mult * magnitude
            break
    ticks = []
    value = 0.0
    while value <= hi * (1 + 1e-9):
        ticks.append(value)
        value += step
    return ticks


def _legend_label(config: ExperimentConfig) -> str:
    if config.experiment == "classical":
        return "classical ensemble"
    if config.experiment == "zeno":
        return "two-level readout"
    mode = config.measurement_mode
    if mode == "none":
        return "no measurement"
    period = config.measurement_period
    every = "every kick" if period == 1 else f"every {period} kicks"
    if mode == "all":
        return f"all states, {every}"
    if mode == "initial":
        return f"initial state, {every}"
    states = ",".join(str(m) for m in (config.subset or ()))
    return f"states {{{states}}}, {every}"


def render_chart(records: Sequence[RunRecord]) -> str:
    """Standalone SVG line chart: one polyline per record, dispersion vs j."""
    if not records:
        raise ValueError("no records to chart")
    x_max = max(float(rec.aggregate.j[-1]) for rec in records)
    y_max = max(float(np.max(rec.aggregate.dispersion)) for rec in records)
    x_max = max(x_max, 1.0)
    y_max = max(y_max, 1.0)
    plot_w = _CHART_W - _MARGIN_L - _MARGIN_R
    plot_h = _CHART_H - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + plot_w * x / x_max

    def sy(y: float) -> float:
        return _MARGIN_T + plot_h * (1.0 - y / y_max)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CHART_W}" '
        f'height="{_CHART_H}" viewBox="0 0 {_CHART_W} {_CHART_H}">',
        f'<rect width="{_CHART_W}" height="{_CHART_H}" fill="white"/>',
    ]
    axis_style = 'stroke="black" stroke-width="1"'
    text_style = 'font-family="sans-serif" font-size="13"'
    x0, y0 = sx(0.0), sy(0.0)
    parts.append(f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{sx(x_max):.2f}" y2="{y0:.2f}" {axis_style}/>')
    parts.append(f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0:.2f}" y2="{sy(y_max):.2f}" {axis_style}/>')
    for tick in _nice_ticks(x_max):
        tx = sx(tick)
        parts.append(f'<line x1="{tx:.2f}" y1="{y0:.2f}" x2="{tx:.2f}" y2="{y0 + 5:.2f}" {axis_style}/>')
        parts.append(
            f'<text x="{tx:.2f}" y="{y0 + 20:.2f}" text-anchor="middle" {text_style}>{tick:g}</text>'
        )
    for tick in _nice_ticks(y_max):
        ty = sy(tick)
        parts.append(f'<line x1="{x0 - 5:.2f}" y1="{ty:.2f}" x2="{x0:.2f}" y2="{ty:.2f}" {axis_style}/>')
        parts.append(
            f'<text x="{x0 - 8:.2f}" y="{ty + 4:.2f}" text-anchor="end" {text_style}>{tick:g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_CHART_H - 14:.2f}" '
        f'text-anchor="middle" {text_style}>kick index j</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_T + plot_h / 2:.2f}" text-anchor="middle" '
        f'{text_style} transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.2f})">'
        "momentum dispersion</text>"
    )
    for i, rec in enumerate(records):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(
            f"{sx(float(xj)):.2f},{sy(float(yd)):.2f}"
            for xj, yd in zip(rec.aggregate.j, rec.aggregate.dispersion)
        )
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_T + 18 + 18 * i
        lx = _MARGIN_L + 14
        parts.append(
            f'<line x1="{lx:.2f}" y1="{ly - 4:.2f}" x2="{lx + 26:.2f}" y2="{ly - 4:.2f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 32:.2f}" y="{ly:.2f}" {text_style}>{_legend_label(rec.config)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_chart(records: Sequence[RunRecord], path: str) -> None:
    """Write the dispersion chart for one or more records as an SVG file."""
    write_text_atomic(path, render_chart(records))
