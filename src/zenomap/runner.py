"""Config-driven experiment runner: scenarios and CSV series.

A run is described by a flat ``key = value`` text document (``#`` starts a
comment, unknown keys are rejected, and so is a key set away from its default
that the run's experiment does not read: see ``_READS``). ``CONFIG_KEYS``
holds each key's parser and bound; the command line checks its options by
the same rules. The defaults reproduce the canonical kicked-rotator
scenario: initial state 500, kick strength 10, period 1, momentum window
halfwidth 2000. Scenario presets a-d select the four measurement schedules
(none / initial state every kick / all states every 200 kicks / all states
every kick).

Reproducibility contract: a run is a pure function of (config, seed).
Measurement phases for realization ``r`` come from the substream
``SeedSequence(seed, spawn_key=(0, r))``. The window, kick kernel and level
spectrum (a random one drawn once from ``SeedSequence(seed)``) are properties
of the system, built once per run and shared read-only by every realization,
which owns only its phase stream and state. Realization ``r`` writes its
columns into row ``r`` of the run's ``(realizations, n_kicks + 1)`` arrays; a
run without random input (a zeno run, or a kicked run whose readout never
fires: its ``measurement_mode`` is ``none`` or its ``measurement_period``
exceeds ``n_kicks``) computes one row, which stands for every realization.
The aggregate is the mean over the rows, so output bytes depend neither on
the thread count nor, in a run of one row, on ``realizations``.

Classical realizations evolve in row blocks: each block is one
``ClassicalEnsemble`` holding several realizations' particles, evolved by one
``ensemble_series`` call, so a step makes one call per numpy operation for
the whole block. The blocks are ``zenomap.pool.map_chunks`` chunks of the
realizations, capped at ``_BLOCK_PARTICLES`` particles (at least one
realization), on a thread pool capped by the ``ZENO_MAP_THREADS``
environment variable. Each row is byte-identical to its realization evolved
alone, so output bytes depend on neither the block shape nor the thread
count. Kicked realizations run one after another on the calling thread:
each kick makes dozens of small numpy calls, whose hand-offs of the GIL make
a second thread slower than one. ``ZENO_MAP_THREADS`` is checked on every
run all the same.
"""

from __future__ import annotations

import dataclasses
import errno
import math
import os
import secrets
import stat
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

import numpy as np

from . import __version__
from .classical import ClassicalEnsemble, ensemble_series
from .errors import ConfigError
from .kick_engine import (
    BasisWindow,
    QuantumState,
    SpectrumModel,
    build_kernel,
    step,
)
from .measurement import (
    MODES,
    MeasurementSchedule,
    PhaseRandomizer,
    apply_measurement,
)
from .observables import DispersionSeries, dispersion
from .pool import map_chunks, thread_budget
from .two_level import ProbabilityPair, measured_populations

# Scenario presets: measurement schedule per curve label.
PRESETS = {
    "a": {"measurement_mode": "none", "measurement_period": 1},
    "b": {"measurement_mode": "initial", "measurement_period": 1},
    "c": {"measurement_mode": "all", "measurement_period": 200},
    "d": {"measurement_mode": "all", "measurement_period": 1},
}

# Particles one block of classical realizations may hold; it bounds the
# block's buffers, and with them the run's peak memory.
_BLOCK_PARTICLES = 20_000

# Free-flight spectrum per ``spectrum`` value.
_SPECTRA = {
    "rotator": lambda config, window: SpectrumModel.rotator(window, config.tau),
    "linear": lambda config, window: SpectrumModel.linear(window, config.tau, config.omega),
    "random": lambda config, window: SpectrumModel.random_levels(window, config.seed),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated description of one run: every construction checks each
    field's ``CONFIG_KEYS`` rule, that the run reads every key set away from
    its default (``_READS``), the schedule, the window and, for a kicked run,
    that the window holds the kick kernel (``ConfigError``)."""

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
        reads = _READS[self.experiment]
        for field in dataclasses.fields(self):
            key = field.name
            if key in _SHARED_KEYS or getattr(self, key) == field.default:
                continue
            if key not in reads:
                raise ConfigError(f"a {self.experiment} run does not read this key", key)
            if reads[key] is not None:
                other, values = reads[key]
                if getattr(self, other) not in values:
                    raise ConfigError(
                        f"a {self.experiment} run reads this key only with "
                        f"{other} = {' or '.join(values)}", key,
                    )
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
        if self.experiment == "kicked":
            if self.k > self.window_halfwidth:  # d_max >= k, so refuse before building
                raise ConfigError(
                    f"must be >= {math.ceil(self.k)} for k = {self.k:g} "
                    "(the kick kernel reaches at least k states each way)", "window_halfwidth",
                )
            d_max = build_kernel(self.k).d_max
            if d_max > self.window_halfwidth:
                raise ConfigError(
                    f"must be >= {d_max} for k = {self.k:g} "
                    f"(kick kernel of {2 * d_max + 1} states)", "window_halfwidth",
                )

    def window(self) -> BasisWindow:
        return BasisWindow.centered(self.m0, self.window_halfwidth)

    def schedule(self) -> MeasurementSchedule:
        return MeasurementSchedule(self.measurement_mode, self.measurement_period, self.subset)

    def spectrum_model(self, window: BasisWindow) -> SpectrumModel:
        return _SPECTRA[self.spectrum](self, window)

    def with_preset(self, letter: str) -> "ExperimentConfig":
        if letter not in PRESETS:
            raise ConfigError(f"unknown preset '{letter}'; choose one of {', '.join(PRESETS)}")
        if self.experiment != "kicked":
            # preset a sets only defaults, which a non-kicked run would accept
            raise ConfigError(
                f"preset '{letter}' sets a kicked run's readout; "
                f"this is a {self.experiment} run"
            )
        return dataclasses.replace(self, subset=None, **PRESETS[letter])


# ---------------------------------------------------------------------------
# simulators

# Each simulator returns the run's (3, distinct, n_kicks + 1) rows: dispersion,
# norm and p_m0, one row per distinct realization.

def _simulate_kicked(config: ExperimentConfig) -> np.ndarray:
    # Serial, on this thread (see the module docstring). Each row is checked
    # before the next realization starts, so the lowest failing one wins.
    window = config.window()
    kernel = build_kernel(config.k)
    spectrum = config.spectrum_model(window)
    schedule = config.schedule()
    home = window.offset(window.m0)
    n = config.n_kicks
    j = np.arange(n + 1)
    # a readout that never fires draws no phase: every realization is realization 0
    readouts = schedule.kicks(n)
    rows = np.empty((3, config.realizations if readouts else 1, n + 1))
    for r in range(rows.shape[1]):
        rng = PhaseRandomizer(config.seed, r)
        state = QuantumState.delta(window)
        disp, norm, p_home = rows[:, r]
        for kick in range(n + 1):
            if kick:
                step(state, kernel, spectrum)
                if kick in readouts:
                    apply_measurement(state, schedule, rng)
            disp[kick] = dispersion(state)
            norm[kick] = state.norm_sq()
            p_home[kick] = abs(state.amplitudes[home]) ** 2
        DispersionSeries(j, disp, norm, p_home)
    return rows


def _simulate_classical(config: ExperimentConfig) -> np.ndarray:
    I0 = float(config.m0)
    rows = np.empty((3, config.realizations, config.n_kicks + 1))

    def block(lo: int, hi: int) -> None:
        ensemble = ClassicalEnsemble(
            np.concatenate([
                ClassicalEnsemble.prepared(
                    config.particles, I0, config.tau, config.k,
                    seed=np.random.SeedSequence(config.seed, spawn_key=(0, r)),
                ).particles
                for r in range(lo, hi)
            ]),
            I0, config.tau, config.k, hi - lo,
        )
        series = ensemble_series(ensemble, config.n_kicks)
        for column, values in zip(rows, (series.dispersion, series.norm, series.p_m0)):
            column[lo:hi] = values

    map_chunks(block, config.realizations, cap=max(1, _BLOCK_PARTICLES // config.particles))
    return rows


def _simulate_zeno(config: ExperimentConfig) -> np.ndarray:
    # The two-level system read out after every segment, from level 1. For the
    # ladder m in {m0, m0 + 1}, the momentum dispersion reduces to the transfer
    # probability p2, and p_m0 is the survival probability p1. An overflowing
    # phase gives nan rows, which the record rejects.
    j = np.arange(config.n_kicks + 1)
    p1, p2 = measured_populations(ProbabilityPair(1.0, 0.0), 0.5 * config.omega * config.tau, j)
    return np.stack([p2, np.ones(j.size), p1])[:, None]


# Simulator per experiment.
_SIMULATORS = {
    "zeno": _simulate_zeno,
    "kicked": _simulate_kicked,
    "classical": _simulate_classical,
}

# Keys every run reads, whatever its experiment.
_SHARED_KEYS = ("experiment", "seed", "realizations", "output_path", "emit_svg")

# The other keys each experiment reads: ``None`` for a key it always reads, or
# ``(other, values)`` for one it reads only while key ``other`` is in
# ``values``. ExperimentConfig refuses a key whose value differs from its
# default but that the run does not read.
_READS = {
    "zeno": dict.fromkeys(("tau", "omega", "n_kicks")),
    "kicked": {
        "spectrum": None,
        "m0": None,
        "k": None,
        "tau": ("spectrum", ("rotator", "linear")),  # a random spectrum has no period
        "n_kicks": None,
        "window_halfwidth": None,
        "measurement_mode": None,
        "measurement_period": ("measurement_mode", tuple(m for m in MODES if m != "none")),
        "subset": None,
        "omega": ("spectrum", ("linear",)),
    },
    "classical": dict.fromkeys(("m0", "k", "tau", "n_kicks", "particles")),
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
    "m0": KeyRule(_integer, lambda m0: abs(m0) <= 2**53,
                  "must be between -2**53 and 2**53 (integers exact in float64)"),
    "k": KeyRule(_number, lambda k: 0 <= k < math.inf, "kick strength must be >= 0"),
    "tau": KeyRule(_number, lambda tau: 0 < tau < math.inf, "kick period must be positive"),
    "n_kicks": _at_least(1),
    "window_halfwidth": _at_least(8, "must be >= 8 (window of at least 16 states)"),
    "measurement_mode": _one_of(MODES),
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

@dataclass(eq=False)
class RunRecord:
    """Everything one run produced: row r of the read-only ``realizations``
    columns is realization r, and ``aggregate`` is their mean over the rows."""

    config: ExperimentConfig
    realizations: DispersionSeries
    aggregate: DispersionSeries
    wall_time: float
    version: str = __version__

    @property
    def realization_series(self) -> list[DispersionSeries]:
        """One series per row of ``realizations``; kept because the benchmark's
        output check (``perfbench/worker.py``) reads this name."""
        runs = self.realizations
        return [DispersionSeries(runs.j, *row) for row in zip(runs.dispersion, runs.norm, runs.p_m0)]


def run_experiment(config: ExperimentConfig) -> RunRecord:
    """Execute every realization of ``config`` and aggregate the series.

    Deterministic given (config, seed): identical inputs produce identical
    records regardless of the thread budget and of how a simulator splits
    its work (see the module docstring).
    """
    t0 = time.perf_counter()
    thread_budget()  # an invalid ZENO_MAP_THREADS fails serial runs too
    rows = _SIMULATORS[config.experiment](config)
    j = np.arange(config.n_kicks + 1)
    shape = (config.realizations, j.size)
    return RunRecord(
        config=config,
        realizations=DispersionSeries(j, *(np.broadcast_to(c, shape) for c in rows)),
        # the mean of one row is that row, bit for bit (no column holds -0.0)
        aggregate=DispersionSeries(j, *(c.mean(axis=0) for c in rows)),
        wall_time=time.perf_counter() - t0,
    )


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


def _check_output_path(path: str) -> None:
    """The output-path rule, which the CLI applies before a run and
    :func:`write_text_atomic` before it writes: raise the ``OSError``, naming
    ``path``, of writing onto a directory or into a missing directory. A path
    whose last component is empty (``out/``) names no file: it fails with
    ``EISDIR`` when it names a directory, and otherwise with the error of
    ``lstat`` (``ENOTDIR`` or ``ENOENT``). Any other write failure is left to
    the write."""
    try:
        mode = os.lstat(path).st_mode
    except OSError as err:
        missing = isinstance(err, FileNotFoundError) and not os.path.isdir(
            os.path.dirname(path) or os.curdir
        )
        if missing or not os.path.basename(path):
            raise
        return
    if stat.S_ISDIR(mode):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def write_text_atomic(path: str, text: str) -> None:
    """Write UTF-8 ``text`` to ``path`` via a temporary file that ``os.replace``
    moves into place; the file gets ``open(path, "w")``'s mode (0666 less the
    umask), and on failure an existing ``path`` is left unchanged. An
    ``OSError`` that names the temporary file is raised again naming
    ``path`` instead. :func:`_check_output_path` comes first, so a path
    ending in a separator fails with its own fault."""
    _check_output_path(path)
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as err:
        if tmp not in (err.filename, err.filename2):
            raise
        raise type(err)(err.errno, err.strerror, path) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_csv(record: RunRecord, path: str) -> None:
    """Write the aggregate series as ``j,dispersion,norm,p_m0`` rows."""
    write_text_atomic(path, render_csv(record.aggregate))
