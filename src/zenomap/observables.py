"""Dispersion series, occupation profiles, and estimators derived from them.

The single observable tracked through every run is the momentum dispersion
``<(m - m0)^2> = sum (m - m0)^2 |a_m|^2``. Long runs additionally yield a
time-averaged occupation profile, whose exponential envelope gives the
localization length, and the dispersion-versus-time record, from which the
diffusion rate and the time at which diffusive growth stops are estimated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NoLocalizationError, NonFiniteError, NormDriftError
from .kick_engine import QuantumState

_NORM_SLACK = 1e-6
_MIN_OCCUPATION = 1e-12
_MIN_BINS_PER_SIDE = 20
_SLOPE_RATIO = 0.25


@dataclass(frozen=True, eq=False)
class DispersionSeries:
    """Per-kick record of dispersion, total norm, and initial-state occupation.

    Each value column holds one value per kick index ``j``, along its last
    axis: a 1-D column is one run, and ``RunRecord.realizations`` stacks one
    row per realization.
    """

    j: np.ndarray
    dispersion: np.ndarray
    norm: np.ndarray
    p_m0: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "j", np.asarray(self.j, dtype=int))
        for name in ("dispersion", "norm", "p_m0"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.j.size
        if any(getattr(self, f).shape[-1:] != (n,) for f in ("dispersion", "norm", "p_m0")):
            raise ValueError("series columns have mismatched lengths")
        if n == 0:
            raise ValueError("series is empty")
        if np.any(np.diff(self.j) <= 0):
            raise ValueError("kick indices must be strictly increasing")
        # A column's min and max decide each refusal (x - 1.0 is monotone, a nan or an
        # inf reaches them, no rows read 1.0); only naming a fault builds row-sized arrays.
        low = {f: np.min(getattr(self, f), initial=1.0) for f in ("dispersion", "norm", "p_m0")}
        high = {f: np.max(getattr(self, f), initial=1.0) for f in ("dispersion", "norm", "p_m0")}
        if not (low["norm"] - 1.0 >= -_NORM_SLACK and high["norm"] - 1.0 <= _NORM_SLACK):
            worst = float(np.max(np.abs(self.norm - 1.0)))
            raise NormDriftError(f"norm drifted by {worst:.3e}, beyond {_NORM_SLACK:g}")
        for name in ("dispersion", "p_m0"):
            if not np.isfinite([low[name], high[name]]).all():
                column = getattr(self, name)
                first = tuple(np.argwhere(~np.isfinite(column))[0])
                raise NonFiniteError(f"{name} is {column[first]} at kick j = {self.j[first[-1]]}")
        if low["dispersion"] < 0:
            raise ValueError("dispersion must be non-negative")

    def __len__(self) -> int:
        return int(self.j.size)


@dataclass(frozen=True)
class LocalizationFit:
    """Exponential envelope fit of an occupation profile.

    ``length`` is the occupation e-folding scale lambda in
    ``|a_m|^2 ~ exp(-2 |m - m0| / lambda)``; ``residual`` is the RMS misfit
    of the log-profile; ``window`` is the (m_lo, m_hi) range of bins used.
    """

    length: float
    residual: float
    window: tuple[int, int]


@dataclass(frozen=True)
class BreakTimeEstimate:
    """Kick index where diffusive growth slows down.

    ``delocalized`` flags series that never slow down (the estimate is then
    just the end of the series).
    """

    j: int
    delocalized: bool


def dispersion(state: QuantumState) -> float:
    """``sum (m - m0)^2 |a_m|^2`` over the state's window (its support)."""
    lo, hi = state.support
    a = state.amplitudes[lo:hi]
    occupation = np.square(a.real)
    occupation += np.square(a.imag)
    return float(np.dot(state.window.dispersion_weights[lo:hi], occupation))


def fit_localization_length(
    profile: np.ndarray, m0: int, m_min: Optional[int] = None
) -> LocalizationFit:
    """Least-squares exponential envelope of an occupation profile.

    Fits ``log(profile)`` against ``|m - m0|`` jointly over both sides,
    using only bins above ``_MIN_OCCUPATION`` (log of numerical noise would
    dominate otherwise), at least ``_MIN_BINS_PER_SIDE`` of them per side.
    A non-negative slope means there is no decaying envelope and raises
    :class:`NoLocalizationError`; that is the expected outcome for
    delocalized profiles, e.g. under frequent full measurement.

    ``m_min`` gives the quantum number of ``profile[0]``; by default the
    profile is taken as centered on ``m0``.
    """
    profile = np.asarray(profile, dtype=float)
    if m_min is None:
        m_min = m0 - (profile.size - 1) // 2
    m = np.arange(m_min, m_min + profile.size)
    usable = profile > _MIN_OCCUPATION
    below = int(np.count_nonzero(usable & (m < m0)))
    above = int(np.count_nonzero(usable & (m > m0)))
    if below < _MIN_BINS_PER_SIDE or above < _MIN_BINS_PER_SIDE:
        raise ValueError(
            f"need >= {_MIN_BINS_PER_SIDE} usable bins per side, got "
            f"{below} below and {above} above m0"
        )
    x = np.abs(m[usable] - m0).astype(float)
    y = np.log(profile[usable])
    slope, intercept = np.polyfit(x, y, 1)
    if slope >= 0:
        raise NoLocalizationError(
            f"log-profile slope {slope:.3e} is non-negative; profile is not localized"
        )
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    window = (int(m[usable].min()), int(m[usable].max()))
    return LocalizationFit(length=-2.0 / slope, residual=residual, window=window)


def diffusion_slope(series: DispersionSeries, j_lo: int, j_hi: int) -> float | np.ndarray:
    """Least-squares slope of dispersion versus kick index over ``[j_lo, j_hi]``:
    a float for a 1-D series, one slope per row for stacked rows such as
    ``RunRecord.realizations``."""
    if j_hi <= j_lo:
        raise ValueError(f"need j_hi > j_lo, got [{j_lo}, {j_hi}]")
    mask = (series.j >= j_lo) & (series.j <= j_hi)
    if np.count_nonzero(mask) < 2:
        raise ValueError(f"fewer than two series entries in [{j_lo}, {j_hi}]")
    slope = np.polyfit(series.j[mask], series.dispersion[..., mask].T, 1)[0]
    return float(slope) if series.dispersion.ndim == 1 else slope


def detect_break_time(series: DispersionSeries, window: int = 25) -> BreakTimeEstimate:
    """First kick where the local growth rate collapses below the initial one.

    The :func:`diffusion_slope` of each trailing block of ``window`` kicks is
    compared against that of the first block; the break is the first index
    where the trailing slope falls below ``_SLOPE_RATIO`` times the initial
    slope. For a kick strength ``k`` a block of about ``k^2 / 4`` kicks
    resolves the crossover well. Series that never slow down come back with
    the ``delocalized`` flag set.
    """
    if series.dispersion.ndim != 1:
        raise ValueError(
            f"detect_break_time takes one run's series, got rows of shape "
            f"{series.dispersion.shape}; pass one row or RunRecord.aggregate"
        )
    if window < 2:
        raise ValueError(f"window must be >= 2 kicks, got {window}")
    j = series.j
    span = int(j[-1] - j[0])
    if span < 8 * window:
        raise ValueError(
            f"series spans {span} kicks; need at least {8 * window} to "
            f"separate initial and trailing slopes at window={window}"
        )
    threshold = _SLOPE_RATIO * diffusion_slope(series, j[0], j[0] + window)
    for end in j[j >= j[0] + window]:
        if diffusion_slope(series, end - window, end) < threshold:
            return BreakTimeEstimate(j=int(end), delocalized=False)
    return BreakTimeEstimate(j=int(j[-1]), delocalized=True)
