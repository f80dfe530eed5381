"""Measurement as scheduled phase randomization of basis amplitudes.

Reading out the population of a basis state leaves its occupation unchanged
but erases all interference between that state and the rest: the amplitude
keeps its modulus and acquires a fresh uniform random phase, uncorrelated
with anything drawn before. After each kick in ``MeasurementSchedule.kicks``
a schedule reads out the states of its mode, one of ``MODES``: ``"all"`` (the
whole window), or a few states in one way: ``"subset"`` (a fixed nonempty
list ``subset``), ``"initial"`` (``(m0,)``, the initial state) or ``"none"``.

Phase draws are owned by an exclusive, seeded stream so that runs are
bit-reproducible: a measurement event consumes exactly one draw per measured
index, in ascending index order.

A phase is drawn in turns, ``u`` uniform on [0, 1), and its factor is
``exp(2*pi*i*u)``. An all-states readout reads it from the turn table at the
nearest ``h/4096`` (:func:`_turn_table`, :func:`_split_turns`), as the
two-level Monte Carlo reads its sine; on 10^5 draws its parts were within
2.6e-16 of the exact cosine and sine. A few-state readout touches a handful
of amplitudes, where the exponential is cheaper than the split, so it keeps
``np.exp(1j * (u * 2*pi))``. A readout of one state (``"initial"``, or a
one-state ``subset``) multiplies scalars, which gives the bits of the
one-element array product. A readout of two or more states keeps one array
product: on two or more elements numpy's complex product differs from scalar
arithmetic in the last bit of about 44 % of products. An all-states readout
still draws one phase per window state, but builds factors only for the
state's ``support``, outside which every amplitude is zero.

A readout writes into ``state.amplitudes`` and returns ``None``, like every
operation of :mod:`zenomap.kick_engine`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .kick_engine import QuantumState

_TWO_PI = 2.0 * np.pi
_TURNS = 4096
# pi / 2048 to 43 bits, so that h * _EIGHTH_HEAD is exact for h <= 512, and
# the rest of pi / 2048 (pi - float(pi) is 1.2246467991473532e-16)
_EIGHTH_HEAD = math.ldexp(math.floor(math.ldexp(math.pi / 2048, 52)), -52)
_EIGHTH_TAIL = (math.pi / 2048 - _EIGHTH_HEAD) + 1.2246467991473532e-16 / 2048

MODES = ("none", "subset", "all", "initial")


@dataclass(frozen=True)
class MeasurementSchedule:
    """Which states are read out (``mode``, one of ``MODES``), after which kicks (``kicks``)."""

    mode: str
    period: int = 1
    subset: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {', '.join(MODES)}, got {self.mode!r}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if self.mode == "subset":
            if not self.subset:
                raise ValueError("subset mode requires a nonempty list of states")
            ordered = tuple(sorted(self.subset))
            if len(set(ordered)) != len(ordered):
                raise ValueError(f"subset contains duplicate states: {self.subset}")
            object.__setattr__(self, "subset", ordered)
        elif self.subset is not None:
            raise ValueError(f"subset given but mode is {self.mode}")

    def kicks(self, n_kicks: int) -> range:
        """The kicks ``1 <= j <= n_kicks`` after which a readout fires."""
        stop = 0 if self.mode == "none" else n_kicks + 1
        return range(self.period, stop, self.period)


@dataclass
class PhaseRandomizer:
    """Deterministic stream of measurement phases.

    Identical ``(master_seed, realization)`` pairs replay identical draws.
    Parallel realizations get independent substreams; a randomizer must not
    be shared between realizations.
    """

    master_seed: int
    realization: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(0, self.realization))
        self._rng = np.random.Generator(np.random.PCG64(seq))

    def phases(self, count: int) -> np.ndarray:
        """Next ``count`` phases in turns, i.i.d. uniform on [0, 1):
        ``random(count)``, whose draws are multiples of 2**-53."""
        return self._rng.random(count)


@functools.cache
def _turn_table() -> np.ndarray:
    """``exp(2 pi i h / 4096)`` at index ``h + 4096``, ``h = -4096 ... 4096``,
    read-only. Only the first eighth of a turn is computed, as
    ``sin(a) + cos(a) d`` and ``cos(a) - sin(a) d`` for an exact ``a`` and a
    residual ``d`` below 1.2e-13; symmetry gives the rest, so every zero and
    one is exact and every entry within one ulp."""
    h = np.arange(_TURNS // 8 + 1)
    a, d = h * _EIGHTH_HEAD, h * _EIGHTH_TAIL
    sin_a, cos_a = np.sin(a), np.cos(a)
    sin_e, cos_e = sin_a + cos_a * d, cos_a - sin_a * d
    quarter = np.concatenate((sin_e, cos_e[-2::-1]))  # h = 0 ... 1024
    half = np.concatenate((quarter, quarter[-2::-1]))  # h = 0 ... 2048
    turn = np.concatenate((half, -half[1:-1]))  # h = 0 ... 4095
    h = np.arange(-_TURNS, _TURNS + 1)
    table = np.empty(h.size, dtype=np.complex128)
    table.real, table.imag = turn[(h + _TURNS // 4) % _TURNS], turn[h % _TURNS]
    table.flags.writeable = False
    return table


def _split_turns(t, sin_r, scratch, index):
    """Split turns ``t``, ``|t| <= 1``, at ``h = rint(4096 t)``, which is
    exact, as ``4096 t`` is. Returns ``index``, ``sin_r`` and ``t``,
    overwritten with ``h + 4096`` and the Taylor series through ``r**5`` of
    ``sin r`` and ``cos r - 1``, for the residual angle
    ``r = (4096 t - h) 2 pi / 4096`` (one rounding, ``|r| <= pi / 4096``);
    ``scratch`` is overwritten too."""
    r, r2 = t, scratch
    r *= _TURNS
    np.rint(r, out=sin_r)
    r -= sin_r
    r *= _TWO_PI / _TURNS
    np.add(sin_r, _TURNS, out=index, casting="unsafe")
    np.multiply(r, r, out=r2)
    np.multiply(r2, 1.0 / 120.0, out=sin_r)
    sin_r -= 1.0 / 6.0
    sin_r *= r2
    sin_r *= r
    sin_r += r
    cos_r1 = np.multiply(r2, 1.0 / 24.0, out=r)
    cos_r1 -= 0.5
    cos_r1 *= r2
    return index, sin_r, cos_r1


def _phase_factors(turns: np.ndarray) -> np.ndarray:
    """``exp(2 pi i turns)`` as ``table[h] ((1 + (cos r - 1)) + i sin r)``
    from :func:`_split_turns`, for ``|turns| <= 1``; overwrites ``turns``."""
    size = turns.size
    index, sin_r, cos_r1 = _split_turns(
        turns, np.empty(size), np.empty(size), np.empty(size, dtype=np.intp)
    )
    factors = _turn_table().take(index)
    # Spent buffers are freed early, so that the next allocation reuses their
    # chunks: without the del, preset d ran 0.5 to 1 us per kick slower.
    del index
    residual = np.empty(size, dtype=np.complex128)
    np.add(cos_r1, 1.0, out=residual.real)
    residual.imag = sin_r
    del sin_r, cos_r1
    factors *= residual
    return factors


def apply_measurement(
    state: QuantumState, schedule: MeasurementSchedule, rng: PhaseRandomizer
) -> None:
    """Randomize the phases of the measured amplitudes of ``state``, in place.

    Occupations are untouched exactly (the amplitudes are multiplied by unit
    phase factors) and unmeasured amplitudes are left bit-identical, so any
    interference among unmeasured states survives. A few-state readout takes
    one draw per state, in ascending ``m`` (none for ``"none"``), and raises
    ``ValueError`` for a state outside the window before it draws or writes
    anything.
    """
    window = state.window
    amplitudes = state.amplitudes
    if schedule.mode == "all":
        # Every state draws, so the stream does not depend on the support.
        # Factors first: numpy's complex product is not bitwise symmetric.
        lo, hi = state.support
        a = amplitudes[lo:hi]
        np.multiply(_phase_factors(rng.phases(window.size)[lo:hi]), a, out=a)
    else:
        states = (window.m0,) if schedule.mode == "initial" else schedule.subset or ()
        if len(states) == 1:
            pos = window.offset(states[0])
            amplitudes[pos] *= np.exp(1j * (rng.phases(1)[0] * _TWO_PI))
        else:
            positions = np.array([window.offset(m) for m in states], dtype=np.intp)
            amplitudes[positions] *= np.exp(1j * (rng.phases(positions.size) * _TWO_PI))
