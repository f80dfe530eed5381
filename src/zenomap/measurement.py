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

When every state is read out, the factors ``exp(i*beta)`` are not taken from a
complex exponential. Each draw splits as ``beta = h*s + r`` with step
``s = 2*pi/4096``, ``h = int(beta/s)`` and residual ``|r| < s``; the factor is
the tabulated ``exp(i*h*s)`` (4097 entries, 64 KiB, built once at import)
times ``exp(i*r)`` from its Taylor series through ``r^5``, whose truncation
error is below 1e-19. The result agrees with ``np.exp(1j*beta)`` to a few
units in the last place, and the draws are the same as with the exponential.
A few-state readout touches a handful of amplitudes, where the exponential
is cheaper than the split, so it keeps ``np.exp``. A readout of one state
(``"initial"``, or a one-state ``subset``) multiplies scalars, which gives
the bits of the one-element array product. A readout of two or more states
keeps one array product: on two or more elements numpy's complex product
differs from scalar arithmetic in the last bit of about 44 % of products. An
all-states readout still draws one phase per window state, but builds
factors only for the state's ``support``, outside which every amplitude is
zero.

A readout writes into ``state.amplitudes`` and returns ``None``, like every
operation of :mod:`zenomap.kick_engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .kick_engine import QuantumState

_PHASE_STEP = 2.0 * np.pi / 4096
# h*s is formed by the same float product here and in _phase_factors, so the
# table entry and the residual refer to one and the same split point.
_PHASE_TABLE = np.exp(1j * (np.arange(4097) * _PHASE_STEP))
_PHASE_TABLE.flags.writeable = False

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
        """Next ``count`` phases, i.i.d. uniform on [0, 2*pi).

        The same draws as ``uniform(0, 2*pi, count)``, bit for bit, since that
        computes ``0 + 2*pi * u``.
        """
        return self._rng.random(count) * (2.0 * np.pi)


def _phase_factors(betas: np.ndarray) -> np.ndarray:
    """``exp(1j * betas)`` for phases in ``[0, 2*pi)``; overwrites ``betas``.

    ``r = beta - h*s`` is exact, since both operands lie within a factor of
    two of each other (or ``h = 0``). The rounded ``beta * (1/s)`` may put
    ``h`` one off near a multiple of ``s``, which moves ``r`` just outside
    ``[0, s)`` at no cost in accuracy; ``beta < 2*pi`` keeps ``h <= 4096``.
    """
    work = betas * (1.0 / _PHASE_STEP)
    h = work.astype(np.intp)
    split = np.multiply(h, _PHASE_STEP, out=work)
    factors = _PHASE_TABLE.take(h)
    # Spent buffers are freed early, so that the next allocation reuses their
    # chunks: without either del, preset d ran 0.5 to 1 us per kick slower.
    del h
    residual = np.empty(betas.size, dtype=np.complex128)
    r = np.subtract(betas, split, out=betas)
    r2 = np.multiply(r, r, out=work)
    poly = r2 * (1.0 / 120.0)
    poly -= 1.0 / 6.0
    poly *= r2
    poly += 1.0
    np.multiply(r, poly, out=residual.imag)
    cos = np.multiply(r2, 1.0 / 24.0, out=poly)
    cos -= 0.5
    cos *= r2
    np.add(cos, 1.0, out=residual.real)
    del work, split, r2, poly, cos
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
            amplitudes[pos] *= np.exp(1j * rng.phases(1)[0])
        else:
            positions = np.array([window.offset(m) for m in states], dtype=np.intp)
            amplitudes[positions] *= np.exp(1j * rng.phases(positions.size))
