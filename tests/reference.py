"""Test oracles: simple, independent forms of what the package computes.

These are references for the tests, not package API. No code in
``zenomap``, its CLI or its benchmark calls them. pytest puts ``tests/`` on
``sys.path``, so test modules import them as ``reference``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

import zenomap.kick_engine as kick_engine
import zenomap.measurement as measurement
from zenomap.kick_engine import KickKernel, QuantumState, SpectrumModel
from zenomap.two_level import ProbabilityPair, measured_populations

_TWO_PI = 2.0 * math.pi


# -- kicked ladder ------------------------------------------------------------

def copied(state: QuantumState) -> QuantumState:
    """``state`` with its own copy of the amplitudes, for a test that keeps
    the input of an operation: every operation writes into its state."""
    return QuantumState(state.window, state.amplitudes.copy(), state.time_index, state.support)


def array_readout(state: QuantumState, states: tuple[int, ...], rng) -> None:
    """A few-state readout as one array product, however many states it
    reads out: the amplitudes of ``states`` (ascending) times
    ``np.exp(1j * (u * 2 pi))`` for the turns ``u = rng.phases(len(states))``,
    in place. ``rng`` is a :class:`zenomap.measurement.PhaseRandomizer`."""
    positions = np.array([state.window.offset(m) for m in states], dtype=np.intp)
    state.amplitudes[positions] *= np.exp(1j * (rng.phases(positions.size) * _TWO_PI))


def occupations(state: QuantumState) -> np.ndarray:
    """``|a_m|^2`` over the whole window."""
    a = state.amplitudes
    return a.real**2 + a.imag**2


def offsets(kernel: KickKernel) -> np.ndarray:
    """The momentum transfers ``d = -d_max..d_max`` of the kernel's coefficients."""
    return np.arange(-kernel.d_max, kernel.d_max + 1)


def adjoint_step(
    state: QuantumState, kernel: KickKernel, spectrum: SpectrumModel
) -> QuantumState:
    """Exact inverse of :func:`zenomap.step`: conjugate flight, then reversed kernel.

    The kick matrix is real orthogonal, so its inverse is the transpose, a
    convolution with the order-reversed coefficients ``J_{-d}``. The kick
    is ``np.convolve`` on the whole window, clipped to it. Like a forward
    kick it refuses a state with probability near a window edge. Running n
    steps forward and n adjoint steps back recovers the initial state up to
    roundoff as long as no measurement intervened.
    """
    kick_engine._check_kick(state, kernel)
    kick_engine._check_spectrum(state, spectrum)
    undone = state.amplitudes * np.conj(spectrum.multiplier)
    out = np.convolve(undone, kernel.coefficients[::-1], mode="same")
    return QuantumState(state.window, out, state.time_index - 1)


def time_averaged_profile(states: Iterable[QuantumState]) -> np.ndarray:
    """Mean occupation per basis state over a sequence of snapshots.

    Accepts any iterable (including a generator, so snapshots need not be
    kept in memory); all snapshots must share one window.
    """
    total: Optional[np.ndarray] = None
    window = None
    count = 0
    for state in states:
        if total is None:
            window = state.window
            total = occupations(state).astype(float)
        else:
            if state.window != window:
                raise ValueError("profile snapshots span different windows")
            total += occupations(state)
        count += 1
    if total is None:
        raise ValueError("no snapshots given")
    return total / count


def split_turns(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(h + 4096, sin r, cos r - 1)`` for turns ``t`` split at the nearest
    ``h / 4096``, as :func:`zenomap.measurement._split_turns` splits them
    in place, here as whole arrays."""
    t = t * 4096
    h = np.rint(t)
    r = (t - h) * (_TWO_PI / 4096)
    r2 = r * r
    sin_r = (r2 * (1.0 / 120.0) - 1.0 / 6.0) * r2 * r + r
    cos_r1 = (r2 * (1.0 / 24.0) - 0.5) * r2
    return (h + 4096).astype(np.intp), sin_r, cos_r1


def split_phase_factors(turns: np.ndarray) -> np.ndarray:
    """``exp(2 pi i turns)`` as the all-states readout forms it:
    ``table[h] ((1 + (cos r - 1)) + i sin r)`` from :func:`split_turns`."""
    index, sin_r, cos_r1 = split_turns(turns)
    residual = np.empty(turns.size, dtype=np.complex128)
    residual.real = 1.0 + cos_r1
    residual.imag = sin_r
    factors = measurement._turn_table()[index]
    factors *= residual
    return factors


def turn_sine(t: np.ndarray) -> np.ndarray:
    """``sin(2 pi t)`` as the two-level Monte Carlo forms it from the turn
    table: ``S + (C sin r + S (cos r - 1))`` from :func:`split_turns`."""
    index, sin_r, cos_r1 = split_turns(t)
    table = measurement._turn_table()[index]
    return table.imag + (table.real * sin_r + table.imag * cos_r1)


# -- two-level system ---------------------------------------------------------

def measured_probability_step(p: ProbabilityPair, phi: float) -> ProbabilityPair:
    """Advance the populations by one segment with readout in between.

    With the phases randomized by the preceding readout, the populations mix
    through ``cos^2(phi)`` / ``sin^2(phi)`` weights only; the result again
    sums to one exactly.
    """
    c2 = math.cos(phi) ** 2
    s2 = 1.0 - c2
    return ProbabilityPair(c2 * p.p1 + s2 * p.p2, s2 * p.p1 + c2 * p.p2)


def measured_evolve_closed(p: ProbabilityPair, phi: float, n: int) -> ProbabilityPair:
    """Populations after ``n`` measured segments, by ``measured_populations``."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return p
    p1, p2 = measured_populations(p, phi, n)
    return ProbabilityPair(float(p1), float(p2))


# -- classical baseline -------------------------------------------------------

@dataclass(frozen=True)
class ClassicalParticle:
    """Single trajectory point: action and angle (angle kept in [0, 2*pi))."""

    action: float
    angle: float


def classical_step(p: ClassicalParticle, k: float, tau: float) -> ClassicalParticle:
    """One kick plus free rotation: ``I' = I + k sin(theta)``, ``theta' = theta + tau I'``."""
    action = p.action + k * math.sin(p.angle)
    angle = (p.angle + tau * action) % _TWO_PI
    return ClassicalParticle(action, angle)
