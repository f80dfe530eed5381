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
    ``np.exp(1j * rng.phases(len(states)))``, in place. ``rng`` is a
    :class:`zenomap.measurement.PhaseRandomizer`."""
    positions = np.array([state.window.offset(m) for m in states], dtype=np.intp)
    state.amplitudes[positions] *= np.exp(1j * rng.phases(positions.size))


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


def split_phase_factors(betas: np.ndarray) -> np.ndarray:
    """``exp(1j * betas)`` for phases in ``[0, 2*pi)`` by the table-and-residual
    split of :mod:`zenomap.measurement`, with the Taylor sine and cosine
    computed as whole arrays and then copied into the residual factor.
    The package writes them into the residual in place, which must give
    the same bits. Overwrites ``betas``."""
    step, table = measurement._PHASE_STEP, measurement._PHASE_TABLE
    work = betas * (1.0 / step)
    h = work.astype(np.intp)
    split = np.multiply(h, step, out=work)
    factors = table.take(h)
    r = np.subtract(betas, split, out=betas)
    r2 = np.multiply(r, r, out=work)
    poly = r2 * (1.0 / 120.0)
    poly -= 1.0 / 6.0
    poly *= r2
    poly += 1.0
    sin = np.multiply(r, poly, out=r)
    cos = np.multiply(r2, 1.0 / 24.0, out=poly)
    cos -= 0.5
    cos *= r2
    cos += 1.0
    residual = np.empty(betas.size, dtype=np.complex128)
    residual.real = cos
    residual.imag = sin
    factors *= residual
    return factors


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
