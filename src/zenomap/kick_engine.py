"""Banded unitary map for a periodically kicked multilevel ladder.

One period of the driven system splits into two unitaries on a truncated
momentum basis: the kick, a convolution of the amplitudes with Bessel-function
weights ``J_d(k)`` over momentum transfer ``d``, and the free flight, a
diagonal phase advance ``exp(-i H0(m) tau)``. Amplitudes are stored in the
gauge that makes the kick kernel purely real, so the kick is a real banded
orthogonal convolution and the only complex factors live in the free flight.

The kernel is truncated where its coefficients fall below a threshold
(Bessel coefficients decay superexponentially past ``|d| ~ k``), and the
basis window is policed every kick: once probability comes within the
kernel bandwidth of a window edge the run aborts rather than silently
leaking norm.

A localized state leaves most of the window at amplitudes far below
roundoff, so every state carries a ``support``: the half-open range of
array positions outside which each amplitude is exactly zero. Every
operation works on that slice only. A kick widens the support by the kernel
bandwidth ``d_max`` on each side (clipped to the window), then drops each
end band of ``d_max`` bins whose probability is below ``_SLICE_EPS``
(1e-30), zeroing it; a kick thus discards at most ``2 * _SLICE_EPS`` of
norm. On a support that spans the whole window the kick is the plain
``"same"``-mode convolution, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import jv

from .errors import TruncationOverflowError

# The states within the kernel bandwidth of the window edges may carry at most
# this much probability before a kick; past it the run aborts.
_BOUNDARY_LIMIT = 1e-10
_MIN_WINDOW = 16
# build_kernel truncates the kernel past the last |J_d(k)| >= this.
_KERNEL_EPS = 1e-14
# A kick zeroes an end band of its support that carries less probability
# than this and shrinks the support past it.
_SLICE_EPS = 1e-30


@dataclass(frozen=True)
class BasisWindow:
    """Contiguous block of momentum quantum numbers ``m_min..m_max``.

    ``m0`` marks the initially occupied state; dispersion and localization
    profiles are measured relative to it. Negative quantum numbers are
    allowed (rotator momenta are unbounded in both directions).
    """

    m_min: int
    m_max: int
    m0: int

    def __post_init__(self) -> None:
        if not self.m_min <= self.m0 <= self.m_max:
            raise ValueError(
                f"m0={self.m0} outside window [{self.m_min}, {self.m_max}]"
            )
        if self.size < _MIN_WINDOW:
            raise ValueError(
                f"window size {self.size} below minimum {_MIN_WINDOW}"
            )

    @property
    def size(self) -> int:
        return self.m_max - self.m_min + 1

    def indices(self) -> np.ndarray:
        """Quantum numbers of every basis state, ascending."""
        return np.arange(self.m_min, self.m_max + 1)

    @cached_property
    def dispersion_weights(self) -> np.ndarray:
        """``(m - m0)^2`` for every basis state, computed once, read-only."""
        offsets = (self.indices() - self.m0).astype(float)
        weights = offsets * offsets
        weights.flags.writeable = False
        return weights

    def offset(self, m: int) -> int:
        """Array position of quantum number ``m``."""
        if not self.m_min <= m <= self.m_max:
            raise ValueError(f"m={m} outside window [{self.m_min}, {self.m_max}]")
        return m - self.m_min

    @classmethod
    def centered(cls, m0: int, halfwidth: int) -> "BasisWindow":
        return cls(m0 - halfwidth, m0 + halfwidth, m0)


@dataclass
class QuantumState:
    """Complex amplitude vector over a :class:`BasisWindow`.

    ``time_index`` counts completed kicks; the amplitudes always describe
    the state immediately before the next kick. Operations return new
    states and never mutate their input.

    ``support = (lo, hi)`` is a nonempty half-open range of array positions
    outside which every amplitude is exactly zero; operations read and write
    only that slice. It defaults to the whole window, and the constructor
    trusts it without scanning the amplitudes. A kick's support is
    ``_SLICE_EPS``-trimmed (see the module docstring).
    """

    window: BasisWindow
    amplitudes: np.ndarray
    time_index: int = 0
    support: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        size = self.window.size
        if self.amplitudes.shape != (size,):
            raise ValueError(
                f"amplitude vector length {self.amplitudes.shape} does not "
                f"match window size {size}"
            )
        if self.support is None:
            self.support = (0, size)
        lo, hi = self.support
        if not 0 <= lo < hi <= size:
            raise ValueError(f"support {self.support} is not a nonempty range within [0, {size}]")

    def norm_sq(self) -> float:
        lo, hi = self.support
        a = self.amplitudes[lo:hi]
        return float(np.vdot(a, a).real)

    def occupations(self) -> np.ndarray:
        a = self.amplitudes
        return a.real**2 + a.imag**2

    def boundary_occupation(self, width: int) -> tuple[float, float]:
        """Probability within ``width`` bins of the (lower, upper) window edge."""
        a = self.amplitudes
        lo, hi = a[:width], a[a.size - width:]
        return float(np.vdot(lo, lo).real), float(np.vdot(hi, hi).real)

    @classmethod
    def delta(cls, window: BasisWindow) -> "QuantumState":
        """Unit amplitude on the initial state ``m0``, before any kick."""
        a = np.zeros(window.size, dtype=np.complex128)
        home = window.offset(window.m0)
        a[home] = 1.0
        return cls(window, a, 0, (home, home + 1))


def _zero_outside(size: int, support: tuple[int, int]) -> np.ndarray:
    """A new complex vector that is zero outside ``support`` and unset inside."""
    lo, hi = support
    out = np.empty(size, dtype=np.complex128)
    out[:lo] = 0.0
    out[hi:] = 0.0
    return out


def _times(state: QuantumState, factors: np.ndarray) -> np.ndarray:
    """The amplitudes times the window-length ``factors``, on the support only."""
    lo, hi = state.support
    out = _zero_outside(state.amplitudes.size, state.support)
    np.multiply(state.amplitudes[lo:hi], factors[lo:hi], out=out[lo:hi])
    return out


@dataclass(frozen=True)
class KickKernel:
    """Real convolution weights ``J_d(k)`` for momentum transfers ``|d| <= d_max``."""

    coefficients: np.ndarray  # index d + d_max, d = -d_max..d_max

    @property
    def d_max(self) -> int:
        return self.coefficients.size // 2

    def offsets(self) -> np.ndarray:
        return np.arange(-self.d_max, self.d_max + 1)


@lru_cache(maxsize=8)
def build_kernel(k: float) -> KickKernel:
    """The kick weights for strength ``k``, truncated at ``_KERNEL_EPS``; one
    shared kernel per ``k`` (the last 8 are kept), with read-only coefficients.

    ``d_max`` is the smallest bandwidth with ``|J_d(k)| < _KERNEL_EPS`` for every
    ``|d| > d_max``. The weights satisfy ``sum J_d^2 = 1`` (the kick is
    unitary), ``sum d J_d^2 = 0`` (no mean momentum transfer) and
    ``sum d^2 J_d^2 = k^2 / 2`` (the single-kick dispersion increment).
    """
    if k < 0:
        raise ValueError(f"kick strength must be >= 0, got {k}")
    # Past the turning region |d| ~ k the coefficients decay superexponentially;
    # scan a generous band, extending until the tail is below threshold.
    d_hi = int(np.ceil(k + 12.0 * k ** (1.0 / 3.0) + 26.0))
    while abs(jv(d_hi, k)) >= _KERNEL_EPS:
        d_hi += 16
    magnitudes = np.abs(jv(np.arange(d_hi + 1), k))
    d_max = int(np.flatnonzero(magnitudes >= _KERNEL_EPS)[-1])  # sum J_d^2 = 1: never empty
    coefficients = jv(np.arange(-d_max, d_max + 1), k)
    coefficients.flags.writeable = False
    return KickKernel(coefficients)


def _check_kick(state: QuantumState, kernel: KickKernel) -> None:
    """Refuse a kick that could carry non-negligible norm out of the window.

    Only amplitude within ``d_max`` bins of an edge can leave the window in
    one kick, and the kick is unitary, so the probability there before the
    kick bounds the norm the kick can lose. A support at least ``d_max``
    from both edges leaves those bands exactly zero.
    """
    size, d_max = state.window.size, kernel.d_max
    if kernel.coefficients.size > size:
        raise ValueError(
            f"kernel bandwidth {kernel.coefficients.size} exceeds window size {size}"
        )
    first, end = state.support
    if first >= d_max and end <= size - d_max:
        return
    lo, hi = state.boundary_occupation(d_max)
    if lo + hi >= _BOUNDARY_LIMIT:
        if lo >= _BOUNDARY_LIMIT and hi >= _BOUNDARY_LIMIT:
            edge = "both"
        else:
            edge = "lower" if lo > hi else "upper"
        raise TruncationOverflowError(
            f"probability {lo + hi:.3e} within {kernel.d_max} states of the "
            f"{edge} window edge (m_min={state.window.m_min}, "
            f"m_max={state.window.m_max}) exceeds {_BOUNDARY_LIMIT:g}",
            edge=edge,
            occupation=lo + hi,
        )


def apply_kick(state: QuantumState, kernel: KickKernel) -> QuantumState:
    """Convolve the amplitudes with the kick weights.

    ``a'_m = sum_n J_{m-n}(k) a_n``; unitary up to the kernel truncation.
    Raises :class:`TruncationOverflowError`, before kicking, when the
    probability within the kernel bandwidth of a window edge is
    non-negligible, since the kick could carry that much out of the window.
    """
    _check_kick(state, kernel)
    out, support = _convolve(state.amplitudes, state.support, kernel.coefficients)
    return QuantumState(state.window, out, state.time_index, support)


def _convolve(
    amplitudes: np.ndarray, support: tuple[int, int], coefficients: np.ndarray
) -> tuple[np.ndarray, tuple[int, int]]:
    """Kick the amplitudes on ``support``; returns them with their new support.

    The full convolution of the support slice covers ``d_max`` more bins on
    each side; on the whole window its middle is ``np.convolve(...,
    mode="same")`` bit for bit. A slice clipped at a window edge may be
    shorter than the kernel, where ``"same"`` mode would return the kernel's
    length, so the full mode is taken and clipped here. End bands of
    ``d_max`` bins below ``_SLICE_EPS`` are then zeroed and dropped.
    """
    d_max = coefficients.size // 2
    lo, hi = support
    size = amplitudes.size
    start, stop = max(lo - d_max, 0), min(hi + d_max, size)
    out = _zero_outside(size, (start, stop))
    full = np.convolve(amplitudes[lo:hi], coefficients)
    shift = lo - d_max
    out[start:stop] = full[start - shift:stop - shift]
    if stop - start > d_max:
        band = out[start:start + d_max]
        if np.vdot(band, band).real < _SLICE_EPS:
            band[:] = 0.0
            start += d_max
    if stop - start > d_max:
        band = out[stop - d_max:stop]
        if np.vdot(band, band).real < _SLICE_EPS:
            band[:] = 0.0
            stop -= d_max
    return out, (start, stop)


@dataclass
class SpectrumModel:
    """Free-flight phase advance per basis state, fixed for a whole run.

    ``phase_table`` holds ``H0(m) * tau`` reduced mod 2*pi for each window
    index. The table is time independent: for nonlinear level ladders the
    entries look random as a function of ``m``, but they repeat identically
    every kick, which is what allows interference to build up and localize
    the dynamics. Fresh-per-kick randomness belongs to measurements, not
    to the spectrum.
    """

    phase_table: np.ndarray
    window: BasisWindow
    multiplier: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.phase_table = np.asarray(self.phase_table, dtype=float)
        if self.phase_table.shape != (self.window.size,):
            raise ValueError("phase table does not cover the window")
        self.multiplier = np.exp(-1j * self.phase_table)
        self.multiplier.flags.writeable = False

    @classmethod
    def rotator(cls, window: BasisWindow, tau: float) -> "SpectrumModel":
        """Quadratic spectrum ``H0(m) = m^2 / 2`` (kicked rotator)."""
        m = window.indices().astype(float)
        table = np.mod(0.5 * m * m * tau, 2.0 * np.pi)
        return cls(table, window)

    @classmethod
    def linear(cls, window: BasisWindow, tau: float, omega: float) -> "SpectrumModel":
        """Equidistant spectrum ``H0(m) = omega * m`` (harmonic ladder)."""
        m = window.indices().astype(float)
        table = np.mod(omega * m * tau, 2.0 * np.pi)
        return cls(table, window)

    @classmethod
    def random_levels(cls, window: BasisWindow, seed: int) -> "SpectrumModel":
        """Seeded i.i.d. uniform phases ``2 pi g_m``, drawn once per run.

        Reproducible from ``seed``; the draw order follows ascending ``m``.
        """
        g = np.random.default_rng(seed).random(window.size)
        return cls(2.0 * np.pi * g, window)


def apply_free(state: QuantumState, spectrum: SpectrumModel) -> QuantumState:
    """Diagonal free flight: every amplitude picks up its fixed phase."""
    if spectrum.window != state.window:
        raise ValueError("spectrum phase table does not cover the state's window")
    return QuantumState(
        state.window, _times(state, spectrum.multiplier), state.time_index, state.support
    )


def step(
    state: QuantumState, kernel: KickKernel, spectrum: SpectrumModel
) -> QuantumState:
    """One full period: kick, then free flight; advances the kick counter."""
    out = apply_free(apply_kick(state, kernel), spectrum)
    out.time_index = state.time_index + 1
    return out


def adjoint_step(
    state: QuantumState, kernel: KickKernel, spectrum: SpectrumModel
) -> QuantumState:
    """Exact inverse of :func:`step`: conjugate flight, then reversed kernel.

    The kick matrix is real orthogonal, so its inverse is the transpose,
    i.e. a convolution with the order-reversed coefficients ``J_{-d}``.
    Running n steps forward and n adjoint steps back recovers the initial
    state up to roundoff as long as no measurement intervened.
    """
    if spectrum.window != state.window:
        raise ValueError("spectrum phase table does not cover the state's window")
    _check_kick(state, kernel)
    undone = _times(state, np.conj(spectrum.multiplier))
    out, support = _convolve(undone, state.support, kernel.coefficients[::-1])
    return QuantumState(state.window, out, state.time_index - 1, support)
