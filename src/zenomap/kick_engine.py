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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import jv

from .errors import TruncationOverflowError

# The states within the kernel bandwidth of the window edges may carry at most
# this much probability before a kick; past it the run aborts.
_BOUNDARY_LIMIT = 1e-10
_MIN_WINDOW = 16
_MAX_KERNEL_EPS = 1e-10

ROTATOR = "rotator"
LINEAR = "linear"
RANDOM_LEVELS = "random"


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
    """

    window: BasisWindow
    amplitudes: np.ndarray
    time_index: int = 0

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (self.window.size,):
            raise ValueError(
                f"amplitude vector length {self.amplitudes.shape} does not "
                f"match window size {self.window.size}"
            )

    def norm_sq(self) -> float:
        a = self.amplitudes
        return float(np.vdot(a, a).real)

    def occupations(self) -> np.ndarray:
        a = self.amplitudes
        return a.real**2 + a.imag**2

    def boundary_occupation(self, width: int) -> tuple[float, float]:
        """Probability within ``width`` bins of the (lower, upper) window edge."""
        a = self.amplitudes
        lo, hi = a[:width], a[a.size - width:]
        return float(np.vdot(lo, lo).real), float(np.vdot(hi, hi).real)

    def copy(self) -> "QuantumState":
        return QuantumState(self.window, self.amplitudes.copy(), self.time_index)

    @classmethod
    def delta(cls, window: BasisWindow) -> "QuantumState":
        """Unit amplitude on the initial state ``m0``, before any kick."""
        a = np.zeros(window.size, dtype=np.complex128)
        a[window.offset(window.m0)] = 1.0
        return cls(window, a, 0)


@dataclass(frozen=True)
class KickKernel:
    """Real convolution weights ``J_d(k)`` for momentum transfers ``|d| <= d_max``."""

    k: float
    coefficients: np.ndarray  # index d + d_max, d = -d_max..d_max
    d_max: int
    epsilon: float

    def offsets(self) -> np.ndarray:
        return np.arange(-self.d_max, self.d_max + 1)


def build_kernel(k: float, epsilon: float = 1e-14) -> KickKernel:
    """Compute the kick weights for strength ``k``, truncated at ``epsilon``.

    ``d_max`` is the smallest bandwidth with ``|J_d(k)| < epsilon`` for every
    ``|d| > d_max``. The weights satisfy ``sum J_d^2 = 1`` (the kick is
    unitary), ``sum d J_d^2 = 0`` (no mean momentum transfer) and
    ``sum d^2 J_d^2 = k^2 / 2`` (the single-kick dispersion increment).
    """
    if k < 0:
        raise ValueError(f"kick strength must be >= 0, got {k}")
    if not 0.0 < epsilon <= _MAX_KERNEL_EPS:
        raise ValueError(
            f"epsilon={epsilon} cannot bracket the kernel; need 0 < epsilon <= {_MAX_KERNEL_EPS}"
        )
    if k == 0:
        return KickKernel(0.0, np.array([1.0]), 0, epsilon)
    # Past the turning region |d| ~ k the coefficients decay superexponentially;
    # scan a generous band, extending until the tail is below threshold.
    d_hi = int(np.ceil(k + 12.0 * k ** (1.0 / 3.0) + 26.0))
    while abs(jv(d_hi, k)) >= epsilon:
        d_hi += 16
    magnitudes = np.abs(jv(np.arange(d_hi + 1), k))
    above = np.nonzero(magnitudes >= epsilon)[0]
    d_max = int(above[-1]) if above.size else 0
    coefficients = jv(np.arange(-d_max, d_max + 1), k)
    return KickKernel(float(k), coefficients, d_max, epsilon)


def _check_kick(state: QuantumState, kernel: KickKernel) -> None:
    """Refuse a kick that could carry non-negligible norm out of the window.

    Only amplitude within ``d_max`` bins of an edge can leave the window in
    one kick, and the kick is unitary, so the probability there before the
    kick bounds the norm the kick can lose.
    """
    if kernel.coefficients.size > state.window.size:
        raise ValueError(
            f"kernel bandwidth {kernel.coefficients.size} exceeds window size "
            f"{state.window.size}"
        )
    lo, hi = state.boundary_occupation(kernel.d_max)
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
    out = np.convolve(state.amplitudes, kernel.coefficients, mode="same")
    return QuantumState(state.window, out, state.time_index)


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

    variant: str
    tau: float
    phase_table: np.ndarray
    window: BasisWindow
    multiplier: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.phase_table = np.asarray(self.phase_table, dtype=float)
        if self.phase_table.shape != (self.window.size,):
            raise ValueError("phase table does not cover the window")
        self.multiplier = np.exp(-1j * self.phase_table)

    @classmethod
    def rotator(cls, window: BasisWindow, tau: float) -> "SpectrumModel":
        """Quadratic spectrum ``H0(m) = m^2 / 2`` (kicked rotator)."""
        m = window.indices().astype(float)
        table = np.mod(0.5 * m * m * tau, 2.0 * np.pi)
        return cls(ROTATOR, tau, table, window)

    @classmethod
    def linear(cls, window: BasisWindow, tau: float, omega: float) -> "SpectrumModel":
        """Equidistant spectrum ``H0(m) = omega * m`` (harmonic ladder)."""
        m = window.indices().astype(float)
        table = np.mod(omega * m * tau, 2.0 * np.pi)
        return cls(LINEAR, tau, table, window)

    @classmethod
    def random_levels(cls, window: BasisWindow, tau: float, seed: int) -> "SpectrumModel":
        """Seeded i.i.d. uniform phases ``2 pi g_m``, drawn once per run.

        Reproducible from ``seed``; the draw order follows ascending ``m``.
        """
        g = np.random.default_rng(seed).random(window.size)
        return cls(RANDOM_LEVELS, tau, 2.0 * np.pi * g, window)


def apply_free(state: QuantumState, spectrum: SpectrumModel) -> QuantumState:
    """Diagonal free flight: every amplitude picks up its fixed phase."""
    if spectrum.window != state.window:
        raise ValueError("spectrum phase table does not cover the state's window")
    return QuantumState(
        state.window, state.amplitudes * spectrum.multiplier, state.time_index
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
    undone = state.amplitudes * np.conj(spectrum.multiplier)
    out = np.convolve(undone, kernel.coefficients[::-1], mode="same")
    return QuantumState(state.window, out, state.time_index - 1)
