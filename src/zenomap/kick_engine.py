"""Banded unitary map for a periodically kicked multilevel ladder.

One period of the driven system splits into two unitaries on a truncated
momentum basis: the kick, a convolution of the amplitudes with Bessel-function
weights ``J_d(k)`` over momentum transfer ``d``, and the free flight, a
diagonal phase advance ``exp(-i H0(m) tau)``. Amplitudes are stored in the
gauge that makes the kick kernel purely real, so the kick is a real banded
orthogonal convolution and the only complex factors live in the free flight.

The Bessel weights come from Miller's backward recurrence in extended
precision, with numpy alone: against 30-digit values they are correctly
rounded for ``k <= 20`` and within 1e-17 absolute up to ``k = 1000``. The
kernel is truncated where its coefficients fall below a threshold (Bessel
coefficients decay superexponentially past ``|d| ~ k``), and the basis window
is policed every kick: once probability comes within the kernel bandwidth of
a window edge the run aborts rather than silently leaking norm, with an error
that names the kick after which it stopped and the window halfwidth to exceed.

A localized state leaves most of the window at amplitudes far below
roundoff, so every state carries a ``support``: the half-open range of
array positions outside which each amplitude is exactly zero. Every
operation works on that slice only. A kick widens the support by the kernel
bandwidth ``d_max`` on each side (clipped to the window), then drops each
end band of ``d_max`` bins whose probability is below ``_SLICE_EPS``
(1e-30), zeroing it; a kick thus discards at most ``2 * _SLICE_EPS`` of
norm.

Every kick, of any slice and any kernel, is one blocked product: the real
and imaginary parts of the slice are cut into blocks of ``_BLOCK`` bins,
and each output block is its own input block times a banded Toeplitz
matrix of the weights, plus the ``2 d_max`` bins before it times the rest
of that matrix, in slabs of at most ``_BLOCK`` rows. On a wide slice BLAS
computes this several times faster than ``np.convolve``; on a slice of a
few bins it costs a few microseconds more. It agrees with ``np.convolve``
to within a few units of roundoff (below 2e-16 absolute on a unit-norm
state); every output bin that takes a single nonzero product, as after a
kick of a one-bin state, is the same bit for bit.

The kick returns a new state, since a convolution needs a second vector;
the free flight and the readout (:func:`zenomap.measurement.apply_measurement`)
write into ``state.amplitudes`` and return ``None``. :func:`step` kicks into
a new state and runs :func:`apply_free` on it, so its input is left untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import TruncationOverflowError

# The states within the kernel bandwidth of the window edges may carry at most
# this much probability before a kick; past it the run aborts.
_BOUNDARY_LIMIT = 1e-10
_MIN_WINDOW = 16
# build_kernel truncates the kernel past the last |J_d(k)| >= this.
_KERNEL_EPS = 1e-14
# _bessel_orders rescales its recurrence once a value exceeds this, far below
# the float64 overflow even where np.longdouble is float64.
_RESCALE = 1e250
# A kick zeroes an end band of its support that carries less probability
# than this and shrinks the support past it.
_SLICE_EPS = 1e-30
# The blocked kick cuts a slice into blocks of this many bins.
_BLOCK = 64


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


@dataclass(eq=False)
class QuantumState:
    """Complex amplitude vector over a :class:`BasisWindow`.

    ``time_index`` counts completed kicks; the amplitudes always describe
    the state immediately before the next kick. :func:`apply_kick` and
    :func:`step` return new states; :func:`apply_free` and the readout write
    into ``amplitudes``, which is the caller's own array when that was
    already complex128 (the constructor takes it with ``np.asarray``).

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


@dataclass(frozen=True, eq=False)
class KickKernel:
    """Real convolution weights ``J_d(k)`` for momentum transfers ``|d| <= d_max``."""

    coefficients: np.ndarray  # index d + d_max, d = -d_max..d_max

    @property
    def d_max(self) -> int:
        return self.coefficients.size // 2

    @cached_property
    def toeplitz(self) -> np.ndarray:
        """The banded matrix of the blocked kick, read-only, built at first use.

        ``T[j, i] = c[i + 2 d_max - j]`` where that index lies in the kernel,
        and 0 elsewhere, for ``2 d_max + _BLOCK`` rows and ``_BLOCK`` columns.
        Its last ``_BLOCK`` rows map a block onto itself, its first
        ``2 d_max`` rows map the ``2 d_max`` bins before the block onto it.
        It has ``_BLOCK`` columns for every kernel, so at ``k = 1000`` it
        holds 1.1 MiB.
        """
        span = self.coefficients.size - 1
        lags = np.arange(_BLOCK) - np.arange(span + _BLOCK)[:, None] + span
        inside = (lags >= 0) & (lags <= span)
        matrix = np.where(inside, self.coefficients[np.clip(lags, 0, span)], 0.0)
        matrix.flags.writeable = False
        return matrix


def _bessel_orders(k: float, n: int) -> np.ndarray:
    """``J_0(k), ..., J_n(k)`` as float64, by Miller's backward recurrence.

    ``J_{m-1} = (2m / k) J_m - J_{m+1}`` is stable downwards, so it is run in
    ``np.longdouble`` from an arbitrary seed at an even order ``top`` well
    above ``n`` (and so above ``k``: callers pass ``n > k``), rescaled
    whenever a value exceeds ``_RESCALE``, and normalized by the identity
    ``J_0 + 2 sum_{m>=1} J_2m = 1`` (Gautschi, SIAM Review 9, 24, 1967). The
    seed's error decays like ``(J_top / J_m)^2`` relative to ``J_m``, far
    below one ulp for every order up to ``n``.
    """
    if k == 0:
        orders = np.zeros(n + 1)
        orders[0] = 1.0
        return orders
    top = n + int(np.sqrt(160.0 * n))
    top += top % 2
    factors = np.arange(top, 0, -1, dtype=np.longdouble) * (np.longdouble(2) / np.longdouble(k))
    work = np.zeros(n + 1, dtype=np.longdouble)
    later, current = np.longdouble(0), np.longdouble(1)  # J_{top+1}, J_top up to scale
    even = current  # J_top + J_{top-2} + ... down to the current order
    m = top
    for factor in factors:
        later, current = current, factor * current - later
        m -= 1
        if m <= n:
            work[m] = current
        if m % 2 == 0:
            even += current
        if abs(current) > _RESCALE:
            scale = 1 / current
            later *= scale
            current *= scale
            even *= scale
            work[m:] *= scale
    # ``even`` counts J_0 once; the identity counts the other even orders twice
    return (work / (2 * even - current)).astype(np.float64)


@lru_cache(maxsize=8)
def build_kernel(k: float) -> KickKernel:
    """The kick weights for strength ``k``, truncated at ``_KERNEL_EPS``; one
    shared kernel per ``k`` (the last 8 are kept), with read-only coefficients.

    ``d_max`` is the smallest bandwidth with ``|J_d(k)| < _KERNEL_EPS`` for every
    ``|d| > d_max``. The weights satisfy ``sum J_d^2 = 1`` (the kick is
    unitary), ``sum d J_d^2 = 0`` (no mean momentum transfer) and
    ``sum d^2 J_d^2 = k^2 / 2`` (the single-kick dispersion increment).

    The weights come from :func:`_bessel_orders` in extended precision, with
    ``J_{-d} = (-1)^d J_d``. Against 30-digit values they are correctly rounded
    for ``k <= 20`` and within 1e-17 absolute up to ``k = 1000``, and
    ``sum J_d^2`` (summed exactly) is within 2.3e-16 of 1.
    """
    if k < 0:
        raise ValueError(f"kick strength must be >= 0, got {k}")
    # Past the turning region |d| ~ k the coefficients decay superexponentially;
    # compute a generous band, extending until the tail is below threshold.
    d_hi = int(np.ceil(k + 12.0 * k ** (1.0 / 3.0) + 26.0))
    orders = _bessel_orders(k, d_hi)
    while abs(orders[-1]) >= _KERNEL_EPS:
        d_hi += 16
        orders = _bessel_orders(k, d_hi)
    d_max = int(np.flatnonzero(np.abs(orders) >= _KERNEL_EPS)[-1])  # J_0 + 2 sum J_2m = 1: never empty
    positive = orders[:d_max + 1]
    mirrored = positive[:0:-1] * np.where(np.arange(d_max, 0, -1) % 2, -1.0, 1.0)
    coefficients = np.concatenate((mirrored, positive))
    coefficients.flags.writeable = False
    return KickKernel(coefficients)


def _check_kick(state: QuantumState, kernel: KickKernel) -> None:
    """Refuse a kick that could carry non-negligible norm out of the window.

    Only amplitude within ``d_max`` bins of an edge can leave the window in
    one kick, and the kick is unitary, so the probability there before the
    kick bounds the norm the kick can lose. A support at least ``d_max``
    from both edges leaves those bands exactly zero. The error names the
    kicks completed (``state.time_index``), the edge and the window
    halfwidth a rerun must exceed: the larger distance from ``m0`` to an edge.
    """
    window, d_max = state.window, kernel.d_max
    size = window.size
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
            edge, where = "both", "both window edges"
        else:
            edge = "lower" if lo > hi else "upper"
            where = f"the {edge} window edge"
        halfwidth = max(window.m0 - window.m_min, window.m_max - window.m0)
        raise TruncationOverflowError(
            f"run aborted after kick {state.time_index}: probability {lo + hi:.3e} "
            f"within {d_max} states of {where} (m_min={window.m_min}, "
            f"m_max={window.m_max}) exceeds {_BOUNDARY_LIMIT:g}; rerun with a "
            f"window_halfwidth larger than {halfwidth}",
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
    out, support = _convolve(state.amplitudes, state.support, kernel)
    return QuantumState(state.window, out, state.time_index, support)


def _blocked_convolve(a: np.ndarray, toeplitz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The real and imaginary parts of ``np.convolve(a, coefficients)`` as
    matrix products with :attr:`KickKernel.toeplitz`.

    Each part is padded with zeros and cut into ``rows`` blocks of ``q``
    bins, and the two stacked as ``2 * rows`` rows. Every block's own share
    of its output block is one product with the last ``q`` rows of the
    matrix. The ``2 d_max`` bins before the block add theirs in slabs of at
    most ``q`` rows of the matrix: slab ``m`` takes the end of the block
    ``m`` before, a single slab where ``2 d_max <= q``. Every product reads
    input within ``2 d_max`` bins before its output, and the padding leaves
    at least ``2 d_max`` zeros at the end of the last real block, so nothing
    spills into the imaginary blocks.
    """
    q = toeplitz.shape[1]
    span = toeplitz.shape[0] - q
    n = a.size
    rows = -(-(n + span) // q)
    x = np.empty((2 * rows, q))
    flat = x.reshape(-1)
    flat[:n] = a.real
    flat[n:rows * q] = 0.0
    flat[rows * q:rows * q + n] = a.imag
    flat[rows * q + n:] = 0.0
    y = x @ toeplitz[span:]
    for m, top in enumerate(range(span, 0, -q), 1):
        bottom = max(top - q, 0)
        y[m:] += x[:-m, q - top + bottom:] @ toeplitz[bottom:top]
    flat = y.reshape(-1)
    return flat[:n + span], flat[rows * q:rows * q + n + span]


def _convolve(
    amplitudes: np.ndarray, support: tuple[int, int], kernel: KickKernel
) -> tuple[np.ndarray, tuple[int, int]]:
    """Kick the amplitudes on ``support``; returns them with their new support.

    The full convolution of the support slice covers ``d_max`` more bins on
    each side. A slice clipped at a window edge may be shorter than the
    kernel, so the full convolution is taken and clipped here. End bands of
    ``d_max`` bins below ``_SLICE_EPS`` are then zeroed and dropped.
    """
    d_max = kernel.coefficients.size // 2
    lo, hi = support
    size = amplitudes.size
    start, stop = max(lo - d_max, 0), min(hi + d_max, size)
    out = np.zeros(size, dtype=np.complex128)
    shift = lo - d_max
    real, imag = _blocked_convolve(amplitudes[lo:hi], kernel.toeplitz)
    out.real[start:stop] = real[start - shift:stop - shift]
    out.imag[start:stop] = imag[start - shift:stop - shift]
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


@dataclass(eq=False)
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


def _check_spectrum(state: QuantumState, spectrum: SpectrumModel) -> None:
    if spectrum.window is not state.window and spectrum.window != state.window:
        raise ValueError("spectrum phase table does not cover the state's window")


def apply_free(state: QuantumState, spectrum: SpectrumModel) -> None:
    """Diagonal free flight, in place: every amplitude on ``state``'s support
    picks up its fixed phase."""
    _check_spectrum(state, spectrum)
    lo, hi = state.support
    a = state.amplitudes[lo:hi]
    np.multiply(a, spectrum.multiplier[lo:hi], out=a)


def step(
    state: QuantumState, kernel: KickKernel, spectrum: SpectrumModel
) -> QuantumState:
    """One full period: kick, then free flight; advances the kick counter.

    The flight runs on the new state that the kick returns, so ``state``
    itself is left untouched, also when :func:`apply_free` refuses a
    spectrum of another window.
    """
    out = apply_kick(state, kernel)
    apply_free(out, spectrum)
    out.time_index = state.time_index + 1
    return out

