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

Every kick, of any slice and any kernel, is one blocked product, which
:func:`_convolve` runs and writes back into the amplitudes itself: the real
and imaginary parts of the slice are cut into blocks of ``_BLOCK`` bins,
and each output block is its own input block times a banded Toeplitz
matrix of the weights, plus the ``2 d_max`` bins before it times the rest
of that matrix, in slabs of at most ``_BLOCK`` rows. On a wide slice BLAS
computes this several times faster than ``np.convolve``; on a slice of a
few bins it costs a few microseconds more. It agrees with ``np.convolve``
to within a few units of roundoff (below 2e-16 absolute on a unit-norm
state); every output bin that takes a single nonzero product, as after a
kick of a one-bin state, is the same bit for bit.

Every operation writes into the state it is given and returns ``None``:
the kick, the free flight, a whole :func:`step` and the readout
(:func:`zenomap.measurement.apply_measurement`). The kick's second vector
is the blocked product's operand buffer, which holds a copy of the slice.
The operand, the product and the slab products live in buffers that each
state builds at its first kick and reuses, and the kernel keeps its
Toeplitz blocks as views built once, so after its first kick a state's
kicks allocate no array data.
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
    the state immediately before the next kick. Every operation writes
    into ``amplitudes``, which is the caller's own array when that was
    already complex128 (the constructor takes it with ``np.asarray``).

    ``support = (lo, hi)`` is a nonempty half-open range of array positions
    outside which every amplitude is exactly zero; operations read and write
    only that slice. It defaults to the whole window, and the constructor
    trusts it without scanning the amplitudes. A kick's support is
    ``_SLICE_EPS``-trimmed (see the module docstring).

    ``_kick_buffers`` is the blocked kick's scratch (see
    :func:`_convolve`): built at the state's first kick, overwritten
    by every kick, never part of the state's value. It is not in the
    constructor or ``repr``, and a copy of the state starts without it.
    """

    window: BasisWindow
    amplitudes: np.ndarray
    time_index: int = 0
    support: tuple[int, int] | None = None
    _kick_buffers: tuple[np.ndarray, ...] | None = field(default=None, init=False, repr=False)

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
    """Real convolution weights ``J_d(k)`` for momentum transfers ``|d| <= d_max``.

    The blocked kick's banded matrix of these weights has one cached form,
    :attr:`_blocks`, the views of it that the kick multiplies by.
    """

    coefficients: np.ndarray  # index d + d_max, d = -d_max..d_max

    @property
    def d_max(self) -> int:
        return self.coefficients.size // 2

    @cached_property
    def _blocks(self) -> tuple[np.ndarray, tuple[tuple[int, int, np.ndarray], ...]]:
        """The own block and the slabs of the blocked kick's banded matrix,
        read-only views built at first use, which :func:`_convolve`
        multiplies the blocks of a slice by.

        The matrix is ``T[j, i] = c[i + 2 d_max - j]`` where that index lies
        in the kernel, and 0 elsewhere, for ``2 d_max + _BLOCK`` rows and
        ``_BLOCK`` columns; at ``k = 1000`` it holds 1.1 MiB. The own block
        is its last ``_BLOCK`` rows, which map a block onto itself. Slab
        ``(m, column, matrix)`` is at most ``_BLOCK`` of its first ``2 d_max``
        rows and maps the columns from ``column`` on of the block ``m``
        before onto the block.
        """
        q = _BLOCK
        span = self.coefficients.size - 1
        lags = np.arange(q) - np.arange(span + q)[:, None] + span
        inside = (lags >= 0) & (lags <= span)
        t = np.where(inside, self.coefficients[np.clip(lags, 0, span)], 0.0)
        t.flags.writeable = False
        slabs = []
        for m, top in enumerate(range(span, 0, -q), 1):
            bottom = max(top - q, 0)
            slabs.append((m, q - top + bottom, t[bottom:top]))
        return t[span:], tuple(slabs)


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
    if not 0 <= k < np.inf:
        raise ValueError(f"kick strength must be finite and >= 0, got {k}")
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


def apply_kick(state: QuantumState, kernel: KickKernel) -> None:
    """Convolve the amplitudes with the kick weights, in place.

    ``a'_m = sum_n J_{m-n}(k) a_n``; unitary up to the kernel truncation.
    Raises :class:`TruncationOverflowError`, before kicking, when the
    probability within the kernel bandwidth of a window edge is
    non-negligible, since the kick could carry that much out of the window.
    """
    _check_kick(state, kernel)
    state.support = _convolve(state, kernel)


def _aligned_empty(shape: tuple[int, ...]) -> np.ndarray:
    """``np.empty(shape)`` whose data starts on a 64-byte cache line."""
    count = int(np.prod(shape))
    raw = np.empty(count + 7)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + count].reshape(shape)


def _convolve(state: QuantumState, kernel: KickKernel) -> tuple[int, int]:
    """Kick ``state``'s amplitudes on its support in place, as matrix
    products with the blocks of :attr:`KickKernel._blocks`; returns their
    new support.

    The real and imaginary parts of the support slice are copied into the
    operand buffer before anything is written, each padded with zeros and
    cut into ``rows`` blocks of ``q`` bins, and the two stacked as
    ``2 * rows`` rows. Every block's own share of its output block is one
    product with the own block of the matrix. The ``2 d_max`` bins before
    the block add theirs in slabs of at most ``q`` rows of the matrix: slab
    ``m`` takes the end of the block ``m`` before, a single slab where
    ``2 d_max <= q``. Every product reads input within ``2 d_max`` bins
    before its output, and the padding leaves at least ``2 d_max`` zeros at
    the end of the last real block, so nothing spills into the imaginary
    blocks. Each half of the product then starts with the full convolution
    ``np.convolve(slice, kernel.coefficients)``, whose bin ``i`` is array
    position ``lo - d_max + i``. Its bins inside the window are written
    back (a slice at a window edge may be shorter than the kernel); every
    bin outside them lay outside the support, so it is already zero. End
    bands of ``d_max`` bins below ``_SLICE_EPS`` are then zeroed and dropped.

    The operand, the product and each slab's product are written into
    ``state._kick_buffers``, three arrays of ``q``-bin rows, and the padding
    is zeroed again every kick. They are built with rows for a slice of the
    whole window at the first kick, and rebuilt only when a wider kernel
    needs more rows. They start on a cache line: on preset b, buffers that
    started mid-line took about 1 us more per kick.
    """
    own, slabs = kernel._blocks
    q, d_max = _BLOCK, kernel.d_max
    amplitudes = state.amplitudes
    lo, hi = state.support
    n = hi - lo
    rows = -(-(n + 2 * d_max) // q)
    buffers = state._kick_buffers
    if buffers is None or buffers[0].shape[0] < 2 * rows:
        whole = -(-(amplitudes.size + 2 * d_max) // q)
        buffers = state._kick_buffers = tuple(_aligned_empty((2 * whole, q)) for _ in range(3))
    x, y, product = buffers
    x, y, product = x[:2 * rows], y[:2 * rows], product[:2 * rows]
    a = amplitudes[lo:hi]
    flat = x.reshape(-1)
    flat[:n] = a.real
    flat[n:rows * q] = 0.0
    flat[rows * q:rows * q + n] = a.imag
    flat[rows * q + n:] = 0.0
    np.matmul(x, own, out=y)
    for m, column, matrix in slabs:
        y[m:] += np.matmul(x[:-m, column:], matrix, out=product[m:])
    start, stop = max(lo - d_max, 0), min(hi + d_max, amplitudes.size)
    first, last = start - lo + d_max, stop - lo + d_max
    flat = y.reshape(-1)
    amplitudes.real[start:stop] = flat[first:last]
    amplitudes.imag[start:stop] = flat[rows * q + first:rows * q + last]
    if stop - start > d_max:
        band = amplitudes[start:start + d_max]
        if np.vdot(band, band).real < _SLICE_EPS:
            band[:] = 0.0
            start += d_max
    if stop - start > d_max:
        band = amplitudes[stop - d_max:stop]
        if np.vdot(band, band).real < _SLICE_EPS:
            band[:] = 0.0
            stop -= d_max
    return start, stop


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


def step(state: QuantumState, kernel: KickKernel, spectrum: SpectrumModel) -> None:
    """One full period, in place: kick, then free flight; advances the kick
    counter.

    Both refusals come before anything is written: a spectrum of another
    window (``ValueError``) and probability at a window edge
    (:class:`TruncationOverflowError`) leave ``state`` untouched.
    """
    _check_spectrum(state, spectrum)
    apply_kick(state, kernel)
    apply_free(state, spectrum)
    state.time_index += 1
