"""The driven two-level system read out between drive segments.

A resonantly driven two-level system rotates coherently between its states;
splitting the drive into segments and reading the populations out after each
segment replaces the coherent rotation by an incoherent hopping process.
In the limit of many segments the hopping freezes the system in its initial
state, which is the quantum Zeno effect.

Readout is modeled as phase randomization: the populations are kept and the
amplitude phases are redrawn uniformly. Averaged over the random phases the
interference term of the coherent step drops out and the populations evolve
under a symmetric doubly stochastic matrix whose matrix power has a closed
form, :func:`measured_populations`. :func:`zeno_survival` and the runner's
``zeno`` experiment both read it, and :func:`monte_carlo_measured_evolve`
draws the phases explicitly and converges to it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .pool import map_chunks

_PAIR_TOL = 1e-12

# sin(2 pi (u1 - u2)) is read from sin and cos at the turns h / _TURNS
_TURNS = 4096
# pi / 2048 to 43 bits, so that h * _EIGHTH_HEAD is exact for h <= 512, and
# the rest of pi / 2048 (pi - float(pi) is 1.2246467991473532e-16)
_EIGHTH_HEAD = math.ldexp(math.floor(math.ldexp(math.pi / 2048, 52)), -52)
_EIGHTH_TAIL = (math.pi / 2048 - _EIGHTH_HEAD) + 1.2246467991473532e-16 / 2048


def _turn_tables() -> tuple[np.ndarray, np.ndarray]:
    """``sin`` and ``cos`` of ``2 pi h / 4096`` at index ``h + 4096``, for
    ``h = -4096 ... 4096``.

    Only the first eighth of a turn is computed, as ``sin(a) + cos(a) d``
    and ``cos(a) - sin(a) d`` with the angle split into an exact ``a`` and a
    residual ``d`` below 1.2e-13; the rest follows by symmetry, so every
    zero and one in the tables is exact.
    """
    h = np.arange(_TURNS // 8 + 1)
    a, d = h * _EIGHTH_HEAD, h * _EIGHTH_TAIL
    sin_a, cos_a = np.sin(a), np.cos(a)
    sin_e, cos_e = sin_a + cos_a * d, cos_a - sin_a * d
    quarter = np.concatenate((sin_e, cos_e[-2::-1]))  # h = 0 ... 1024
    half = np.concatenate((quarter, quarter[-2::-1]))  # h = 0 ... 2048
    turn = np.concatenate((half, -half[1:-1]))  # h = 0 ... 4095
    sine = turn[np.arange(-_TURNS, _TURNS + _TURNS // 4 + 1) % _TURNS]
    return sine[: 2 * _TURNS + 1], sine[_TURNS // 4 :]  # cos is sin a quarter turn on


def _sin_turns(u1, u2, tables, scratch, index) -> np.ndarray:
    """``sin(2 pi (u1 - u2))`` for draws ``u1`` and ``u2`` of
    ``Generator.random``, written into ``u1``, which is returned.

    ``u1 - u2`` and ``t = 4096 (u1 - u2)`` are exact, since both draws are
    multiples of 2**-53. With ``h = rint(t)`` and the residual angle
    ``r = (t - h) 2 pi / 4096`` (one rounding, ``|r| <= pi / 4096``) the
    sine is ``S[h] + (C[h] sin r + S[h] (cos r - 1))``: ``S`` and ``C`` are
    :func:`_turn_tables`, and ``sin r`` and ``cos r - 1`` are their Taylor
    series through ``r**5``. On 10**5 draws its largest absolute error
    against mpmath was 1.6e-16, with table entries within one ulp, and that
    of ``np.sin(2 pi u1 - 2 pi u2)``, whose two products are each rounded,
    1.1e-15. ``u2`` and ``scratch`` (float) and ``index`` (intp), all of
    ``u1``'s size, are overwritten.
    """
    sin_table, cos_table = tables
    r, work, r2 = u1, u2, scratch
    np.subtract(r, work, out=r)
    r *= _TURNS
    np.rint(r, out=work)
    r -= work
    r *= 2.0 * math.pi / _TURNS
    np.add(work, _TURNS, out=index, casting="unsafe")
    np.multiply(r, r, out=r2)
    sin_r = np.multiply(r2, 1.0 / 120.0, out=work)
    sin_r -= 1.0 / 6.0
    sin_r *= r2
    sin_r *= r
    sin_r += r
    cos_r1 = np.multiply(r2, 1.0 / 24.0, out=r)
    cos_r1 -= 0.5
    cos_r1 *= r2
    # mode="clip" writes into out directly; the default buffers it. Every
    # index is in range: |h| <= 4096.
    sin_r *= np.take(cos_table, index, out=scratch, mode="clip")
    sin_h = np.take(sin_table, index, out=scratch, mode="clip")
    cos_r1 *= sin_h
    cos_r1 += sin_r
    cos_r1 += sin_h
    return cos_r1


@dataclass(frozen=True)
class ProbabilityPair:
    """Occupation probabilities of the two levels; sums to one."""

    p1: float
    p2: float

    def __post_init__(self) -> None:
        for name, p in (("p1", self.p1), ("p2", self.p2)):
            if not -_PAIR_TOL <= p <= 1.0 + _PAIR_TOL:
                raise ValueError(f"{name}={p} is not a probability")
        if abs(self.p1 + self.p2 - 1.0) > _PAIR_TOL:
            raise ValueError(
                f"probabilities must sum to 1, got {self.p1 + self.p2}"
            )


def measured_populations(p: ProbabilityPair, phi: float, n):
    """Populations ``(p1, p2)`` after ``n`` measured segments from ``p``.

    The population matrix has eigenvalues 1 and ``cos(2 phi)``, so its n-th
    power acts as ``p1 -> (1 + cos^n(2 phi) (p1 - p2)) / 2``. ``n`` is an int
    or an integer array; the populations are numpy scalars or arrays of its
    shape. A non-finite ``phi`` gives nan, which the caller rejects; a
    negative ``n``, or any negative entry of it, is a ``ValueError``.
    """
    if np.any(np.less(n, 0)):
        raise ValueError(f"n must be >= 0, got {np.min(n)}")
    angle = 2.0 * phi
    cos_n = np.float_power(math.cos(angle) if math.isfinite(angle) else math.nan, n)
    contrast = cos_n * (p.p1 - p.p2)
    return 0.5 * (1.0 + contrast), 0.5 * (1.0 - contrast)


def zeno_survival(n: int) -> ProbabilityPair:
    """Outcome of a full population-inverting pulse cut into ``n`` segments.

    The drive time is fixed at a half rotation (certain transfer when
    uninterrupted) and the state is read out after each of the ``n``
    segments, i.e. n-1 intermediate readouts plus the final one. Returns
    the final (survival, transfer) probabilities; the transfer is
    ``(1 - cos^n(pi / n)) / 2`` (Itano et al., PRA 41, 2295, 1990), so
    survival approaches 1 as ``n`` grows and transfer decays like ``pi^2 / 4n``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    phi = math.pi / (2.0 * n)
    p1, p2 = measured_populations(ProbabilityPair(1.0, 0.0), phi, n)
    return ProbabilityPair(float(p1), float(p2))


def monte_carlo_measured_evolve(
    p0: ProbabilityPair,
    phi: float,
    n: int,
    trials: int,
    seed: int,
) -> ProbabilityPair:
    """Trial-averaged populations under explicit per-step phase randomization.

    Each trial evolves amplitudes whose phases are redrawn independently,
    uniformly on [0, 2*pi), before every coherent segment. Only the moduli
    feed back into later steps, so the update is carried in population form:
    one segment maps ``p1`` to
    ``cos^2(phi) p1 + sin^2(phi) p2 + sin(2 phi) sqrt(p1 p2) sin(alpha1 - alpha2)``,
    which is exactly the squared modulus of the coherent step applied to the
    randomized amplitudes. The trial average converges to
    :func:`measured_populations` since the interference term has zero mean.
    The phases are ``alpha = 2 pi u`` for uniform draws ``u``, and the
    interference factor is :func:`_sin_turns` of the two draws.

    Stream layout: ``default_rng(seed)`` gives, per step, ``u1`` for all
    trials and then ``u2`` for all trials. The trials are split into
    contiguous chunks, one per thread of the ``ZENO_MAP_THREADS`` budget
    (see :mod:`zenomap.pool`); each chunk jumps ahead in that one stream to
    its own slice of every block, so the result is bit-identical for any
    thread count. An invalid thread setting raises :class:`ConfigError`.
    """
    trials = operator.index(trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    start = np.random.default_rng(seed).bit_generator.state
    p1 = np.full(trials, p0.p1, dtype=float)  # an int pair would make int arrays
    p2 = np.full(trials, p0.p2, dtype=float)
    c = math.cos(phi)
    s = math.sin(phi)
    c2, s2, sin2phi = c * c, s * s, 2.0 * c * s

    tables = _turn_tables()

    def evolve_chunk(lo: int, hi: int) -> None:
        size = hi - lo
        bitgen = np.random.PCG64()
        bitgen.state = start
        bitgen.advance(lo)
        rng = np.random.Generator(bitgen)
        q1, q2 = p1[lo:hi], p2[lo:hi]
        a1, a2, cross = np.empty(size), np.empty(size), np.empty(size)
        index = np.empty(size, dtype=np.intp)
        for _ in range(n):
            # alpha = 2 pi u; each block of the stream holds every trial, so
            # skip the other chunks' draws
            rng.random(out=a1)
            bitgen.advance(trials - size)
            rng.random(out=a2)
            bitgen.advance(trials - size)
            # In place, in the operation order of
            #   cross = sin2phi * sqrt(q1 q2) * _sin_turns(u1, u2)
            #   q1, q2 = c2 q1 + s2 q2 + cross, s2 q1 + c2 q2 - cross
            # so every bit matches the whole-array form. Both populations are
            # analytically >= 0; clamp roundoff before the next sqrt.
            _sin_turns(a1, a2, tables, cross, index)
            np.multiply(q1, q2, out=cross)
            np.sqrt(cross, out=cross)
            cross *= sin2phi
            cross *= a1
            np.multiply(q1, c2, out=a1)
            np.multiply(q2, s2, out=a2)
            a1 += a2
            a1 += cross
            np.multiply(q1, s2, out=a2)
            q2 *= c2
            np.add(a2, q2, out=q2)
            q2 -= cross
            np.maximum(q2, 0.0, out=q2)
            np.maximum(a1, 0.0, out=q1)

    if n:
        map_chunks(evolve_chunk, trials)
    total = p1 + p2
    return ProbabilityPair(float(np.mean(p1 / total)), float(np.mean(p2 / total)))
