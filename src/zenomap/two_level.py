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
draws the phases explicitly and converges to it. Its trials carry the
transfer ``p2`` alone, ``p1 = 1 - p2``: ``p2`` is small in the Zeno regime,
where ``1 - p1`` would lose its relative accuracy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import measurement
from .pool import map_chunks

_PAIR_TOL = 1e-12


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
    feed back into later steps, and ``p1 = 1 - p2``, so each trial carries
    the transfer ``p2`` alone, from ``p0.p2``: it is small in the Zeno regime,
    where ``1 - p1`` would lose its relative accuracy. One segment maps it to
    ``sin^2(phi) + cos(2 phi) p2 - sin(2 phi) sqrt(p2 (1 - p2)) sin(alpha1 - alpha2)``,
    which is exactly the squared modulus of the coherent step applied to the
    randomized amplitudes; the result is ``(1 - mean p2, mean p2)``. The
    trial average converges to :func:`measured_populations` since the
    interference term has zero mean.
    The phases are ``alpha = 2 pi u`` for uniform draws ``u``, and the
    interference factor ``sin(2 pi (u1 - u2))`` of the exact ``u1 - u2`` is
    read from the readout's turn table (:mod:`zenomap.measurement`).

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
    p2 = np.full(trials, p0.p2, dtype=float)  # an int pair would make an int array
    s = math.sin(phi)
    s2, cos2phi, sin2phi = s * s, math.cos(2.0 * phi), 2.0 * math.cos(phi) * s

    table = measurement._turn_table()
    # contiguous copies, since take reads a strided view about 10 % slower
    cos_table, sin_table = table.real.copy(), table.imag.copy()

    def evolve_chunk(lo: int, hi: int) -> None:
        size = hi - lo
        bitgen = np.random.PCG64()
        bitgen.state = start
        bitgen.advance(lo)
        rng = np.random.Generator(bitgen)
        q = p2[lo:hi]
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
            #   sine = S[h] + (C[h] sin r + S[h] (cos r - 1))
            #   q = s2 + cos2phi q - sin2phi sqrt(q (1 - q)) sine
            # so every bit matches the whole-array form. q is analytically
            # in [0, 1]; clamp roundoff before the next sqrt.
            np.subtract(a1, a2, out=a1)
            _, sin_r, sine = measurement._split_turns(a1, a2, cross, index)
            # mode="clip" writes into out directly; the default buffers it.
            # Every index is in range: |h| <= 4096.
            sin_r *= np.take(cos_table, index, out=cross, mode="clip")
            sin_h = np.take(sin_table, index, out=cross, mode="clip")
            sine *= sin_h
            sine += sin_r
            sine += sin_h
            np.subtract(1.0, q, out=cross)
            cross *= q
            np.sqrt(cross, out=cross)
            cross *= sin2phi
            cross *= sine
            q *= cos2phi
            q += s2
            q -= cross
            np.clip(q, 0.0, 1.0, out=q)

    if n:
        map_chunks(evolve_chunk, trials)
    transfer = float(np.mean(p2))
    return ProbabilityPair(1.0 - transfer, transfer)
