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

    Stream layout: ``default_rng(seed)`` gives, per step, ``alpha1`` for all
    trials and then ``alpha2`` for all trials. The trials are split into
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

    def evolve_chunk(lo: int, hi: int) -> None:
        size = hi - lo
        bitgen = np.random.PCG64()
        bitgen.state = start
        bitgen.advance(lo)
        rng = np.random.Generator(bitgen)
        q1, q2 = p1[lo:hi], p2[lo:hi]
        a1, a2, cross = np.empty(size), np.empty(size), np.empty(size)
        for _ in range(n):
            # uniform(0, 2 pi) draws 0 + 2 pi * next_double; each block of the
            # stream holds every trial, so skip the other chunks' draws
            rng.random(out=a1)
            a1 *= 2.0 * math.pi
            bitgen.advance(trials - size)
            rng.random(out=a2)
            a2 *= 2.0 * math.pi
            bitgen.advance(trials - size)
            # In place, in the operation order of
            #   cross = sin2phi * sqrt(q1 q2) * sin(alpha1 - alpha2)
            #   q1, q2 = c2 q1 + s2 q2 + cross, s2 q1 + c2 q2 - cross
            # so every bit matches the whole-array form. Both populations are
            # analytically >= 0; clamp roundoff before the next sqrt.
            np.subtract(a1, a2, out=a1)
            np.sin(a1, out=a1)
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
