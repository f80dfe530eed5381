"""Classical kicked-rotor ensemble: the standard map and its diffusion rate.

The classical counterpart of the quantum kick map is the area-preserving
action-angle map ``I' = I + k sin(theta)``, ``theta' = theta + tau I'``.
Above the chaos threshold ``K = tau k > K_c`` the action diffuses. The
quasilinear rate ``B = k^2 / (4 tau)`` follows from averaging the squared
kick over uniform angles, so it holds only where the angles are
uncorrelated, such as the first kick from uniform angles. That uncorrelated
rate is what the measured quantum runs, whose phases are fresh every kick,
are compared against. The map's long-time rate is the quasilinear rate times
an angle-correlation factor; to first order (Rechester & White, PRL 44, 1586,
1980) ``R(K) = 1 - 2 J2(K) - 2 J1(K)^2 + 2 J2(K)^2 + 2 J3(K)^2``, about 0.62
at K = 10.

One protocol: every particle starts at action ``I0`` with an angle drawn
uniformly by ``ClassicalEnsemble.prepared`` from its ``seed``, and
``ensemble_series`` evolves those angles.

An ensemble may hold several equal-sized realizations one after another in
its flat ``particles`` array (``ClassicalEnsemble.realizations``). They
evolve as one array, so a step makes one call per numpy operation for all of
them, and ``ensemble_series`` returns one row per realization. Every step is
elementwise and each row's statistics reduce that row alone, so a row's
bytes do not depend on the rows it evolves with.

Each step wraps the angles into [0, 2*pi). When every angle is finite and in
[+0, 2**20 * 2*pi), ``_wrap_angles`` subtracts ``n * 2*pi`` by an exact
two-constant reduction, bit for bit as ``np.mod`` would wrap them; all other
angles go through ``np.mod``, with its values and warnings. Classical outputs
are byte-identical to those of earlier versions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import LostKickError
from .observables import DispersionSeries

# Chaos threshold of the standard map, K = tau * k.
K_CRITICAL = 0.9816

_SeedLike = Union[int, np.random.SeedSequence, np.random.Generator, None]
_TWO_PI = 2.0 * math.pi
# 2*pi split as HI + LO: HI keeps the top 33 of its 53 significand bits and
# LO holds the 20 cleared ones, so n * HI and n * LO are exact for integers
# n <= 2**20.
_TWO_PI_HI = float.fromhex("0x1.921fb544p+2")
_TWO_PI_LO = _TWO_PI - _TWO_PI_HI
_INV_TWO_PI = 1.0 / _TWO_PI
_WRAP_LIMIT = 2.0**20 * _TWO_PI_HI
# The bits of _WRAP_LIMIT as an unsigned integer. Read as uint64, the doubles
# in [+0, _WRAP_LIMIT) are exactly those below it: a set sign bit (a negative
# number or -0.0), infinities and nans all read higher.
_WRAP_LIMIT_BITS = int(np.array(_WRAP_LIMIT).view(np.uint64))


@dataclass(frozen=True, eq=False)
class ClassicalEnsemble:
    """Particles at action ``I0`` (a read-only float64 array of their initial
    angles), plus the map parameters they evolve under.

    ``particles`` holds ``realizations`` equal-sized ensembles one after
    another; it stays flat, so ``len(particles)`` counts every particle.
    """

    particles: np.ndarray
    I0: float
    tau: float
    k: float
    realizations: int = 1

    def __post_init__(self) -> None:
        angles = np.array(self.particles, dtype=np.float64)
        if angles.ndim != 1 or angles.size < 1:
            raise ValueError(f"need a nonempty 1-d array of angles, got shape {angles.shape}")
        if self.realizations < 1 or angles.size % self.realizations:
            raise ValueError(
                f"realizations must be >= 1 and divide the {angles.size} particles, "
                f"got {self.realizations}"
            )
        angles.flags.writeable = False
        object.__setattr__(self, "particles", angles)
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")

    @property
    def K(self) -> float:
        return self.tau * self.k

    @property
    def chaotic(self) -> bool:
        return self.K > K_CRITICAL

    @classmethod
    def prepared(
        cls, n_particles: int, I0: float, tau: float, k: float, seed: _SeedLike = None
    ) -> "ClassicalEnsemble":
        """``n_particles`` at action ``I0``, angles i.i.d. uniform from ``seed``
        (reproducible for a fixed seed or generator state)."""
        return cls(np.random.default_rng(seed).uniform(0.0, _TWO_PI, n_particles), I0, tau, k)


def _wrap_angles(angles: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Wrap ``angles`` into [0, 2*pi) in place and return them, bit for bit
    as ``np.mod(angles, 2*pi)`` would; ``work`` is scratch of shape
    ``(2, angles.size)``.

    When every angle is finite and in [+0, 2**20 * HI), the remainder is
    ``(x - n*HI) - n*LO`` with ``n = floor(x * (1 / 2*pi))``: every product and
    difference is exact, so it is exactly ``x - n * 2*pi``. ``_INV_TWO_PI``
    lies above ``1 / _TWO_PI``, so ``n`` is never too small; rounding can
    make it one too large, which leaves a negative remainder that one exact
    addition of 2*pi mends. Any other array goes through ``np.mod``, with its
    values and warnings.
    """
    if np.maximum.reduce(angles.view(np.uint64)) >= _WRAP_LIMIT_BITS:  # a nan fails too
        return np.mod(angles, _TWO_PI, out=angles)
    n, product = work
    np.multiply(angles, _INV_TWO_PI, out=n)
    np.floor(n, out=n)
    np.multiply(n, _TWO_PI_HI, out=product)
    angles -= product
    np.multiply(n, _TWO_PI_LO, out=product)
    angles -= product
    if np.minimum.reduce(angles) < 0.0:
        np.add(angles, _TWO_PI, out=angles, where=angles < 0.0)
    return angles


def _step_arrays(
    actions: np.ndarray, angles: np.ndarray, k: float, tau: float, work: np.ndarray
) -> None:
    """One map step in place; ``work`` is scratch of shape ``(2, n)``."""
    kick = work[0]
    np.sin(angles, out=kick)
    kick *= k
    actions += kick
    np.multiply(actions, tau, out=kick)
    angles += kick
    _wrap_angles(angles, work)


def ensemble_diffusion(ensemble: ClassicalEnsemble, steps: int) -> float:
    """Diffusion-rate estimate ``<(I_t - I0)^2> / (2 t)`` at ``t = steps * tau``.

    The final dispersion of ``ensemble_series`` (averaged over the
    ensemble's realizations) over ``2 t``. Warns when ``K <= K_c``, where the
    motion is not globally chaotic and a diffusion rate is not meaningful.
    """
    series = ensemble_series(ensemble, steps)
    if not ensemble.chaotic:
        warnings.warn(
            f"K = {ensemble.K:.4f} <= K_c = {K_CRITICAL}; motion is not globally "
            "chaotic and the diffusion estimate is unreliable",
            stacklevel=2,
        )
    return float(np.mean(series.dispersion[..., -1]) / (2.0 * steps * ensemble.tau))


def ensemble_series(ensemble: ClassicalEnsemble, steps: int) -> DispersionSeries:
    """Per-kick dispersion record in the same shape the quantum runs emit.

    Evolves a copy of the stored angles from action ``I0``. Entries are
    ``(j, <(I - I0)^2>, 1.0, fraction within half a cell of I0)`` so
    classical curves drop into the same CSV schema and charts. An ensemble of
    several realizations gives columns of one row per realization, each
    byte-identical to that realization evolved alone; one realization gives
    1-D columns. Raises :class:`LostKickError` when ``k > 0`` but ``I0 + k``
    and ``I0 - k`` both round to ``I0``: rounding is monotone, so then no
    kick can move an action.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    I0, k = float(ensemble.I0), ensemble.k
    if k > 0 and I0 + k == I0 and I0 - k == I0:
        raise LostKickError(
            f"the kick k = {k:g} is below the rounding of the action I0 = {I0:g}, "
            "so no action can change"
        )
    angles = ensemble.particles.copy()
    rows = ensemble.realizations
    n = angles.size // rows
    actions = np.full(angles.size, I0)
    work = np.empty((2, angles.size))
    square, spread = work  # the step's scratch, free between steps
    home = np.empty(angles.size, dtype=bool)
    square_rows, home_rows = square.reshape(rows, n), home.reshape(rows, n)
    # per kick and row: the sum of squared spreads and the particles at home
    sums = np.empty((steps + 1, rows))
    counts = np.empty((steps + 1, rows), dtype=np.int64)
    for t in range(steps + 1):
        if t:
            _step_arrays(actions, angles, ensemble.k, ensemble.tau, work)
        np.subtract(actions, ensemble.I0, out=spread)
        np.multiply(spread, spread, out=square)
        # a row sums pairwise, as np.mean of a 1-D array does
        np.add.reduce(square_rows, axis=1, out=sums[t])
        # |x| <= 0.5 exactly when fl(x * x) <= 0.25: rounding is monotone and
        # the first double above 0.5 squares to above 0.25
        np.less_equal(square, 0.25, out=home)
        np.add.reduce(home_rows, axis=1, out=counts[t])
    # np.mean's division; one row per realization
    dispersion, p_home = sums.T / n, counts.T / n
    if rows == 1:
        dispersion, p_home = dispersion[0], p_home[0]
    return DispersionSeries(np.arange(steps + 1), dispersion, np.ones(dispersion.shape), p_home)
