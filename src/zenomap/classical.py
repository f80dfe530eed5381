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
``ensemble_series`` evolves those angles. ``classical_step`` is the scalar
map the array map is tested against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

# Chaos threshold of the standard map, K = tau * k.
K_CRITICAL = 0.9816

_SeedLike = Union[int, np.random.Generator, None]
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ClassicalParticle:
    """Single trajectory point: action and angle (angle kept in [0, 2*pi))."""

    action: float
    angle: float


@dataclass(frozen=True, eq=False)
class ClassicalEnsemble:
    """Particles at action ``I0`` (a read-only float64 array of their initial
    angles), plus the map parameters they evolve under."""

    particles: np.ndarray
    I0: float
    tau: float
    k: float

    def __post_init__(self) -> None:
        angles = np.array(self.particles, dtype=np.float64)
        if angles.ndim != 1 or angles.size < 1:
            raise ValueError(f"need a nonempty 1-d array of angles, got shape {angles.shape}")
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


def classical_step(p: ClassicalParticle, k: float, tau: float) -> ClassicalParticle:
    """One kick plus free rotation: ``I' = I + k sin(theta)``, ``theta' = theta + tau I'``."""
    action = p.action + k * math.sin(p.angle)
    angle = (p.angle + tau * action) % _TWO_PI
    return ClassicalParticle(action, angle)


def _step_arrays(actions: np.ndarray, angles: np.ndarray, k: float, tau: float) -> None:
    actions += k * np.sin(angles)
    angles += tau * actions
    np.mod(angles, _TWO_PI, out=angles)


def ensemble_diffusion(ensemble: ClassicalEnsemble, steps: int) -> float:
    """Diffusion-rate estimate ``<(I_t - I0)^2> / (2 t)`` at ``t = steps * tau``.

    The final dispersion of ``ensemble_series`` over ``2 t``. Warns when
    ``K <= K_c``, where the motion is not globally chaotic and a diffusion
    rate is not meaningful.
    """
    series = ensemble_series(ensemble, steps)
    if not ensemble.chaotic:
        warnings.warn(
            f"K = {ensemble.K:.4f} <= K_c = {K_CRITICAL}; motion is not globally "
            "chaotic and the diffusion estimate is unreliable",
            stacklevel=2,
        )
    return float(series.dispersion[-1] / (2.0 * steps * ensemble.tau))


def ensemble_series(ensemble: ClassicalEnsemble, steps: int):
    """Per-kick dispersion record in the same shape the quantum runs emit.

    Evolves a copy of the stored angles from action ``I0``. Entries are
    ``(j, <(I - I0)^2>, 1.0, fraction within half a cell of I0)`` so
    classical curves drop into the same CSV schema and charts.
    """
    from .observables import DispersionSeries  # local import, avoids cycle at import time

    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    angles = ensemble.particles.copy()
    n = angles.size
    actions = np.full(n, float(ensemble.I0))
    j = np.arange(steps + 1)
    dispersion = np.zeros(steps + 1)
    p_home = np.zeros(steps + 1)
    spread = actions - ensemble.I0
    dispersion[0] = np.mean(spread * spread)
    p_home[0] = np.count_nonzero(np.abs(spread) <= 0.5) / n
    for t in range(1, steps + 1):
        _step_arrays(actions, angles, ensemble.k, ensemble.tau)
        spread = actions - ensemble.I0
        dispersion[t] = np.mean(spread * spread)
        p_home[t] = np.count_nonzero(np.abs(spread) <= 0.5) / n
    return DispersionSeries(j, dispersion, np.ones(steps + 1), p_home)
