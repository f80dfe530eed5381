"""Quantum resonance and antiresonance of the rotator, through ``run_experiment``.

At ``tau = 4 pi`` every free flight is the identity, so ``j`` kicks are one
kick of strength ``j k`` and the dispersion grows ballistically,
``d(j) = j^2 k^2 / 2``. At ``tau = 2 pi`` the flight is ``(-1)^m``, which
turns the next kick into the inverse of the last, so ``U^2 = 1`` and ``d``
alternates ``k^2 / 2`` and 0 (Izrailev & Shepelyansky, Theor. Math. Phys. 43,
553, 1980). A readout every even number of kicks then finds the initial
state each time, so it freezes the spread: a Zeno effect in the kicked map.
At ``m0 = 0`` the flight phases are exact to roundoff.
"""

import math

import numpy as np
import pytest

from zenomap.runner import ExperimentConfig, run_experiment

K = 2.0
N_KICKS = 40
RESONANCE, ANTIRESONANCE = 4.0 * math.pi, 2.0 * math.pi


def _dispersion(tau: float, mode: str = "none", period: int = 1) -> np.ndarray:
    config = ExperimentConfig(
        "kicked", m0=0, k=K, tau=tau, n_kicks=N_KICKS, window_halfwidth=1500,
        measurement_mode=mode, measurement_period=period, seed=3,
    )
    return run_experiment(config).aggregate.dispersion


def test_unmeasured_resonance_is_ballistic():
    j = np.arange(1, N_KICKS + 1)
    expected = j**2 * K**2 / 2
    np.testing.assert_allclose(_dispersion(RESONANCE)[1:], expected, rtol=1e-12, atol=0.0)


def test_unmeasured_antiresonance_alternates():
    d = _dispersion(ANTIRESONANCE)
    np.testing.assert_allclose(d[1::2], K**2 / 2, rtol=1e-12, atol=0.0)
    assert np.all(d[0::2] < 1e-15)


@pytest.mark.parametrize("period", [2, 4])
@pytest.mark.parametrize("mode", ["all", "initial"])
def test_even_readout_at_antiresonance_freezes_the_spread(mode, period):
    d = _dispersion(ANTIRESONANCE, mode, period)
    assert np.all(d[period::period] < 1e-15)
