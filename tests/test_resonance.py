"""Quantum resonance and antiresonance of the rotator, through ``run_experiment``.

At ``tau = 4 pi`` every free flight is the identity, so ``j`` kicks are one
kick of strength ``j k`` and the dispersion grows ballistically,
``d(j) = j^2 k^2 / 2``. At ``tau = 2 pi`` the flight is ``(-1)^m``, which
turns the next kick into the inverse of the last, so ``U^2 = 1`` and ``d``
alternates ``k^2 / 2`` and 0 (Izrailev & Shepelyansky, Theor. Math. Phys. 43,
553, 1980). A readout every even number of kicks then finds the initial
state each time, so it freezes the spread: a Zeno effect in the kicked map.
At ``m0 = 0`` the flight phases are exact to roundoff.

Averaged over the phases, reading out all states every ``P`` kicks maps the
occupation by ``J_d(P k)^2`` at resonance, so ``d(nP) = n P^2 k^2 / 2``, and
by ``J_d(k)^2`` at antiresonance with ``P`` odd, so ``d(nP) = n k^2 / 2``.
The sampled realizations' mean must agree at every readout kick.
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


# Sampled rows against the phase-averaged closed forms, 100 realizations.
# Over seeds 101-110, which these tests do not use, max |z| over the readout
# kicks of all seven cases was 3.53, so the family-wise bound is 4.5. With 40
# realizations the rows' skew just after the first readouts reached 4.27.
SAMPLED_REALIZATIONS, Z_BOUND = 100, 4.5


@pytest.mark.parametrize("tau, period", [
    (RESONANCE, 1), (RESONANCE, 2), (RESONANCE, 3), (RESONANCE, 5),
    (ANTIRESONANCE, 1), (ANTIRESONANCE, 3), (ANTIRESONANCE, 5),
], ids=["4pi-P1", "4pi-P2", "4pi-P3", "4pi-P5", "2pi-P1", "2pi-P3", "2pi-P5"])
def test_sampled_readout_every_period_matches_the_closed_form(tau, period):
    config = ExperimentConfig(
        "kicked", m0=0, k=K, tau=tau, n_kicks=N_KICKS, window_halfwidth=1500,
        measurement_mode="all", measurement_period=period, seed=3,
        realizations=SAMPLED_REALIZATIONS,
    )
    kicks = np.arange(period, N_KICKS + 1, period)
    rows = run_experiment(config).realizations.dispersion[:, kicks]
    # Up to the first readout every row is the same state, so the rows agree
    # to roundoff and their SEM is roundoff too: skip those kicks.
    spread = np.ptp(rows, axis=0) > 1e-12 * rows.mean(axis=0)
    assert spread.sum() == kicks.size - 1
    readouts = kicks // period
    closed = readouts * K**2 / 2 * (period**2 if tau == RESONANCE else 1)
    sem = rows.std(axis=0, ddof=1) / np.sqrt(SAMPLED_REALIZATIONS)
    z = (rows.mean(axis=0) - closed)[spread] / sem[spread]
    assert np.abs(z).max() <= Z_BOUND
