"""The shape of the occupation under readout of all states every kick.

Averaged over the phases, reading out all states after every kick turns the
occupation into a Markov chain on momentum: each kick moves it by ``d`` with
probability ``J_d(k)^2``. After ``n`` kicks the occupation is the ``n``-fold
convolution of ``J^2``, with ``sum d^2 J_d^2 = k^2 / 2`` and
``sum d^4 J_d^2 = 3 k^4 / 8 + k^2 / 2`` (from
``sum J_d^2 e^{i d phi} = J_0(2 k sin(phi / 2))``). Its kurtosis
``<o^4> / <o^2>^2``, with ``o = m - m0``, is therefore

    3 + (2 / k^2 - 3 / 2) / n,

which tends to a Gaussian's 3 as the readout restores diffusion. After one
kick the occupation is ``J_d(k)^2`` in every realization, whose kurtosis is
``3 / 2 + 2 / k^2`` exactly. The realization mean of the sampled
occupations must agree with the chain at every later kick.

Without readout the occupation localizes, and a localized profile is about
exponential, ``p ~ exp(-2 |o| / l)``, whose kurtosis is 6. The classical
standard map diffuses, so its actions spread as a Gaussian, kurtosis 3.
Neither value is a closed form for the runs: each test holds its statistic
to a band recorded first from start states or seeds it does not use.
"""

import numpy as np
import pytest

from zenomap import BasisWindow, QuantumState, SpectrumModel, build_kernel, step
from zenomap.classical import ClassicalEnsemble, _step_arrays
from zenomap.measurement import MeasurementSchedule, PhaseRandomizer, apply_measurement

from reference import occupations

K = 10.0
KICKS = 6
REALIZATIONS = 200
# Over seeds 101-110, which these tests do not use, max |z| over kicks 2-6 was
# 2.45 (seed 102), so the family-wise bound is 4.0.
Z_BOUND = 4.0


def _moments(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``<o^2>`` and ``<o^4>`` of each realization after kicks 0..KICKS, as
    ``(REALIZATIONS, KICKS + 1)`` arrays, with all states read out every kick."""
    window = BasisWindow.centered(0, 300)
    kernel, spectrum = build_kernel(K), SpectrumModel.rotator(window, tau=1.0)
    schedule = MeasurementSchedule("all")
    o2 = window.indices().astype(float) ** 2
    second = np.zeros((REALIZATIONS, KICKS + 1))
    fourth = np.zeros((REALIZATIONS, KICKS + 1))
    for r in range(REALIZATIONS):
        state, rng = QuantumState.delta(window), PhaseRandomizer(seed, r)
        for j in range(1, KICKS + 1):
            step(state, kernel, spectrum)
            apply_measurement(state, schedule, rng)
            p2 = occupations(state) * o2
            second[r, j], fourth[r, j] = p2.sum(), p2 @ o2
    return second, fourth


def _chain_z(second: np.ndarray, fourth: np.ndarray) -> np.ndarray:
    """z of the realization-mean occupation's kurtosis against the chain at
    kicks 2..KICKS, with the delta-method standard error of
    ``mean(fourth) / mean(second)^2``. After kick 1 every realization has the
    same occupation, so its standard error is roundoff."""
    second, fourth = second[:, 2:], fourth[:, 2:]
    a, b = second.mean(axis=0), fourth.mean(axis=0)
    influence = fourth / a**2 - 2.0 * b * second / a**3
    se = influence.std(axis=0, ddof=1) / np.sqrt(REALIZATIONS)
    chain = 3.0 + (2.0 / K**2 - 1.5) / np.arange(2, KICKS + 1)
    return (b / a**2 - chain) / se


@pytest.fixture(scope="module")
def moments():
    return _moments(seed=3)


def test_kurtosis_after_one_kick_is_the_kernels(moments):
    second, fourth = moments
    kurtosis = fourth[:, 1].mean() / second[:, 1].mean() ** 2
    assert abs(kurtosis / (1.5 + 2.0 / K**2) - 1.0) < 1e-12


def test_kurtosis_follows_the_chain_at_kicks_2_to_6(moments):
    assert np.abs(_chain_z(*moments)).max() <= Z_BOUND


# The unmeasured occupation of each of 20 start states, averaged over kicks
# 100-300 (the break time is about 50 kicks at k = 10), has its own kurtosis;
# their median is the statistic. Over 30 disjoint groups of 20 start states
# (m0 = 1000 + 7 i and 5000 + 11 i, i < 300, which this test does not use) it
# read 5.07-7.83, mean 6.57, sd 0.65; single start states spread from 3.5 to
# 18, as localization lengths do.
UNMEASURED_STARTS = [20_000 + 13 * i for i in range(20)]
UNMEASURED_BAND = (4.5, 9.0)


def _unmeasured_kurtosis(m0: int) -> float:
    window = BasisWindow.centered(m0, 800)
    kernel, spectrum = build_kernel(K), SpectrumModel.rotator(window, tau=1.0)
    o2 = (window.indices() - m0).astype(float) ** 2
    state, total = QuantumState.delta(window), np.zeros(2)
    for j in range(1, 301):
        step(state, kernel, spectrum)
        if j >= 100:
            p2 = occupations(state) * o2
            total += p2.sum(), p2 @ o2
    second, fourth = total / 201
    return fourth / second**2


def test_unmeasured_occupation_is_about_exponential():
    kurtosis = np.median([_unmeasured_kurtosis(m0) for m0 in UNMEASURED_STARTS])
    assert UNMEASURED_BAND[0] <= kurtosis <= UNMEASURED_BAND[1]


# Actions of 20,000 particles from I0 = 500 with uniform angles, after 100
# steps at K = 10. Over seeds 1000-1039, which this test does not use, the
# kurtosis read 2.904-3.071, mean 2.987, sd 0.034 (the sampling error of a
# Gaussian's kurtosis, sqrt(24 / 20000), is 0.035).
CLASSICAL_BAND = (2.8, 3.2)


def test_classical_actions_are_about_gaussian():
    particles, steps = 20_000, 100
    ensemble = ClassicalEnsemble.prepared(particles, 500.0, 1.0, K, seed=7)
    angles, actions = ensemble.particles.copy(), np.full(particles, 500.0)
    work = np.empty((2, particles))
    for _ in range(steps):
        _step_arrays(actions, angles, K, 1.0, work)
    o2 = (actions - 500.0) ** 2
    kurtosis = np.mean(o2 * o2) / np.mean(o2) ** 2
    assert CLASSICAL_BAND[0] <= kurtosis <= CLASSICAL_BAND[1]
