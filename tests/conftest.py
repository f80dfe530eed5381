"""Shared fixtures: the expensive reference runs are computed once per session."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

import zenomap.pool as pool
from zenomap import (
    BasisWindow,
    QuantumState,
    SpectrumModel,
    build_kernel,
    dispersion,
    step,
)
from zenomap.observables import DispersionSeries
from zenomap.runner import ExperimentConfig, run_experiment

from reference import copied, time_averaged_profile

# Hypothesis's report of a failing @given test imports libcst, which warns
# that mypy_extensions.TypedDict is deprecated. Under ``-W error`` (which
# overrides any ini filter) that warning ends the session with an
# INTERNALERROR and loses every later result, so libcst is imported here
# once, with that one warning ignored.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning
    )
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass

DEFAULT_K = 10.0
DEFAULT_TAU = 1.0
DEFAULT_M0 = 500
DEFAULT_HW = 2000
N_KICKS = 1000
PROFILE_WINDOW = (500, 1000)
RANDOM_SEED = 999  # fixes the random level spectrum for every random-spectrum run


def moving_average(values: np.ndarray, width: int) -> np.ndarray:
    return np.convolve(values, np.ones(width) / width, mode="valid")


@pytest.fixture
def started_helpers(monkeypatch):
    """The helper threads ``map_chunks`` starts beside the calling thread."""
    started = []

    class Counted(pool.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(pool, "Thread", Counted)
    return started


@pytest.fixture
def no_helper(monkeypatch):
    """Fails the test if ``map_chunks`` builds a helper thread."""

    class Refused(pool.Thread):
        def __init__(self, *args, **kwargs):
            raise AssertionError("map_chunks started a helper thread")

    monkeypatch.setattr(pool, "Thread", Refused)


@pytest.fixture(scope="session")
def kernel10():
    return build_kernel(DEFAULT_K)


@pytest.fixture(scope="session")
def default_window():
    return BasisWindow.centered(DEFAULT_M0, DEFAULT_HW)


@pytest.fixture(scope="session")
def curve_a(default_window, kernel10):
    """Unmeasured rotator run: dispersion series plus late-time profile.

    Fully deterministic (no measurement, so no random draws at all).
    """
    spectrum = SpectrumModel.rotator(default_window, DEFAULT_TAU)
    state = QuantumState.delta(default_window)
    rows = [(0, dispersion(state), state.norm_sq(), 1.0)]
    snapshots = []
    home = default_window.offset(DEFAULT_M0)
    for j in range(1, N_KICKS + 1):
        step(state, kernel10, spectrum)
        rows.append(
            (j, dispersion(state), state.norm_sq(), abs(state.amplitudes[home]) ** 2)
        )
        if PROFILE_WINDOW[0] <= j <= PROFILE_WINDOW[1]:
            snapshots.append(copied(state))
    series = DispersionSeries(*zip(*rows))
    profile = time_averaged_profile(snapshots)
    return {"series": series, "profile": profile, "window": default_window}


def _run(config: ExperimentConfig):
    return run_experiment(config)


@pytest.fixture(scope="session")
def curve_d_record():
    """All states measured every kick, 20 independent realizations."""
    config = ExperimentConfig(
        experiment="kicked", measurement_mode="all", measurement_period=1,
        seed=7, realizations=20,
    )
    return _run(config)


@pytest.fixture(scope="session")
def curve_b_record():
    """Initial state measured every kick, 40 realizations.

    The slow late growth of this scenario sits close to the fluctuation
    level, so its monotonicity check needs more averaging than the others.
    """
    config = ExperimentConfig(
        experiment="kicked", measurement_mode="initial", measurement_period=1,
        seed=21, realizations=40,
    )
    return _run(config)


@pytest.fixture(scope="session")
def curve_c_record():
    """All states measured every 200 kicks, 10 realizations."""
    config = ExperimentConfig(
        experiment="kicked", measurement_mode="all", measurement_period=200,
        seed=33, realizations=10,
    )
    return _run(config)


@pytest.fixture(scope="session")
def random_curves():
    """The four scenarios on one fixed random level spectrum."""
    base = ExperimentConfig(experiment="kicked", spectrum="random", seed=RANDOM_SEED)
    runs = {}
    runs["a"] = _run(base).aggregate
    runs["b"] = _run(
        dataclasses.replace(base, measurement_mode="initial", realizations=5)
    ).aggregate
    runs["c"] = _run(
        dataclasses.replace(
            base, measurement_mode="all", measurement_period=200, realizations=5
        )
    ).aggregate
    runs["d"] = _run(
        dataclasses.replace(base, measurement_mode="all", realizations=5)
    ).aggregate
    return runs
