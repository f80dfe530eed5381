"""Measurement schedules and phase randomization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenomap import BasisWindow, QuantumState, dispersion
from zenomap.kick_engine import apply_kick
from zenomap.measurement import (
    _PHASE_STEP,
    MeasurementMode,
    MeasurementSchedule,
    PhaseRandomizer,
    _phase_factors,
    apply_measurement,
    should_measure,
)


class TestSchedule:
    def test_fires_on_period_multiples(self):
        schedule = MeasurementSchedule.all_states(period=200)
        assert should_measure(schedule, 200)
        assert not should_measure(schedule, 201)
        assert should_measure(schedule, 400)

    def test_none_never_fires(self):
        schedule = MeasurementSchedule.none()
        assert not any(should_measure(schedule, j) for j in range(1, 500))

    def test_kick_index_starts_at_one(self):
        with pytest.raises(ValueError):
            should_measure(MeasurementSchedule.all_states(), 0)

    def test_period_must_be_positive(self):
        with pytest.raises(ValueError):
            MeasurementSchedule.all_states(period=0)

    def test_subset_must_be_nonempty(self):
        with pytest.raises(ValueError):
            MeasurementSchedule.subset_of(())

    def test_subset_rejects_duplicates(self):
        with pytest.raises(ValueError):
            MeasurementSchedule.subset_of((3, 3))

    def test_subset_only_with_subset_mode(self):
        with pytest.raises(ValueError):
            MeasurementSchedule(MeasurementMode.ALL, 1, (5,))

    def test_subset_is_sorted(self):
        schedule = MeasurementSchedule.subset_of((9, 2, 5))
        assert schedule.subset == (2, 5, 9)


def _random_state(window: BasisWindow, seed: int) -> QuantumState:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=window.size) + 1j * rng.normal(size=window.size)
    amps /= np.linalg.norm(amps)
    return QuantumState(window, amps)


class TestApplyMeasurement:
    def test_none_returns_identical_state(self):
        window = BasisWindow.centered(0, 10)
        state = _random_state(window, 0)
        out = apply_measurement(state, MeasurementSchedule.none(), PhaseRandomizer(1))
        assert out is state

    def test_full_measurement_preserves_occupations(self):
        window = BasisWindow.centered(0, 50)
        state = _random_state(window, 1)
        out = apply_measurement(state, MeasurementSchedule.all_states(), PhaseRandomizer(2))
        assert np.allclose(out.occupations(), state.occupations(), rtol=1e-14, atol=0)
        assert not np.allclose(out.amplitudes, state.amplitudes)  # phases did change

    def test_delta_state_unchanged_up_to_global_phase(self):
        window = BasisWindow.centered(0, 10)
        state = QuantumState.delta(window)
        out = apply_measurement(state, MeasurementSchedule.all_states(), PhaseRandomizer(3))
        assert abs(abs(out.amplitudes[window.offset(0)]) - 1.0) < 1e-14
        occupied = np.nonzero(out.occupations() > 0)[0]
        assert list(occupied) == [window.offset(0)]

    def test_subset_leaves_unmeasured_amplitudes_bit_identical(self):
        window = BasisWindow.centered(0, 20)
        state = _random_state(window, 4)
        schedule = MeasurementSchedule.subset_of((-3, 7))
        out = apply_measurement(state, schedule, PhaseRandomizer(5))
        touched = [window.offset(-3), window.offset(7)]
        untouched = [i for i in range(window.size) if i not in touched]
        assert np.array_equal(out.amplitudes[untouched], state.amplitudes[untouched])
        assert np.allclose(
            np.abs(out.amplitudes[touched]), np.abs(state.amplitudes[touched]),
            rtol=1e-14, atol=0,
        )

    def test_subset_outside_window_rejected(self):
        window = BasisWindow.centered(0, 10)
        state = QuantumState.delta(window)
        schedule = MeasurementSchedule.subset_of((25,))
        with pytest.raises(ValueError):
            apply_measurement(state, schedule, PhaseRandomizer(6))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_occupations_invariant_for_any_state(self, seed):
        window = BasisWindow.centered(0, 15)
        state = _random_state(window, seed)
        out = apply_measurement(
            state, MeasurementSchedule.all_states(), PhaseRandomizer(seed)
        )
        assert np.allclose(out.occupations(), state.occupations(), rtol=1e-13, atol=0)

    def test_dispersion_invariant_under_measurement(self):
        window = BasisWindow.centered(0, 40)
        state = _random_state(window, 7)
        out = apply_measurement(state, MeasurementSchedule.all_states(), PhaseRandomizer(8))
        # phases never enter the dispersion sum; equality up to roundoff of
        # the occupation products
        assert dispersion(out) == pytest.approx(dispersion(state), rel=1e-13)


class TestPhaseFactors:
    """The table-and-residual factors against ``np.exp(1j * beta)``."""

    @staticmethod
    def _edge_phases() -> np.ndarray:
        h = np.unique(np.concatenate([
            np.arange(0, 17), np.arange(4080, 4096),
            np.random.default_rng(3).integers(0, 4096, 500),
        ]))
        split = h * _PHASE_STEP
        return np.concatenate([
            [0.0, np.nextafter(2 * np.pi, 0)], split, np.nextafter(split, 0),
        ])

    @pytest.mark.parametrize("which", ["uniform", "edges"])
    def test_matches_complex_exponential(self, which):
        if which == "uniform":
            betas = np.random.default_rng(20).uniform(0.0, 2 * np.pi, 10**6)
        else:
            betas = self._edge_phases()
        assert np.all((betas >= 0.0) & (betas < 2 * np.pi))
        factors = _phase_factors(betas.copy())
        assert np.max(np.abs(factors - np.exp(1j * betas))) <= 2e-15
        assert np.max(np.abs(np.abs(factors) - 1.0)) <= 2e-15

    def test_full_readout_consumes_one_draw_per_state(self):
        window = BasisWindow.centered(0, 300)
        state = _random_state(window, 9)
        used, reference = PhaseRandomizer(13, 4), PhaseRandomizer(13, 4)
        out = apply_measurement(state, MeasurementSchedule.all_states(), used)
        betas = reference.phases(window.size)
        assert used._rng.bit_generator.state == reference._rng.bit_generator.state
        assert np.allclose(out.amplitudes, state.amplitudes * np.exp(1j * betas),
                           rtol=0, atol=4e-15)


class TestPhaseRandomizer:
    def test_reproducible_for_same_seed_and_realization(self):
        a = PhaseRandomizer(11, 2).phases(100)
        b = PhaseRandomizer(11, 2).phases(100)
        assert np.array_equal(a, b)

    def test_realizations_get_independent_streams(self):
        a = PhaseRandomizer(11, 0).phases(100)
        b = PhaseRandomizer(11, 1).phases(100)
        assert not np.array_equal(a, b)

    def test_phases_in_range(self):
        draws = PhaseRandomizer(12).phases(10_000)
        assert np.all(draws >= 0.0)
        assert np.all(draws < 2 * np.pi)

    def test_successive_draws_are_uncorrelated(self):
        # circular autocorrelation over 10^4 events at lags 1..10
        draws = PhaseRandomizer(42).phases(10_000)
        for lag in range(1, 11):
            r = np.mean(np.exp(1j * (draws[lag:] - draws[:-lag])))
            assert abs(r) < 0.05


class TestDecoherence:
    def test_interference_term_averages_out_after_full_measurement(self, kernel10):
        # Two equally weighted components two momentum quanta apart carry the
        # only coherence the dispersion can see after one kick. Without
        # measurement that cross term is O(k^2/4); after a full measurement
        # its ensemble mean must be far below the incoherent part.
        window = BasisWindow.centered(0, 60)
        base = np.zeros(window.size, complex)
        base[window.offset(0)] = 1 / np.sqrt(2)
        base[window.offset(2)] = 1 / np.sqrt(2)
        state = QuantumState(window, base)
        # incoherent expectation: sum_n |a_n|^2 ((n - m0)^2 + k^2/2)
        incoherent = 0.5 * (0.0 + 50.0) + 0.5 * (4.0 + 50.0)
        schedule = MeasurementSchedule.all_states()
        rng = PhaseRandomizer(11)
        trials = 20_000
        total = 0.0
        for _ in range(trials):
            measured = apply_measurement(state, schedule, rng)
            total += dispersion(apply_kick(measured, kernel10))
        mean_interference = total / trials - incoherent
        assert abs(mean_interference) < 0.01 * incoherent

    def test_fresh_phases_delocalize_where_fixed_phases_localize(self, random_curves):
        # same random level spectrum: without measurement the dispersion
        # saturates; with fresh phases every kick it keeps growing linearly
        frozen = random_curves["a"]
        fresh = random_curves["d"]
        late_mean = float(np.mean(frozen.dispersion[frozen.j >= 500]))
        assert float(fresh.dispersion[-1]) > 5.0 * late_mean
