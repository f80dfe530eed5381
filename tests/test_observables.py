"""Dispersion series, localization fits, and break-time detection."""

import numpy as np
import pytest

from zenomap import (
    BasisWindow,
    NoLocalizationError,
    NonFiniteError,
    NormDriftError,
    QuantumState,
    detect_break_time,
    diffusion_slope,
    dispersion,
    fit_localization_length,
)
from zenomap.kick_engine import apply_kick
from zenomap.observables import DispersionSeries

from reference import occupations, time_averaged_profile


class TestDispersion:
    def test_delta_state_has_zero_dispersion(self):
        state = QuantumState.delta(BasisWindow.centered(500, 50))
        assert dispersion(state) == 0.0

    def test_symmetric_pair(self):
        window = BasisWindow.centered(0, 50)
        amps = np.zeros(window.size, complex)
        amps[window.offset(-2)] = 1 / np.sqrt(2)
        amps[window.offset(2)] = 1 / np.sqrt(2)
        assert dispersion(QuantumState(window, amps)) == pytest.approx(4.0, abs=1e-12)

    def test_single_kick_increment(self, kernel10):
        state = QuantumState.delta(BasisWindow.centered(500, 100))
        apply_kick(state, kernel10)
        assert dispersion(state) == pytest.approx(50.0, abs=1e-10)


    def test_weights_are_cached_read_only_squared_offsets(self):
        window = BasisWindow.centered(7, 40)
        weights = window.dispersion_weights
        assert weights is window.dispersion_weights
        assert not weights.flags.writeable
        assert np.array_equal(weights, (window.indices() - 7).astype(float) ** 2)


class TestTimeAveragedProfile:
    def test_stationary_delta(self):
        window = BasisWindow.centered(0, 20)
        state = QuantumState.delta(window)
        profile = time_averaged_profile([state, state, state])
        expected = np.zeros(window.size)
        expected[window.offset(0)] = 1.0
        assert np.array_equal(profile, expected)

    def test_single_snapshot_is_its_occupations(self):
        window = BasisWindow.centered(0, 20)
        rng = np.random.default_rng(0)
        amps = rng.normal(size=window.size) + 1j * rng.normal(size=window.size)
        amps /= np.linalg.norm(amps)
        state = QuantumState(window, amps)
        assert np.array_equal(time_averaged_profile([state]), occupations(state))

    def test_accepts_generators(self):
        window = BasisWindow.centered(0, 20)
        profile = time_averaged_profile(QuantumState.delta(window) for _ in range(4))
        assert profile[window.offset(0)] == 1.0

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            time_averaged_profile([])

    def test_mismatched_windows_rejected(self):
        a = QuantumState.delta(BasisWindow.centered(0, 20))
        b = QuantumState.delta(BasisWindow.centered(1, 20))
        with pytest.raises(ValueError):
            time_averaged_profile([a, b])

    def test_long_run_tails_decay_on_average(self, curve_a):
        # binned log-profile decreases away from the initial state
        profile = curve_a["profile"]
        window = curve_a["window"]
        offsets = np.abs(window.indices() - window.m0)
        usable = profile > 1e-12
        bins = [(10, 60), (60, 110), (110, 160), (160, 210)]
        means = [
            np.log(profile[usable & (offsets >= lo) & (offsets < hi)]).mean()
            for lo, hi in bins
        ]
        assert all(b < a for a, b in zip(means, means[1:]))


class TestLocalizationFit:
    def test_exact_synthetic_profile(self):
        m = np.arange(-300, 301)
        profile = 0.02 * np.exp(-2.0 * np.abs(m) / 50.0)
        fit = fit_localization_length(profile, m0=0)
        assert fit.length == pytest.approx(50.0, rel=0.01)
        assert fit.residual < 1e-10

    def test_flat_profile_raises(self):
        profile = np.full(201, 0.3)
        with pytest.raises(NoLocalizationError):
            fit_localization_length(profile, m0=0)

    def test_too_few_usable_bins_rejected(self):
        m = np.arange(-15, 16)
        profile = np.exp(-2.0 * np.abs(m) / 5.0)
        with pytest.raises(ValueError):
            fit_localization_length(profile, m0=0)

    def test_subfloor_bins_are_ignored(self):
        m = np.arange(-200, 201)
        profile = np.exp(-2.0 * np.abs(m) / 30.0)
        profile[np.abs(m) > 150] = 1e-15  # numerical noise floor
        fit = fit_localization_length(profile, m0=0)
        assert fit.length == pytest.approx(30.0, rel=0.01)
        assert fit.window == (-150, 150)

    def test_unmeasured_run_localizes_near_expected_scale(self, curve_a):
        fit = fit_localization_length(curve_a["profile"], m0=500)
        assert 25.0 < fit.length < 100.0


class TestDiffusionSlope:
    def _line_series(self, slope):
        j = np.arange(101)
        return DispersionSeries(j, slope * j, np.ones(101), np.ones(101))

    def test_exact_line(self):
        assert diffusion_slope(self._line_series(50.0), 0, 100) == pytest.approx(
            50.0, abs=1e-10
        )

    def test_constant_series(self):
        j = np.arange(101)
        series = DispersionSeries(j, np.full(101, 7.0), np.ones(101), np.ones(101))
        assert diffusion_slope(series, 0, 100) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            diffusion_slope(self._line_series(1.0), 50, 50)

    def test_range_outside_series_rejected(self):
        with pytest.raises(ValueError):
            diffusion_slope(self._line_series(1.0), 200, 300)

    def test_stacked_rows_give_one_slope_each(self):
        j = np.arange(101)
        rows = np.array([50.0 * j, 20.0 * j + 3.0])
        rows[:, 60:] = 0.0  # outside the fitted window
        series = DispersionSeries(j, rows, np.ones((2, 101)), np.ones((2, 101)))
        slopes = diffusion_slope(series, 0, 50)
        assert slopes.shape == (2,)
        np.testing.assert_allclose(slopes, [50.0, 20.0], atol=1e-10)


class TestBreakTime:
    def test_pure_line_is_delocalized(self):
        j = np.arange(301)
        series = DispersionSeries(j, 50.0 * j, np.ones(301), np.ones(301))
        estimate = detect_break_time(series, window=25)
        assert estimate.delocalized
        assert estimate.j == 300

    def test_knee_is_detected_near_the_crossover(self):
        j = np.arange(301)
        values = np.where(j <= 50, 50.0 * j, 2500.0)
        series = DispersionSeries(j, values, np.ones(301), np.ones(301))
        estimate = detect_break_time(series, window=25)
        assert not estimate.delocalized
        assert 50 <= estimate.j <= 75

    def test_short_series_rejected(self):
        j = np.arange(100)
        series = DispersionSeries(j, 1.0 * j, np.ones(100), np.ones(100))
        with pytest.raises(ValueError):
            detect_break_time(series, window=25)

    def test_unmeasured_run_breaks_near_expected_time(self, curve_a):
        estimate = detect_break_time(curve_a["series"], window=25)
        assert not estimate.delocalized
        assert 25 <= estimate.j <= 100


class TestSeriesValidation:
    def test_column_round_trip(self):
        series = DispersionSeries(
            [0, 1, 2], [0.0, 50.0, 90.0], [1.0, 1.0, 1.0], [1.0, 0.1, 0.05]
        )
        assert len(series) == 3
        assert series.dispersion[1] == 50.0

    def test_indices_must_increase(self):
        with pytest.raises(ValueError):
            DispersionSeries(np.array([0, 0]), np.zeros(2), np.ones(2), np.ones(2))

    def test_dispersion_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            DispersionSeries(np.array([0, 1]), np.array([0.0, -1.0]), np.ones(2), np.ones(2))

    def test_norm_drift_rejected(self):
        with pytest.raises(ValueError):
            DispersionSeries(
                np.array([0, 1]), np.zeros(2), np.array([1.0, 1.1]), np.ones(2)
            )

    @pytest.mark.parametrize(
        "norm", [1.0 + 2e-6, np.nan, 1.0 - 2e-6], ids=["beyond_slack", "nan", "below_slack"]
    )
    def test_norm_drift_is_a_numerical_failure(self, norm):
        with pytest.raises(NormDriftError) as excinfo:
            DispersionSeries(
                np.array([0, 1]), np.zeros(2), np.array([1.0, norm]), np.ones(2)
            )
        assert isinstance(excinfo.value, ValueError)

    @pytest.mark.parametrize("column", ["dispersion", "p_m0"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_column_is_a_numerical_failure(self, column, value):
        columns = {"dispersion": np.zeros(3), "p_m0": np.ones(3)}
        columns[column][2] = value
        with pytest.raises(NonFiniteError) as excinfo:
            DispersionSeries(np.arange(3), columns["dispersion"], np.ones(3), columns["p_m0"])
        assert str(excinfo.value) == f"{column} is {value} at kick j = 2"
        assert isinstance(excinfo.value, ValueError)

    def test_rows_share_the_kick_axis(self):
        rows = DispersionSeries([0, 1, 2], [[0.0, 1.0, 2.0], [0.0, 2.0, 4.0]],
                                np.ones((2, 3)), np.ones((2, 3)))
        assert len(rows) == 3
        assert rows.dispersion.shape == (2, 3)
        with pytest.raises(ValueError, match="mismatched lengths"):
            DispersionSeries([0, 1, 2], np.zeros((3, 2)), np.ones((3, 2)), np.ones((3, 2)))

    def test_non_finite_row_value_names_its_kick(self):
        dispersion = np.zeros((2, 3))
        dispersion[1, 2] = np.nan
        with pytest.raises(NonFiniteError, match=r"^dispersion is nan at kick j = 2$"):
            DispersionSeries(np.arange(3), dispersion, np.ones((2, 3)), np.ones((2, 3)))

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            DispersionSeries([], [], [], [])

    def test_series_compare_and_hash_by_identity(self):
        a = DispersionSeries([0, 1], [0.0, 2.0], [1.0, 1.0], [1.0, 0.5])
        b = DispersionSeries([0, 1], [0.0, 2.0], [1.0, 1.0], [1.0, 0.5])
        assert a == a
        assert a != b
        assert len({a, b, a}) == 2
