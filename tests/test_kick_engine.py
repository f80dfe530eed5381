"""Kick kernel construction and the banded unitary map."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenomap import (
    BasisWindow,
    QuantumState,
    SpectrumModel,
    TruncationOverflowError,
    build_kernel,
    dispersion,
    step,
)
from zenomap.kick_engine import (
    _KERNEL_EPS,
    _SLICE_EPS,
    KickKernel,
    adjoint_step,
    apply_free,
    apply_kick,
)
from zenomap.measurement import MeasurementSchedule, PhaseRandomizer, apply_measurement
from zenomap.runner import ExperimentConfig, run_experiment


class TestBuildKernel:
    def test_zero_strength_is_identity_kernel(self):
        kernel = build_kernel(0.0)
        assert kernel.d_max == 0
        assert np.array_equal(kernel.coefficients, [1.0])

    @pytest.mark.parametrize("k", [1.0, 5.0, 10.0])
    def test_completeness_identity(self, k):
        kernel = build_kernel(k)
        assert abs(float(kernel.coefficients @ kernel.coefficients) - 1.0) < 1e-12

    @pytest.mark.parametrize("k", [1.0, 5.0, 10.0])
    def test_second_moment_identity(self, k):
        kernel = build_kernel(k)
        d = kernel.offsets().astype(float)
        assert abs(float(d**2 @ kernel.coefficients**2) - k * k / 2) < 1e-10

    @pytest.mark.parametrize("k", [1.0, 5.0, 10.0])
    def test_first_moment_vanishes(self, k):
        kernel = build_kernel(k)
        d = kernel.offsets().astype(float)
        assert abs(float(d @ kernel.coefficients**2)) < 1e-12

    def test_coefficients_match_high_precision_series(self):
        # independent oracle: 50-digit Bessel values
        mpmath.mp.dps = 50
        kernel = build_kernel(10.0)
        for d in (0, 1, 5, 17, kernel.d_max):
            reference = float(mpmath.besselj(d, 10.0))
            value = kernel.coefficients[d + kernel.d_max]
            assert value == pytest.approx(reference, rel=1e-10, abs=1e-15)
            mirrored = kernel.coefficients[-d + kernel.d_max]
            assert mirrored == pytest.approx((-1.0) ** d * reference, rel=1e-10, abs=1e-15)

    def test_bandwidth_is_minimal(self):
        mpmath.mp.dps = 50
        kernel = build_kernel(10.0)
        eps = _KERNEL_EPS
        assert abs(float(mpmath.besselj(kernel.d_max, 10.0))) >= eps
        assert abs(float(mpmath.besselj(kernel.d_max + 1, 10.0))) < eps

    @pytest.mark.parametrize("k", np.geomspace(1e-3, 1e4, 29))
    def test_bandwidth_reaches_k(self, k):
        # ExperimentConfig refuses k > window_halfwidth without building the
        # kernel; that is sound only because d_max >= k.
        assert build_kernel(k).d_max >= k

    def test_rejects_negative_strength(self):
        with pytest.raises(ValueError):
            build_kernel(-1.0)

    def test_one_shared_read_only_kernel_per_strength(self):
        kernel = build_kernel(10.0)
        assert build_kernel(10.0) is kernel
        with pytest.raises(ValueError):
            kernel.coefficients[0] = 0.0


class TestApplyKick:
    def test_zero_strength_leaves_state_unchanged(self):
        window = BasisWindow.centered(0, 20)
        state = QuantumState.delta(window)
        out = apply_kick(state, build_kernel(0.0))
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_delta_state_spreads_with_squared_coefficients(self, kernel10):
        window = BasisWindow.centered(500, 200)
        state = QuantumState.delta(window)
        out = apply_kick(state, kernel10)
        center = window.offset(500)
        band = out.occupations()[center - kernel10.d_max : center + kernel10.d_max + 1]
        assert np.array_equal(band, kernel10.coefficients**2)
        outside = np.concatenate(
            [out.occupations()[: center - kernel10.d_max],
             out.occupations()[center + kernel10.d_max + 1 :]]
        )
        assert np.all(outside == 0.0)

    def test_single_kick_dispersion_increment(self, kernel10):
        window = BasisWindow.centered(500, 200)
        out = apply_kick(QuantumState.delta(window), kernel10)
        assert dispersion(out) == pytest.approx(50.0, abs=1e-10)

    def test_norm_preserved_up_to_truncation(self, kernel10):
        window = BasisWindow.centered(0, 300)
        rng = np.random.default_rng(1)
        amps = rng.normal(size=601) + 1j * rng.normal(size=601)
        amps[:150] = 0.0  # keep clear of the edges
        amps[-150:] = 0.0
        amps /= np.linalg.norm(amps)
        state = QuantumState(window, amps)
        out = apply_kick(state, kernel10)
        assert abs(out.norm_sq() - 1.0) < 10 * _KERNEL_EPS + 1e-13

    def test_boundary_breach_raises_and_names_edge(self):
        kernel = build_kernel(5.0)
        window = BasisWindow(0, 60, 30)
        amps = np.zeros(61, complex)
        amps[window.offset(58)] = 1.0
        state = QuantumState(window, amps)
        with pytest.raises(TruncationOverflowError) as excinfo:
            apply_kick(state, kernel)
        assert excinfo.value.edge == "upper"
        assert "upper" in str(excinfo.value)

    def test_edge_mass_raises_before_a_kick_that_would_lose_norm(self):
        # At the first zero of J_0 the edge bin empties after the kick, while
        # half of the norm would leave the window.
        window = BasisWindow(0, 99, m0=99)
        kernel = build_kernel(2.404825557695773)
        with pytest.raises(TruncationOverflowError) as excinfo:
            apply_kick(QuantumState.delta(window), kernel)
        assert excinfo.value.edge == "upper"
        assert excinfo.value.occupation == pytest.approx(1.0)

    def test_adjoint_step_checks_the_edges_too(self, kernel10):
        window = BasisWindow(0, 199, m0=0)
        spectrum = SpectrumModel.rotator(window, tau=1.0)
        with pytest.raises(TruncationOverflowError) as excinfo:
            adjoint_step(QuantumState.delta(window), kernel10, spectrum)
        assert excinfo.value.edge == "lower"

    def test_boundary_occupation_sums_the_edge_bands(self):
        window = BasisWindow.centered(0, 10)
        amps = np.zeros(window.size, complex)
        amps[[0, 2, 3, -3, -1]] = [0.1, 0.2j, 0.3, 0.4 - 0.4j, 0.5]
        lo, hi = QuantumState(window, amps).boundary_occupation(3)
        assert lo == pytest.approx(0.01 + 0.04 + 0.0, abs=1e-15)
        assert hi == pytest.approx(0.32 + 0.25, abs=1e-15)
        assert QuantumState(window, amps).boundary_occupation(0) == (0.0, 0.0)

    def test_kernel_wider_than_window_rejected(self, kernel10):
        window = BasisWindow.centered(0, 8)  # 17 states < 65-wide kernel
        with pytest.raises(ValueError):
            apply_kick(QuantumState.delta(window), kernel10)

    def test_translation_covariance(self, kernel10):
        out_a = apply_kick(QuantumState.delta(BasisWindow.centered(500, 120)), kernel10)
        out_b = apply_kick(QuantumState.delta(BasisWindow.centered(-137, 120)), kernel10)
        assert np.array_equal(out_a.amplitudes, out_b.amplitudes)


class TestApplyFree:
    def test_zero_frequency_linear_spectrum_is_identity(self):
        window = BasisWindow.centered(0, 20)
        spectrum = SpectrumModel.linear(window, tau=1.0, omega=0.0)
        rng = np.random.default_rng(3)
        amps = rng.normal(size=41) + 1j * rng.normal(size=41)
        amps /= np.linalg.norm(amps)
        state = QuantumState(window, amps)
        out = apply_free(state, spectrum)
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_occupations_unchanged_for_any_spectrum(self):
        window = BasisWindow.centered(0, 20)
        spectrum = SpectrumModel.random_levels(window, seed=8)
        rng = np.random.default_rng(4)
        amps = rng.normal(size=41) + 1j * rng.normal(size=41)
        amps /= np.linalg.norm(amps)
        state = QuantumState(window, amps)
        out = apply_free(state, spectrum)
        assert np.allclose(out.occupations(), state.occupations(), rtol=1e-14, atol=0)

    def test_rotator_phase_at_m_two(self):
        window = BasisWindow.centered(0, 10)
        spectrum = SpectrumModel.rotator(window, tau=1.0)
        amps = np.zeros(21, complex)
        amps[window.offset(2)] = 1.0
        out = apply_free(QuantumState(window, amps), spectrum)
        assert out.amplitudes[window.offset(2)] == pytest.approx(np.exp(-2j), abs=1e-12)

    def test_window_mismatch_rejected(self):
        spectrum = SpectrumModel.rotator(BasisWindow.centered(0, 10), tau=1.0)
        state = QuantumState.delta(BasisWindow.centered(0, 12))
        with pytest.raises(ValueError):
            apply_free(state, spectrum)


class TestStep:
    def test_trivial_step_only_advances_time(self):
        window = BasisWindow.centered(0, 20)
        spectrum = SpectrumModel.linear(window, tau=1.0, omega=0.0)
        state = QuantumState.delta(window)
        out = step(state, build_kernel(0.0), spectrum)
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-15)
        assert out.time_index == 1
        assert state.time_index == 0

    def test_early_time_growth_is_diffusive_in_order_of_magnitude(self, kernel10):
        # The first kick adds exactly k^2/2. Later kicks are correlated and
        # at this kick strength run measurably below the uncorrelated rate,
        # so only order-of-magnitude agreement with 20 * k^2/2 holds.
        window = BasisWindow.centered(500, 2000)
        spectrum = SpectrumModel.rotator(window, tau=1.0)
        state = QuantumState.delta(window)
        state = step(state, kernel10, spectrum)
        assert dispersion(state) == pytest.approx(50.0, abs=1e-9)
        for _ in range(19):
            state = step(state, kernel10, spectrum)
        value = dispersion(state)
        assert 1000 / 3 < value < 3 * 1000

    def test_long_run_norm_drift_is_tiny(self, curve_a):
        drift = np.max(np.abs(curve_a["series"].norm - 1.0))
        assert drift < 1e-8

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_step_is_linear(self, seed):
        window = BasisWindow.centered(0, 40)
        kernel = build_kernel(1.0)
        spectrum = SpectrumModel.rotator(window, tau=1.0)
        rng = np.random.default_rng(seed)
        u = rng.normal(size=81) + 1j * rng.normal(size=81)
        v = rng.normal(size=81) + 1j * rng.normal(size=81)
        u[:25] = u[-25:] = 0.0
        v[:25] = v[-25:] = 0.0
        alpha, beta = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        combined = step(QuantumState(window, alpha * u + beta * v), kernel, spectrum)
        parts = (
            alpha * step(QuantumState(window, u), kernel, spectrum).amplitudes
            + beta * step(QuantumState(window, v), kernel, spectrum).amplitudes
        )
        assert np.allclose(combined.amplitudes, parts, atol=1e-12)

    def test_random_level_spectrum_still_localizes(self, random_curves):
        # fixed-in-time random phases suppress the late-time growth
        series = random_curves["a"]
        late = (series.j >= 500)
        slope = float(np.polyfit(series.j[late], series.dispersion[late], 1)[0])
        assert abs(slope) < 0.1 * 50.0


class TestTimeReversal:
    def test_adjoint_recovers_initial_state(self, kernel10):
        window = BasisWindow.centered(500, 600)
        spectrum = SpectrumModel.rotator(window, tau=1.0)
        initial = QuantumState.delta(window)
        state = initial
        for _ in range(100):
            state = step(state, kernel10, spectrum)
        for _ in range(100):
            state = adjoint_step(state, kernel10, spectrum)
        fidelity = abs(np.vdot(initial.amplitudes, state.amplitudes)) ** 2
        assert fidelity > 1 - 1e-8
        assert state.time_index == 0

    def test_adjoint_inverts_single_step(self, kernel10):
        window = BasisWindow.centered(0, 300)
        spectrum = SpectrumModel.random_levels(window, seed=2)
        rng = np.random.default_rng(9)
        amps = rng.normal(size=601) + 1j * rng.normal(size=601)
        amps[:200] = amps[-200:] = 0.0
        amps /= np.linalg.norm(amps)
        state = QuantumState(window, amps)
        back = adjoint_step(step(state, kernel10, spectrum), kernel10, spectrum)
        assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-12)


class TestTypes:
    def test_window_orders_and_sizes(self):
        with pytest.raises(ValueError):
            BasisWindow(0, 30, 40)
        with pytest.raises(ValueError):
            BasisWindow(0, 10, 5)  # only 11 states
        window = BasisWindow.centered(500, 2000)
        assert window.size == 4001
        assert window.offset(500) == 2000

    def test_offset_outside_window(self):
        with pytest.raises(ValueError):
            BasisWindow.centered(0, 10).offset(11)

    def test_delta_state(self):
        state = QuantumState.delta(BasisWindow.centered(7, 10))
        assert state.norm_sq() == 1.0
        assert state.time_index == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_norm_sq_matches_sum_of_squared_parts(self, seed):
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=4001) + 1j * rng.normal(size=4001)
        amps *= rng.uniform(0.1, 10.0)
        state = QuantumState(BasisWindow.centered(500, 2000), amps)
        reference = math.fsum(amps.real**2) + math.fsum(amps.imag**2)
        assert abs(state.norm_sq() - reference) <= 1e-15 * reference

    def test_amplitude_length_checked(self):
        with pytest.raises(ValueError):
            QuantumState(BasisWindow.centered(0, 10), np.zeros(5, complex))

    def test_spectrum_reproducible_from_seed(self):
        window = BasisWindow.centered(0, 10)
        a = SpectrumModel.random_levels(window, seed=5)
        b = SpectrumModel.random_levels(window, seed=5)
        c = SpectrumModel.random_levels(window, seed=6)
        assert np.array_equal(a.phase_table, b.phase_table)
        assert not np.array_equal(a.phase_table, c.phase_table)

    def test_rotator_phase_table_reduced(self):
        window = BasisWindow.centered(500, 100)
        spectrum = SpectrumModel.rotator(window, tau=1.0)
        assert np.all(spectrum.phase_table >= 0.0)
        assert np.all(spectrum.phase_table < 2 * math.pi)

    def test_multiplier_is_read_only(self):
        spectrum = SpectrumModel.rotator(BasisWindow.centered(500, 100), tau=1.0)
        with pytest.raises(ValueError):
            spectrum.multiplier[0] = 1.0


def _reference_series(config: ExperimentConfig) -> np.ndarray:
    """Rows ``(dispersion, norm, p_m0)`` of realization 0 of ``config``,
    from plain full-window operations: no support, no phase table."""
    window = config.window()
    kernel = build_kernel(config.k)
    multiplier = config.spectrum_model(window).multiplier
    seq = np.random.SeedSequence(config.seed, spawn_key=(0, 0))
    draws = np.random.Generator(np.random.PCG64(seq))
    home = window.offset(config.m0)
    weights = (window.indices() - config.m0).astype(float) ** 2
    a = np.zeros(window.size, complex)
    a[home] = 1.0
    rows = []
    for j in range(config.n_kicks + 1):
        if j:
            a = np.convolve(a, kernel.coefficients, mode="same") * multiplier
            if config.measurement_mode != "none" and j % config.measurement_period == 0:
                if config.measurement_mode == "initial":
                    a[home] *= np.exp(1j * draws.uniform(0.0, 2.0 * np.pi, 1)[0])
                else:
                    a = a * np.exp(1j * draws.uniform(0.0, 2.0 * np.pi, window.size))
        p = np.abs(a) ** 2
        rows.append((weights @ p, p.sum(), p[home]))
    return np.array(rows)


def _outside(state: QuantumState) -> np.ndarray:
    lo, hi = state.support
    return np.concatenate([state.amplitudes[:lo], state.amplitudes[hi:]])


class TestSupport:
    @pytest.mark.parametrize("preset", "abcd")
    def test_presets_match_a_full_window_reference(self, preset):
        # All states read out every kick diffuse to the edge of this window
        # after about 150 kicks, so preset d runs 100.
        config = ExperimentConfig(
            "kicked", k=5.0, window_halfwidth=300, n_kicks=100 if preset == "d" else 200,
            seed=12,
        ).with_preset(preset)
        if preset == "c":
            config = dataclasses.replace(config, measurement_period=20)
        series = run_experiment(config).aggregate
        reference = _reference_series(config)
        assert np.allclose(series.dispersion, reference[:, 0], rtol=1e-13, atol=0)
        assert np.allclose(series.norm, reference[:, 1], rtol=1e-13, atol=0)
        assert np.max(np.abs(series.p_m0 - reference[:, 2])) <= 1e-15

    def test_every_operation_keeps_zeros_outside_the_support(self, kernel10):
        window = BasisWindow.centered(0, 400)
        spectrum = SpectrumModel.rotator(window, tau=1.0)
        state = QuantumState.delta(window)
        assert state.support == (400, 401)
        schedules = [
            MeasurementSchedule("none"),
            MeasurementSchedule("subset", 1, (0, 3)),
            MeasurementSchedule("all"),
        ]
        rng = PhaseRandomizer(5)
        for kick in range(30):
            kicked = apply_kick(state, kernel10)
            flown = apply_free(kicked, spectrum)
            for out in (kicked, flown):
                assert np.all(_outside(out) == 0.0)
            for schedule in schedules:
                read = apply_measurement(flown, schedule, rng)
                assert read.support == flown.support
                assert np.all(_outside(read) == 0.0)
            state = apply_measurement(flown, schedules[kick % 3], rng)
        lo, hi = state.support
        assert 0 < lo and hi < window.size  # the slice stayed narrower than the window

    @pytest.mark.parametrize("factor, kept", [(1.01, True), (0.99, False)])
    def test_end_band_trimmed_below_slice_eps(self, factor, kept):
        # This kernel moves every amplitude down one bin, so the lowest
        # amplitude lands in the new lower end band (d_max = 1) by itself.
        shift = KickKernel(np.array([1.0, 0.0, 0.0]))
        window = BasisWindow.centered(0, 20)
        amps = np.zeros(window.size, complex)
        amps[10] = math.sqrt(factor * _SLICE_EPS)
        amps[11:15] = 0.5
        out = apply_kick(QuantumState(window, amps, support=(10, 15)), shift)
        assert out.support == ((9 if kept else 10), 15)
        assert out.amplitudes[9] == (amps[10] if kept else 0.0)
        assert np.all(_outside(out) == 0.0)

    def test_support_at_the_window_edge_still_raises(self):
        kernel = build_kernel(5.0)
        window = BasisWindow.centered(0, 60)
        spectrum = SpectrumModel.rotator(window, tau=1.0)
        schedule, rng = MeasurementSchedule("all"), PhaseRandomizer(4)
        state = QuantumState.delta(window)
        with pytest.raises(TruncationOverflowError):
            for _ in range(1000):
                state = apply_measurement(step(state, kernel, spectrum), schedule, rng)
        lo, hi = state.support
        assert lo < kernel.d_max or hi > window.size - kernel.d_max

    def test_support_must_be_a_nonempty_range_in_the_window(self):
        window = BasisWindow.centered(0, 10)
        for support in [(3, 3), (-1, 4), (0, 22)]:
            with pytest.raises(ValueError):
                QuantumState(window, np.zeros(window.size, complex), support=support)
