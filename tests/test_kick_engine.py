"""Kick kernel construction and the banded unitary map."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zenomap.kick_engine as kick_engine
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
    _BLOCK,
    _KERNEL_EPS,
    _SLICE_EPS,
    KickKernel,
    _convolve,
    apply_free,
    apply_kick,
)
from zenomap.measurement import MeasurementSchedule, PhaseRandomizer, apply_measurement
from zenomap.runner import ExperimentConfig, run_experiment

from reference import adjoint_step, copied, occupations, offsets


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
        d = offsets(kernel).astype(float)
        assert abs(float(d**2 @ kernel.coefficients**2) - k * k / 2) < 1e-10

    @pytest.mark.parametrize("k", [1.0, 5.0, 10.0])
    def test_first_moment_vanishes(self, k):
        kernel = build_kernel(k)
        d = offsets(kernel).astype(float)
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

    @pytest.mark.parametrize("k", [0.5, 5.0, 10.0, 100.0, 1000.0])
    def test_coefficients_within_1e15_of_30_digit_values(self, k):
        kernel = build_kernel(k)
        d_max = kernel.d_max
        stride = 1 if k <= 10 else (4 if k <= 100 else 16)
        orders = sorted(set(range(0, d_max + 1, stride)) | {d_max})
        with mpmath.workdps(30):
            for d in orders:
                reference = mpmath.besselj(d, k)
                for order, sign in ((d, 1), (-d, (-1) ** d)):
                    value = mpmath.mpf(float(kernel.coefficients[order + d_max]))
                    assert abs(value - sign * reference) <= 1e-15, (k, order)

    @pytest.mark.parametrize("k", [0.5, 1.0, 5.0, 10.0, 20.0, 100.0, 1000.0])
    def test_squared_coefficients_sum_to_one(self, k):
        # the kernel's recurrence runs in np.longdouble; where that is only
        # float64 it keeps about one digit less (3.8e-15 measured at k = 1000)
        extended = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps
        coefficients = build_kernel(k).coefficients
        assert abs(math.fsum(coefficients * coefficients) - 1.0) <= (2.3e-16 if extended else 1e-14)

    def test_band_widens_until_the_tail_is_below_threshold(self, monkeypatch):
        # at 1e-60 the first band (62 orders at k = 10) is too short, so
        # build_kernel widens it by 16 orders once
        orders_asked = []
        bessel_orders = kick_engine._bessel_orders

        def spy(k, n):
            orders_asked.append(n)
            return bessel_orders(k, n)

        default = build_kernel(10.0)
        monkeypatch.setattr(kick_engine, "_KERNEL_EPS", 1e-60)
        monkeypatch.setattr(kick_engine, "_bessel_orders", spy)
        kernel = build_kernel.__wrapped__(10.0)
        assert orders_asked == [62, 78]
        assert kernel.d_max == 77
        c, d = kernel.coefficients, offsets(kernel).astype(float)
        assert abs(math.fsum(c * c) - 1.0) < 1e-12
        assert abs(float(d @ c**2)) < 1e-12
        assert abs(float(d**2 @ c**2) - 50.0) < 1e-10
        band = slice(kernel.d_max - default.d_max, kernel.d_max + default.d_max + 1)
        assert default.d_max == 32
        assert np.array_equal(c[band], default.coefficients)

    def test_bandwidth_is_minimal(self):
        mpmath.mp.dps = 50
        eps = _KERNEL_EPS
        for k in (1.0, 10.0, 37.3, 100.0):
            kernel = build_kernel(k)
            assert abs(float(mpmath.besselj(kernel.d_max, k))) >= eps, k
            assert abs(float(mpmath.besselj(kernel.d_max + 1, k))) < eps, k

    @pytest.mark.parametrize("k", np.geomspace(1e-3, 1e4, 29))
    def test_bandwidth_reaches_k(self, k):
        # ExperimentConfig refuses k > window_halfwidth without building the
        # kernel; that is sound only because d_max >= k.
        assert build_kernel(k).d_max >= k

    @pytest.mark.parametrize("k", [-1.0, float("nan"), float("inf")])
    def test_rejects_negative_strength(self, k):
        with pytest.raises(ValueError, match=r"^kick strength must be finite and >= 0, got "):
            build_kernel(k)

    def test_runtime_imports_no_scipy(self):
        code = (
            "import sys, zenomap, zenomap.cli, zenomap.runner; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.stdout.strip() == "[]"

    def test_one_shared_read_only_kernel_per_strength(self):
        kernel = build_kernel(10.0)
        assert build_kernel(10.0) is kernel
        with pytest.raises(ValueError):
            kernel.coefficients[0] = 0.0


class TestApplyKick:
    def test_zero_strength_leaves_state_unchanged(self):
        window = BasisWindow.centered(0, 20)
        state = QuantumState.delta(window)
        before = copied(state)
        apply_kick(state, build_kernel(0.0))
        assert np.array_equal(state.amplitudes, before.amplitudes)

    def test_delta_state_spreads_with_squared_coefficients(self, kernel10):
        window = BasisWindow.centered(500, 200)
        out = QuantumState.delta(window)
        apply_kick(out, kernel10)
        center = window.offset(500)
        band = occupations(out)[center - kernel10.d_max : center + kernel10.d_max + 1]
        assert np.array_equal(band, kernel10.coefficients**2)
        outside = np.concatenate(
            [occupations(out)[: center - kernel10.d_max],
             occupations(out)[center + kernel10.d_max + 1 :]]
        )
        assert np.all(outside == 0.0)

    def test_single_kick_dispersion_increment(self, kernel10):
        window = BasisWindow.centered(500, 200)
        out = QuantumState.delta(window)
        apply_kick(out, kernel10)
        assert dispersion(out) == pytest.approx(50.0, abs=1e-10)

    def test_norm_preserved_up_to_truncation(self, kernel10):
        window = BasisWindow.centered(0, 300)
        rng = np.random.default_rng(1)
        amps = rng.normal(size=601) + 1j * rng.normal(size=601)
        amps[:150] = 0.0  # keep clear of the edges
        amps[-150:] = 0.0
        amps /= np.linalg.norm(amps)
        state = QuantumState(window, amps)
        apply_kick(state, kernel10)
        assert abs(state.norm_sq() - 1.0) < 10 * _KERNEL_EPS + 1e-13

    def test_boundary_breach_raises_and_names_edge(self):
        kernel = build_kernel(5.0)
        window = BasisWindow(0, 60, 30)
        amps = np.zeros(61, complex)
        amps[window.offset(58)] = 1.0
        state = QuantumState(window, amps, time_index=7)
        with pytest.raises(TruncationOverflowError) as excinfo:
            apply_kick(state, kernel)
        assert excinfo.value.edge == "upper"
        assert str(excinfo.value) == (
            "run aborted after kick 7: probability 1.000e+00 within 23 states of the "
            "upper window edge (m_min=0, m_max=60) exceeds 1e-10; rerun with a "
            "window_halfwidth larger than 30"
        )

    def test_edge_mass_raises_before_a_kick_that_would_lose_norm(self):
        # At the first zero of J_0 the edge bin empties after the kick, while
        # half of the norm would leave the window.
        window = BasisWindow(0, 99, m0=99)
        kernel = build_kernel(2.404825557695773)
        with pytest.raises(TruncationOverflowError) as excinfo:
            apply_kick(QuantumState.delta(window), kernel)
        assert excinfo.value.edge == "upper"
        assert excinfo.value.occupation == pytest.approx(1.0)
        # m0 sits on the upper edge: a rerun needs more than its 99 states below
        assert str(excinfo.value).endswith("larger than 99")

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
        out_a = QuantumState.delta(BasisWindow.centered(500, 120))
        out_b = QuantumState.delta(BasisWindow.centered(-137, 120))
        apply_kick(out_a, kernel10)
        apply_kick(out_b, kernel10)
        assert np.array_equal(out_a.amplitudes, out_b.amplitudes)


# Kick strengths and the slabs of _BLOCK rows that the bins before a block
# take in the blocked kick: ceil(2 d_max / _BLOCK).
_SLABS = {0.0: 0, 0.5: 1, 3.0: 1, 10.0: 1, 20.0: 2, 37.3: 3, 100.0: 5}


class TestBlockedKick:
    @pytest.mark.parametrize("k", _SLABS)
    def test_agrees_with_np_convolve(self, k):
        kernel = build_kernel(k)
        d_max, size = kernel.d_max, 1201
        assert -(-2 * d_max // _BLOCK) == _SLABS[k]
        rng = np.random.default_rng(int(10 * k))
        # one state for every kick, so each reuses the buffers of the last
        state = QuantumState(BasisWindow.centered(size // 2, size // 2), np.zeros(size, complex))
        for width in [1, 2, 63, 64, 65, 100, 319, 320, 513, 1024, size]:
            for lo in sorted({0, (size - width) // 2, size - width}):
                hi = lo + width
                amps = np.zeros(size, complex)
                amps[lo:hi] = rng.normal(size=width) + 1j * rng.normal(size=width)
                amps /= np.linalg.norm(amps)
                state.amplitudes[:] = amps
                state.support = (lo, hi)
                support = _convolve(state, kernel)
                out = state.amplitudes
                start, stop = max(lo - d_max, 0), min(hi + d_max, size)
                expected = np.zeros(size, complex)
                shift = lo - d_max
                expected[start:stop] = np.convolve(amps[lo:hi], kernel.coefficients)[
                    start - shift:stop - shift
                ]
                assert support == (start, stop)
                assert np.max(np.abs(out - expected)) <= 1e-15

    def test_blocks_are_built_at_first_use_and_read_only(self):
        kernel = build_kernel(7.25)
        assert "_blocks" not in vars(kernel)  # building the kernel does not build them
        blocks = kernel._blocks
        assert kernel._blocks is blocks
        own, slabs = blocks
        views = [own] + [matrix for _, _, matrix in slabs]
        for matrix in views:
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0
        # every block is a view of one banded matrix of 2 d_max + _BLOCK rows
        base = own.base
        span, q = 2 * kernel.d_max, own.shape[1]
        assert base.shape == (span + q, q)
        assert not base.flags.writeable
        assert all(matrix.base is base for matrix in views)
        assert np.array_equal(own, base[span:])
        # the first bin of a block spreads over the block as the kernel does
        assert np.array_equal(own[0, :span + 1], kernel.coefficients)
        assert np.all(own[0, span + 1:] == 0.0)
        # every kernel has blocks of _BLOCK columns, so wide kernels stay small
        for k in _SLABS:
            kernel = build_kernel(k)
            own, slabs = kernel._blocks
            assert own.base.shape == (2 * kernel.d_max + _BLOCK, _BLOCK)
            assert own.shape == (_BLOCK, _BLOCK)
            assert len(slabs) == _SLABS[k]
            for matrix in [own] + [matrix for _, _, matrix in slabs]:
                assert not matrix.flags.writeable
        assert build_kernel(1000.0)._blocks[0].base.nbytes <= 1.2e6

    def test_wide_translation_covariance(self, kernel10):
        # A state of 301 nonzero bins, kicked at two places of a wide support.
        rng = np.random.default_rng(4)
        block = rng.normal(size=301) + 1j * rng.normal(size=301)
        outs = []
        window = BasisWindow.centered(600, 600)
        for lo in (200, 437):
            amps = np.zeros(1201, complex)
            amps[lo:lo + 301] = block
            support = _convolve(QuantumState(window, amps, 0, (lo - 50, lo + 351)), kernel10)
            outs.append(amps[support[0]:support[1]])
        assert np.array_equal(outs[0], outs[1])


def _kick_like_a_fresh_copy(state: QuantumState, kernel: KickKernel) -> None:
    """Kick ``state``, whose buffers a kick before may have used, and a
    copy of it, which builds its own; both give the same bits and support."""
    fresh = copied(state)
    apply_kick(state, kernel)
    apply_kick(fresh, kernel)
    assert state.support == fresh.support
    assert np.array_equal(state.amplitudes.view(np.int64), fresh.amplitudes.view(np.int64))


class TestKickBuffers:
    def test_kick_after_the_support_shrinks(self, kernel10):
        # the wide kick fills every row of the buffers; the narrow one must
        # zero its padding again
        window = BasisWindow.centered(0, 600)
        rng = np.random.default_rng(30)
        amps = np.zeros(window.size, complex)
        amps[200:1000] = rng.normal(size=800) + 1j * rng.normal(size=800)
        state = QuantumState(window, amps / np.linalg.norm(amps), 0, (200, 1000))
        _kick_like_a_fresh_copy(state, kernel10)
        buffers = state._kick_buffers
        state.amplitudes[:] = 0.0
        state.amplitudes[590:603] = rng.normal(size=13) + 1j * rng.normal(size=13)
        state.support = (590, 603)
        _kick_like_a_fresh_copy(state, kernel10)
        assert state._kick_buffers is buffers

    def test_kernel_switch_on_one_state(self):
        # k = 10, 50, 10: one slab, three, one. The support is the whole
        # window (faint at the edges), so the wider kernel needs more rows and
        # rebuilds the buffers, and the narrower one reuses them.
        kernels = [build_kernel(k) for k in (10.0, 50.0, 10.0)]
        assert [-(-2 * kernel.d_max // _BLOCK) for kernel in kernels] == [1, 3, 1]
        window = BasisWindow.centered(0, 300)
        rng = np.random.default_rng(31)
        amps = np.full(window.size, 1e-7, complex)
        amps[200:400] = rng.normal(size=200) + 1j * rng.normal(size=200)
        state = QuantumState(window, amps / np.linalg.norm(amps))
        built = []
        for kernel in kernels:
            _kick_like_a_fresh_copy(state, kernel)
            built.append(state._kick_buffers)
        assert built[1] is not built[0] and built[2] is built[1]

    def test_kick_at_the_window_edge(self, kernel10):
        # a support that starts at the lower edge, with too little
        # probability there for the kick to refuse it, after a kick
        # elsewhere has used the buffers
        window = BasisWindow.centered(0, 300)
        rng = np.random.default_rng(32)
        state = QuantumState.delta(window)
        _kick_like_a_fresh_copy(state, kernel10)
        amps = np.zeros(window.size, complex)
        amps[:kernel10.d_max] = 1e-7
        amps[kernel10.d_max:150] = rng.normal(size=150 - kernel10.d_max)
        state.amplitudes[:] = amps / np.linalg.norm(amps)
        state.support = (0, 150)
        _kick_like_a_fresh_copy(state, kernel10)
        assert state.support[0] == 0

    def test_steps_allocate_no_array_data(self):
        # once warm, a step allocates no array on the default 4001-state
        # window: no operand, product or slab of the kick, no temporary
        config = ExperimentConfig("kicked")
        window = config.window()
        kernel, spectrum = build_kernel(config.k), config.spectrum_model(window)
        assert window.size == 4001
        state = QuantumState.delta(window)
        for _ in range(300):
            step(state, kernel, spectrum)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(10):
                step(state, kernel, spectrum)
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 8 * 1024


class TestApplyFree:
    def test_zero_frequency_linear_spectrum_is_identity(self):
        window = BasisWindow.centered(0, 20)
        spectrum = SpectrumModel.linear(window, tau=1.0, omega=0.0)
        rng = np.random.default_rng(3)
        amps = rng.normal(size=41) + 1j * rng.normal(size=41)
        amps /= np.linalg.norm(amps)
        state = QuantumState(window, amps)
        out = copied(state)
        apply_free(out, spectrum)
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_occupations_unchanged_for_any_spectrum(self):
        window = BasisWindow.centered(0, 20)
        spectrum = SpectrumModel.random_levels(window, seed=8)
        rng = np.random.default_rng(4)
        amps = rng.normal(size=41) + 1j * rng.normal(size=41)
        amps /= np.linalg.norm(amps)
        state = QuantumState(window, amps)
        out = copied(state)
        apply_free(out, spectrum)
        assert np.allclose(occupations(out), occupations(state), rtol=1e-14, atol=0)

    def test_rotator_phase_at_m_two(self):
        window = BasisWindow.centered(0, 10)
        spectrum = SpectrumModel.rotator(window, tau=1.0)
        amps = np.zeros(21, complex)
        amps[window.offset(2)] = 1.0
        out = QuantumState(window, amps)
        apply_free(out, spectrum)
        assert out.amplitudes[window.offset(2)] == pytest.approx(np.exp(-2j), abs=1e-12)

    def test_window_mismatch_rejected(self):
        spectrum = SpectrumModel.rotator(BasisWindow.centered(0, 10), tau=1.0)
        state = QuantumState.delta(BasisWindow.centered(0, 12))
        with pytest.raises(ValueError):
            apply_free(state, spectrum)

    @pytest.mark.parametrize("size", [20, 22])
    def test_phase_table_of_another_size_rejected(self, size):
        with pytest.raises(ValueError, match=r"^phase table does not cover the window$"):
            SpectrumModel(np.zeros(size), BasisWindow.centered(0, 10))


class TestLinearLadder:
    # With H0(m) = omega * m the flight shifts the angle by alpha = omega * tau,
    # so the kicks commute and j of them act as one kick of strength
    # k * |sin(j alpha / 2) / sin(alpha / 2)|: the unmeasured dispersion is
    # (k^2 / 2) sin^2(j alpha / 2) / sin^2(alpha / 2). Where |sin(alpha / 2)|
    # is below _RESONANT it is the j^2 limit (k j)^2 / 2, which differs from
    # the closed form by at most (n sin(alpha / 2))^2 / 3 relative over n kicks.
    # The closed form's own rounding grows like 1e-16 / |sin(alpha / 2)|, so
    # near-resonant cases stay at |sin(alpha / 2)| >= 5e-4. _BOUND (relative
    # to the curve's peak) lies above the largest error of runs this test does
    # not make: 6.4e-12 at k = 2, alpha = 2 pi - 1e-4, 40 kicks, and at most
    # 8.1e-13 at k, alpha, kicks = (0.5, 0.3, 300), (5, 2, 300), (2, 3, 500),
    # (6, 0.9, 200), (4, 2 pi - 1e-2, 100), (1, 2 pi + 1e-3, 80),
    # (2.5, 4 pi - 2e-3, 60), (1, 4 pi, 80) and (3, 1e-3, 60).
    _RESONANT = 1e-12
    _BOUND = 1e-11

    @pytest.mark.parametrize("k, alpha, n, halfwidth", [
        (3.0, 0.481, 400, 150),
        (1.5, 1.0, 500, 120),
        (3.0, 2 * math.pi - 1e-3, 60, 400),
        (2.0, 2 * math.pi, 60, 300),  # sin(alpha / 2) rounds to 1.2e-16
    ], ids=["off-resonance", "alpha-1", "near-resonance", "resonance"])
    def test_unmeasured_dispersion_follows_the_closed_form(self, k, alpha, n, halfwidth):
        config = ExperimentConfig(
            "kicked", spectrum="linear", k=k, tau=1.0, omega=alpha, n_kicks=n,
            window_halfwidth=halfwidth,
        )
        d = run_experiment(config).aggregate.dispersion
        j = np.arange(n + 1)
        half = math.sin(alpha / 2)
        if abs(half) < self._RESONANT:
            expected = (k * j) ** 2 / 2
        else:
            expected = (k * k / 2) * np.sin(j * alpha / 2) ** 2 / half**2
        peak = expected.max()
        assert np.max(np.abs(d - expected)) <= self._BOUND * peak

    # Read out every kick, the linear ladder's dispersion grows by k^2 / 2 a
    # kick on average, j k^2 / 2 after j kicks. The unmeasured curve equals it
    # where j = sin^2(j alpha / 2) / sin^2(alpha / 2): readout lowers the
    # dispersion before that kick (Zeno) and raises it after (anti-Zeno). Off
    # resonance (alpha = 0.481) the crossing falls between kicks 9 and 10;
    # past kick 1 / sin^2(alpha / 2) ~ 17.6 the read-out curve stays above
    # the unmeasured one's ceiling of 79.4. Near resonance (alpha = 2 pi -
    # 1e-3) the crossing lies near kick 2 pi / 1e-3, far beyond 60 kicks. The
    # asserted kicks stay well away from the crossings: over seeds 0-3 and 7,
    # the 20-realization mean was at most 0.6 of the unmeasured curve at
    # kicks 2-5 (and at kicks 2-60 near resonance), and at least 1.6 times it
    # from kick 30 on.
    @pytest.mark.parametrize("alpha, halfwidth, lower, higher", [
        (0.481, 150, range(2, 6), range(30, 61)),
        (2 * math.pi - 1e-3, 400, range(2, 61), range(0)),
    ], ids=["off-resonance", "near-resonance"])
    def test_readout_lowers_the_dispersion_before_the_crossing_and_raises_it_after(
        self, alpha, halfwidth, lower, higher,
    ):
        config = ExperimentConfig(
            "kicked", spectrum="linear", k=3.0, tau=1.0, omega=alpha, n_kicks=60,
            window_halfwidth=halfwidth, seed=3,
        )
        unmeasured = run_experiment(config).aggregate.dispersion
        measured = run_experiment(dataclasses.replace(
            config, measurement_mode="all", realizations=20,
        )).aggregate.dispersion
        assert np.all(measured[lower] < unmeasured[lower])
        assert np.all(measured[higher] > unmeasured[higher])


class TestStep:
    def test_trivial_step_only_advances_time(self):
        window = BasisWindow.centered(0, 20)
        spectrum = SpectrumModel.linear(window, tau=1.0, omega=0.0)
        state = QuantumState.delta(window)
        before = copied(state)
        step(state, build_kernel(0.0), spectrum)
        assert np.allclose(state.amplitudes, before.amplitudes, atol=1e-15)
        assert state.time_index == 1
        assert state.support == before.support

    @pytest.mark.parametrize("call, refusal", [
        ("step", "other window"), ("step", "window edge"), ("apply_kick", "window edge"),
    ])
    def test_window_mismatch_rejected_and_input_untouched(self, kernel10, call, refusal):
        # both refusals come before the kick writes: the state keeps its
        # bits, its support and its kick count
        window = BasisWindow.centered(0, 40)
        rng = np.random.default_rng(6)
        amps = np.zeros(window.size, complex)
        # a support the kick accepts (d_max = 32 bins clear of both edges),
        # or one reaching into the upper edge band
        lo, hi = (32, 49) if refusal == "other window" else (40, 60)
        amps[lo:hi] = rng.normal(size=hi - lo) + 1j * rng.normal(size=hi - lo)
        amps /= np.linalg.norm(amps)
        state = QuantumState(window, amps, time_index=7, support=(lo, hi))
        if refusal == "other window":
            spectrum = SpectrumModel.rotator(BasisWindow.centered(0, 38), tau=1.0)
            error, match = ValueError, "does not cover"
        else:
            spectrum = SpectrumModel.rotator(window, tau=1.0)
            error, match = TruncationOverflowError, "after kick 7"
        before = state.amplitudes.tobytes()
        with pytest.raises(error, match=match):
            if call == "step":
                step(state, kernel10, spectrum)
            else:
                apply_kick(state, kernel10)
        assert state.amplitudes.tobytes() == before
        assert state.support == (lo, hi) and state.time_index == 7

    def test_early_time_growth_is_diffusive_in_order_of_magnitude(self, kernel10):
        # The first kick adds exactly k^2/2. Later kicks are correlated and
        # at this kick strength run measurably below the uncorrelated rate,
        # so only order-of-magnitude agreement with 20 * k^2/2 holds.
        window = BasisWindow.centered(500, 2000)
        spectrum = SpectrumModel.rotator(window, tau=1.0)
        state = QuantumState.delta(window)
        step(state, kernel10, spectrum)
        assert dispersion(state) == pytest.approx(50.0, abs=1e-9)
        for _ in range(19):
            step(state, kernel10, spectrum)
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
        combined = QuantumState(window, alpha * u + beta * v)
        first, second = QuantumState(window, u), QuantumState(window, v)
        for state in (combined, first, second):
            step(state, kernel, spectrum)
        parts = alpha * first.amplitudes + beta * second.amplitudes
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
        state = copied(initial)
        for _ in range(100):
            step(state, kernel10, spectrum)
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
        forward = copied(state)
        step(forward, kernel10, spectrum)
        back = adjoint_step(forward, kernel10, spectrum)
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

    @pytest.mark.parametrize("dtype, shared", [
        (np.complex128, True), (np.complex64, False), (np.float64, False),
    ])
    def test_flight_writes_into_a_complex128_array_it_was_built_from(self, dtype, shared):
        # QuantumState takes its amplitudes with np.asarray: a complex128
        # array is the state's own, any other is converted into a new one
        window = BasisWindow.centered(0, 10)
        amps = np.ones(window.size, dtype=dtype)
        state = QuantumState(window, amps)
        apply_free(state, SpectrumModel.rotator(window, tau=1.0))
        assert (state.amplitudes is amps) == shared
        assert np.all(amps == 1.0) != shared

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

    def test_states_compare_by_identity_and_windows_by_value(self):
        a = QuantumState.delta(BasisWindow.centered(7, 10))
        b = QuantumState.delta(BasisWindow.centered(7, 10))
        assert a == a
        assert a != b
        assert a.window == b.window
        assert len({a, b, a}) == 2

    def test_kernels_compare_and_hash_by_identity(self):
        assert build_kernel(1.0) != build_kernel(2.0)
        assert hash(build_kernel(1.0)) == hash(build_kernel(1.0))  # memoized
        assert KickKernel(np.ones(3)) != KickKernel(np.ones(3))

    def test_spectra_compare_by_identity(self):
        window = BasisWindow.centered(500, 100)
        a = SpectrumModel.rotator(window, tau=1.0)
        b = SpectrumModel.rotator(window, tau=1.0)
        assert a == a
        assert a != b
        assert len({a, b, a}) == 2


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
    @pytest.mark.parametrize(
        "preset, k, halfwidth, kicks, period_c",
        # At k = 5, all states read out every kick diffuse to the edge of a
        # halfwidth of 300 after about 150 kicks, so preset d runs 100. At
        # k = 50 (d_max = 87) every kick takes 3 slabs, and no preset
        # reaches the edge of a halfwidth of 1000 in 10 kicks.
        [pytest.param(p, 5.0, 300, 100 if p == "d" else 200, 20, id=p) for p in "abcd"]
        + [pytest.param(p, 50.0, 1000, 10, 4, id=f"k50-{p}") for p in "abcd"],
    )
    def test_presets_match_a_full_window_reference(self, preset, k, halfwidth, kicks, period_c):
        config = ExperimentConfig(
            "kicked", k=k, window_halfwidth=halfwidth, n_kicks=kicks, seed=12,
        ).with_preset(preset)
        if preset == "c":
            config = dataclasses.replace(config, measurement_period=period_c)
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
            apply_kick(state, kernel10)
            assert np.all(_outside(state) == 0.0)
            kicked = state.support
            apply_free(state, spectrum)
            assert state.support == kicked
            assert np.all(_outside(state) == 0.0)
            for schedule in schedules:
                read = copied(state)
                apply_measurement(read, schedule, rng)
                assert read.support == state.support
                assert np.all(_outside(read) == 0.0)
            apply_measurement(state, schedules[kick % 3], rng)
        lo, hi = state.support
        assert 0 < lo and hi < window.size  # the slice stayed narrower than the window

    @pytest.mark.parametrize("factor, kept", [(1.01, True), (0.99, False)])
    def test_end_band_trimmed_below_slice_eps(self, factor, kept):
        # This kernel moves every amplitude down one bin, so the lowest
        # amplitude lands in the new lower end band (d_max = 1) by itself.
        shift = KickKernel(np.array([1.0, 0.0, 0.0]))
        window = BasisWindow.centered(0, 20)
        amps = np.zeros(window.size, complex)
        lowest = math.sqrt(factor * _SLICE_EPS)
        amps[10] = lowest
        amps[11:15] = 0.5
        out = QuantumState(window, amps, support=(10, 15))
        apply_kick(out, shift)
        assert out.support == ((9 if kept else 10), 15)
        assert out.amplitudes[9] == (lowest if kept else 0.0)
        assert np.all(_outside(out) == 0.0)

    def test_support_at_the_window_edge_still_raises(self):
        kernel = build_kernel(5.0)
        window = BasisWindow.centered(0, 60)
        spectrum = SpectrumModel.rotator(window, tau=1.0)
        schedule, rng = MeasurementSchedule("all"), PhaseRandomizer(4)
        state = QuantumState.delta(window)
        with pytest.raises(TruncationOverflowError):
            for _ in range(1000):
                step(state, kernel, spectrum)
                apply_measurement(state, schedule, rng)
        lo, hi = state.support
        assert lo < kernel.d_max or hi > window.size - kernel.d_max

    def test_support_must_be_a_nonempty_range_in_the_window(self):
        window = BasisWindow.centered(0, 10)
        for support in [(3, 3), (-1, 4), (0, 22)]:
            with pytest.raises(ValueError):
                QuantumState(window, np.zeros(window.size, complex), support=support)


_WRITING = {
    "step": lambda state, kernel, spectrum, rng: step(state, kernel, spectrum),
    "apply_kick": lambda state, kernel, spectrum, rng: apply_kick(state, kernel),
    "apply_free": lambda state, kernel, spectrum, rng: apply_free(state, spectrum),
    **{
        f"apply_measurement {mode}": (
            lambda state, kernel, spectrum, rng, schedule=MeasurementSchedule(mode, 1, subset):
                apply_measurement(state, schedule, rng)
        )
        for mode, subset in (("none", None), ("subset", (480, 500, 503)),
                             ("all", None), ("initial", None))
    },
}


def _measured_state(kernel, spectrum, kicks: int) -> QuantumState:
    # 3 measured kicks leave a support narrower than a few blocks, 40 one
    # of many blocks
    state = QuantumState.delta(spectrum.window)
    schedule, rng = MeasurementSchedule("all"), PhaseRandomizer(8)
    for _ in range(kicks):
        step(state, kernel, spectrum)
        apply_measurement(state, schedule, rng)
    lo, hi = state.support
    assert hi - lo == {3: 129, 40: 769}[kicks]
    return state


class TestInputsAreNotMutated:
    @pytest.mark.parametrize("kicks", [3, 40])
    def test_adjoint_step_input_is_unchanged_and_not_shared(self, kernel10, kicks):
        # the oracle's adjoint_step is pure, unlike every package operation
        window = BasisWindow.centered(500, 600)
        spectrum = SpectrumModel.rotator(window, tau=1.0)
        state = _measured_state(kernel10, spectrum, kicks)
        before, support = state.amplitudes.tobytes(), state.support
        out = adjoint_step(state, kernel10, spectrum)
        assert state.amplitudes.tobytes() == before
        assert state.support == support and state.time_index == kicks
        assert not np.shares_memory(out.amplitudes, state.amplitudes)


class TestEveryOperationWritesIntoItsState:
    @pytest.mark.parametrize("call", _WRITING)
    @pytest.mark.parametrize("kicks", [3, 40])
    def test_call_writes_into_its_state_and_returns_none(self, kernel10, call, kicks):
        # Every operation writes into the state's own buffer (a readout of
        # no state changes nothing). The flight and the readout keep its
        # support, a kick widens it, and only step adds 1 to the kick count.
        # The bits, support and draws are those of the same call on a copy
        # with a twin phase stream.
        window = BasisWindow.centered(500, 600)
        spectrum = SpectrumModel.rotator(window, tau=1.0)
        state = _measured_state(kernel10, spectrum, kicks)
        twin, used, twin_rng = copied(state), PhaseRandomizer(3), PhaseRandomizer(3)
        buffer, before, support = state.amplitudes, state.amplitudes.tobytes(), state.support
        assert _WRITING[call](state, kernel10, spectrum, used) is None
        assert state.amplitudes is buffer
        assert (state.amplitudes.tobytes() != before) == (call != "apply_measurement none")
        assert (state.support != support) == (call in ("step", "apply_kick"))
        assert state.time_index == kicks + (call == "step")
        _WRITING[call](twin, kernel10, spectrum, twin_rng)
        assert state.amplitudes.tobytes() == twin.amplitudes.tobytes()
        assert state.support == twin.support and state.time_index == twin.time_index
        assert used._rng.bit_generator.state == twin_rng._rng.bit_generator.state
