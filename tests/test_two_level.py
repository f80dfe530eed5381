"""Two-level system read out between segments: the one-segment map, its closed
form against iteration, the Zeno limit, and the Monte Carlo that converges to it."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenomap import ProbabilityPair, zeno_survival
from zenomap.two_level import measured_populations, monte_carlo_measured_evolve

from reference import measured_evolve_closed, measured_probability_step, turn_sine

class TestMeasuredStep:
    def test_quarter_angle_equalizes(self):
        out = measured_probability_step(ProbabilityPair(1.0, 0.0), math.pi / 4)
        assert out.p1 == pytest.approx(0.5, abs=1e-12)
        assert out.p2 == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("phi", [0.0, 0.2, math.pi / 3, 1.9, math.pi])
    def test_uniform_is_fixed_point(self, phi):
        out = measured_probability_step(ProbabilityPair(0.5, 0.5), phi)
        assert out.p1 == pytest.approx(0.5, abs=1e-12)
        assert out.p2 == pytest.approx(0.5, abs=1e-12)

    def test_eighth_angle_weights(self):
        out = measured_probability_step(ProbabilityPair(1.0, 0.0), math.pi / 8)
        assert out.p1 == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-14)
        assert out.p2 == pytest.approx(math.sin(math.pi / 8) ** 2, abs=1e-14)
        assert out.p1 == pytest.approx(0.85355, abs=1e-5)
        assert out.p2 == pytest.approx(0.14645, abs=1e-5)

    def test_output_sums_to_one(self):
        out = measured_probability_step(ProbabilityPair(0.3, 0.7), 1.1)
        assert out.p1 + out.p2 == pytest.approx(1.0, abs=1e-12)


class TestMeasuredEvolveClosed:
    def test_single_equalizing_segment(self):
        # 2 phi = pi / 2
        out = measured_evolve_closed(ProbabilityPair(1.0, 0.0), math.pi / 4, 1)
        assert out.p1 == pytest.approx(0.5, abs=1e-12)

    def test_four_segments_at_eighth_angle(self):
        # 2 phi = pi / 4, cos^4 = 1/4
        out = measured_evolve_closed(ProbabilityPair(1.0, 0.0), math.pi / 8, 4)
        assert out.p1 == pytest.approx(0.625, abs=1e-12)
        assert out.p2 == pytest.approx(0.375, abs=1e-12)

    def test_n_zero_is_identity(self):
        start = ProbabilityPair(1.0, 0.0)
        assert measured_evolve_closed(start, 0.77, 0) == start

    @pytest.mark.parametrize("phi", [math.pi / 8, 0.3, 1.1])
    def test_matches_iteration_at_ten_thousand_steps(self, phi):
        p = ProbabilityPair(1.0, 0.0)
        for _ in range(10_000):
            p = measured_probability_step(p, phi)
        closed = measured_evolve_closed(ProbabilityPair(1.0, 0.0), phi, 10_000)
        assert abs(closed.p1 - p.p1) < 1e-12
        assert abs(closed.p2 - p.p2) < 1e-12

    def test_near_degenerate_angle_stays_close(self):
        # At tiny angles the iterated map accumulates roundoff linearly and
        # can exceed the 1e-12 agreement seen elsewhere; measured ~2e-12.
        phi = math.pi / 2000
        p = ProbabilityPair(1.0, 0.0)
        for _ in range(10_000):
            p = measured_probability_step(p, phi)
        closed = measured_evolve_closed(ProbabilityPair(1.0, 0.0), phi, 10_000)
        assert abs(closed.p1 - p.p1) < 5e-12

    @given(
        phi=st.floats(0.02, math.pi / 2 - 0.02),
        n=st.integers(min_value=0, max_value=2000),
        p1=st.floats(0.0, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_closed_form_tracks_iteration(self, phi, n, p1):
        start = ProbabilityPair(p1, 1.0 - p1)
        p = start
        for _ in range(n):
            p = measured_probability_step(p, phi)
        closed = measured_evolve_closed(start, phi, n)
        assert abs(closed.p1 - p.p1) < 1e-12

    @pytest.mark.parametrize("phi", [0.0, math.pi / 8, 0.3, 1.1, -2.7])
    def test_populations_of_a_kick_array_are_the_closed_form_bit_for_bit(self, phi):
        start = ProbabilityPair(0.75, 0.25)
        n = np.arange(1, 300)
        p1, p2 = measured_populations(start, phi, n)
        closed = [measured_evolve_closed(start, phi, int(i)) for i in n]
        assert p1.tolist() == [c.p1 for c in closed]
        assert p2.tolist() == [c.p2 for c in closed]

    @pytest.mark.parametrize("n", [-1, np.array([3, -1, 2])], ids=["scalar", "array"])
    def test_populations_refuse_a_negative_segment_count(self, n):
        with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
            measured_populations(ProbabilityPair(1.0, 0.0), 0.5, n)

    @given(phi=st.floats(-10.0, 10.0))
    @settings(max_examples=60)
    def test_step_matrix_is_symmetric_doubly_stochastic(self, phi):
        c2 = math.cos(phi) ** 2
        s2 = math.sin(phi) ** 2
        m = np.array([[c2, s2], [s2, c2]])
        assert np.all(m >= 0)
        assert np.allclose(m, m.T)
        assert np.allclose(m.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12)


class TestZenoSurvival:
    def test_uninterrupted_pulse_transfers(self):
        out = zeno_survival(1)
        assert out.p1 == pytest.approx(0.0, abs=1e-12)
        assert out.p2 == pytest.approx(1.0, abs=1e-12)

    def test_two_segments_equalize(self):
        out = zeno_survival(2)
        assert out.p1 == pytest.approx(0.5, abs=1e-12)

    def test_large_n_matches_leading_order(self):
        out = zeno_survival(64)
        leading = math.pi**2 / (4 * 64)
        assert abs(out.p2 - leading) / leading < 0.15

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            zeno_survival(0)

    def test_survival_probability_is_nondecreasing(self):
        values = [zeno_survival(n).p1 for n in range(2, 400)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_is_the_closed_form_bit_for_bit(self):
        start = ProbabilityPair(1.0, 0.0)
        for n in range(1, 1025):
            out = zeno_survival(n)
            closed = measured_evolve_closed(start, math.pi / (2 * n), n)
            assert out.p1 == closed.p1 and out.p2 == closed.p2, n

    @pytest.mark.parametrize("n", [50, 64, 128, 256, 1000, 2000])
    def test_survival_exceeds_leading_order_bound(self, n):
        assert zeno_survival(n).p1 > 1.0 - math.pi**2 / (4 * n) - 0.01


class TestMonteCarlo:
    def test_matches_closed_form_within_three_sigma(self):
        n, trials = 16, 100_000
        phi = math.pi / 32  # 2 phi = pi / 16
        closed = measured_evolve_closed(ProbabilityPair(1.0, 0.0), phi, n)
        mc = monte_carlo_measured_evolve(ProbabilityPair(1.0, 0.0), phi, n, trials, seed=2024)
        se = math.sqrt(closed.p2 * (1 - closed.p2) / trials)
        assert abs(mc.p2 - closed.p2) < 3 * se

    def test_equalizing_angle_converges_to_half(self):
        # 2 phi = pi / 2 kills the contrast in a single measured segment
        mc = monte_carlo_measured_evolve(ProbabilityPair(1.0, 0.0), math.pi / 4, 2, 40_000, seed=5)
        assert mc.p1 == pytest.approx(0.5, abs=0.01)

    def test_single_trial_is_deterministic(self):
        a = monte_carlo_measured_evolve(ProbabilityPair(1.0, 0.0), 0.3, 8, 1, seed=42)
        b = monte_carlo_measured_evolve(ProbabilityPair(1.0, 0.0), 0.3, 8, 1, seed=42)
        assert a == b

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo_measured_evolve(ProbabilityPair(1.0, 0.0), 0.3, 8, 0, seed=1)

    def test_negative_segment_count_rejected(self):
        with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
            monte_carlo_measured_evolve(ProbabilityPair(1.0, 0.0), 0.3, -1, 10, seed=1)

    def test_unaddressable_segment_count_rejected_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", None)  # a draw would fail otherwise
        with pytest.raises(ValueError, match=r"^Maximum allowed size exceeded$"):
            monte_carlo_measured_evolve(ProbabilityPair(1.0, 0.0), 0.3, 2**63, 10, seed=1)

    @pytest.mark.parametrize("n", [0, 1, 8])
    def test_int_pair_gives_the_float_pair_result(self, n):
        # the trial array is float even for an int pair, whose int array
        # the in-place update could not hold
        ints = monte_carlo_measured_evolve(ProbabilityPair(1, 0), 0.3, n, 500, seed=9)
        floats = monte_carlo_measured_evolve(ProbabilityPair(1.0, 0.0), 0.3, n, 500, seed=9)
        assert ints == floats
        assert type(ints.p1) is float and type(ints.p2) is float

    def test_matches_explicit_amplitude_simulation(self):
        # oracle: evolve complex amplitudes with freshly drawn phases before
        # every segment, consuming the random stream in the same layout
        n, trials, phi, seed = 12, 400, math.pi / 10, 31
        rng = np.random.default_rng(seed)
        a1 = np.full(trials, 1.0 + 0j)
        a2 = np.zeros(trials, complex)
        c, s = math.cos(phi), math.sin(phi)
        for _ in range(n):
            alpha1 = rng.uniform(0, 2 * math.pi, trials)
            alpha2 = rng.uniform(0, 2 * math.pi, trials)
            a1 = np.abs(a1) * np.exp(1j * alpha1)
            a2 = np.abs(a2) * np.exp(1j * alpha2)
            a1, a2 = c * a1 + 1j * s * a2, 1j * s * a1 + c * a2
        w1, w2 = np.abs(a1) ** 2, np.abs(a2) ** 2
        oracle = ProbabilityPair(
            float(np.mean(w1 / (w1 + w2))), float(np.mean(w2 / (w1 + w2)))
        )
        mc = monte_carlo_measured_evolve(ProbabilityPair(1.0, 0.0), phi, n, trials, seed)
        assert mc.p1 == pytest.approx(oracle.p1, abs=1e-12)
        assert mc.p2 == pytest.approx(oracle.p2, abs=1e-12)


def _two_population_reference(p0, phi, n, trials, seed):
    # accuracy reference: both populations per trial, renormalized at the end
    rng = np.random.default_rng(seed)
    p1 = np.full(trials, p0.p1)
    p2 = np.full(trials, p0.p2)
    c = math.cos(phi)
    s = math.sin(phi)
    c2, s2, sin2phi = c * c, s * s, 2.0 * c * s
    for _ in range(n):
        u1 = rng.random(trials)
        u2 = rng.random(trials)
        interference = turn_sine(u1 - u2)
        cross = sin2phi * np.sqrt(p1 * p2) * interference
        p1, p2 = c2 * p1 + s2 * p2 + cross, s2 * p1 + c2 * p2 - cross
        np.maximum(p1, 0.0, out=p1)
        np.maximum(p2, 0.0, out=p2)
    total = p1 + p2
    return ProbabilityPair(float(np.mean(p1 / total)), float(np.mean(p2 / total)))


@pytest.mark.parametrize("p0", [(1.0, 0.0), (0.75, 0.25)])
@pytest.mark.parametrize("n,trials", [(64, 20_000), (1000, 5000)])
def test_monte_carlo_keeps_the_accuracy_of_both_populations(p0, n, trials):
    # In the Zeno regime p2 is small: carrying p1 and taking p2 = 1 - p1
    # moves p2 by 3e-11 relative at n = 1000 from p0 = (1, 0).
    p0 = ProbabilityPair(*p0)
    phi = math.pi / (2 * n)
    reference = _two_population_reference(p0, phi, n, trials, seed=9)
    mc = monte_carlo_measured_evolve(p0, phi, n, trials, seed=9)
    assert mc.p1 == pytest.approx(reference.p1, rel=1e-12, abs=0.0)
    assert mc.p2 == pytest.approx(reference.p2, rel=1e-12, abs=0.0)


def _serial_monte_carlo(p0, phi, n, trials, seed):
    # the single-threaded loop the chunked trials must reproduce bit for bit
    rng = np.random.default_rng(seed)
    p2 = np.full(trials, p0.p2)
    c = math.cos(phi)
    s = math.sin(phi)
    s2, cos2phi, sin2phi = s * s, math.cos(2.0 * phi), 2.0 * c * s
    for _ in range(n):
        u1 = rng.random(trials)
        u2 = rng.random(trials)
        interference = turn_sine(u1 - u2)
        p2 = s2 + cos2phi * p2 - sin2phi * np.sqrt(p2 * (1.0 - p2)) * interference
        np.clip(p2, 0.0, 1.0, out=p2)
    transfer = float(np.mean(p2))
    return ProbabilityPair(1.0 - transfer, transfer)


@pytest.mark.parametrize("trials,threads", [(1, 4), (7, 3), (1000, 2), (1001, 5)])
@pytest.mark.parametrize("n", [0, 1, 17])
def test_monte_carlo_chunks_replay_the_serial_stream(monkeypatch, trials, threads, n):
    monkeypatch.setenv("ZENO_MAP_THREADS", str(threads))
    p0 = ProbabilityPair(0.75, 0.25)
    oracle = _serial_monte_carlo(p0, 0.37, n, trials, seed=8)
    assert monte_carlo_measured_evolve(p0, 0.37, n, trials, seed=8) == oracle


def test_monte_carlo_chunks_survive_frequent_thread_switches(monkeypatch):
    # more threads than cores, switching often: a chunk that wrote outside
    # its own slice, or read another's draws, would break the equality
    monkeypatch.setenv("ZENO_MAP_THREADS", "8")
    p0 = ProbabilityPair(0.75, 0.25)
    oracle = _serial_monte_carlo(p0, 0.21, 40, 4099, seed=3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = monte_carlo_measured_evolve(p0, 0.21, 40, 4099, seed=3)
    finally:
        sys.setswitchinterval(interval)
    assert result == oracle


def test_phase_difference_interference_averages_out():
    # the mechanism that removes the cross term from the measured step
    rng = np.random.default_rng(20240810)
    alpha1 = rng.uniform(0, 2 * math.pi, 100_000)
    alpha2 = rng.uniform(0, 2 * math.pi, 100_000)
    assert abs(np.mean(np.sin(alpha1 - alpha2))) < 0.01


class TestTypes:
    def test_probability_pair_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ProbabilityPair(0.7, 0.7)

    def test_probability_pair_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ProbabilityPair(1.4, -0.4)
