"""Measurement schedules and phase randomization."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenomap import BasisWindow, QuantumState, dispersion
from zenomap.kick_engine import apply_kick
from zenomap.measurement import (
    MeasurementSchedule,
    PhaseRandomizer,
    _phase_factors,
    apply_measurement,
)

from reference import array_readout, copied, occupations, split_phase_factors, turn_sine


class TestSchedule:
    def test_fires_on_period_multiples(self):
        kicks = MeasurementSchedule("all", period=200).kicks(500)
        assert 200 in kicks
        assert 201 not in kicks
        assert 400 in kicks
        assert list(kicks) == [200, 400]

    def test_none_never_fires(self):
        kicks = MeasurementSchedule("none").kicks(500)
        assert not any(j in kicks for j in range(1, 500))
        assert len(kicks) == 0

    def test_kick_index_starts_at_one(self):
        assert 0 not in MeasurementSchedule("all").kicks(10)
        assert list(MeasurementSchedule("all").kicks(3)) == [1, 2, 3]

    def test_period_must_be_positive(self):
        with pytest.raises(ValueError):
            MeasurementSchedule("all", period=0)

    def test_subset_must_be_nonempty(self):
        with pytest.raises(ValueError):
            MeasurementSchedule("subset", 1, ())

    def test_subset_rejects_duplicates(self):
        with pytest.raises(ValueError):
            MeasurementSchedule("subset", 1, (3, 3))

    def test_subset_only_with_subset_mode(self):
        with pytest.raises(ValueError):
            MeasurementSchedule("all", 1, (5,))

    def test_subset_is_sorted(self):
        schedule = MeasurementSchedule("subset", 1, (9, 2, 5))
        assert schedule.subset == (2, 5, 9)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode must be one of none, subset, all, initial"):
            MeasurementSchedule("some")


def _random_state(window: BasisWindow, seed: int) -> QuantumState:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=window.size) + 1j * rng.normal(size=window.size)
    amps /= np.linalg.norm(amps)
    return QuantumState(window, amps)


class TestApplyMeasurement:
    def test_none_leaves_the_amplitudes_and_the_stream_unchanged(self):
        window = BasisWindow.centered(0, 10)
        state = _random_state(window, 0)
        used, unused = PhaseRandomizer(1), PhaseRandomizer(1)
        out = copied(state)
        apply_measurement(out, MeasurementSchedule("none"), used)
        assert np.array_equal(out.amplitudes.view(np.int64), state.amplitudes.view(np.int64))
        assert used._rng.bit_generator.state == unused._rng.bit_generator.state

    def test_full_measurement_preserves_occupations(self):
        window = BasisWindow.centered(0, 50)
        state = _random_state(window, 1)
        out = copied(state)
        apply_measurement(out, MeasurementSchedule("all"), PhaseRandomizer(2))
        assert np.allclose(occupations(out), occupations(state), rtol=1e-14, atol=0)
        assert not np.allclose(out.amplitudes, state.amplitudes)  # phases did change

    def test_delta_state_unchanged_up_to_global_phase(self):
        window = BasisWindow.centered(0, 10)
        out = QuantumState.delta(window)
        apply_measurement(out, MeasurementSchedule("all"), PhaseRandomizer(3))
        assert abs(abs(out.amplitudes[window.offset(0)]) - 1.0) < 1e-14
        occupied = np.nonzero(occupations(out) > 0)[0]
        assert list(occupied) == [window.offset(0)]

    def test_subset_leaves_unmeasured_amplitudes_bit_identical(self):
        window = BasisWindow.centered(0, 20)
        state = _random_state(window, 4)
        schedule = MeasurementSchedule("subset", 1, (-3, 7))
        out = copied(state)
        apply_measurement(out, schedule, PhaseRandomizer(5))
        touched = [window.offset(-3), window.offset(7)]
        untouched = [i for i in range(window.size) if i not in touched]
        assert np.array_equal(out.amplitudes[untouched], state.amplitudes[untouched])
        assert np.allclose(
            np.abs(out.amplitudes[touched]), np.abs(state.amplitudes[touched]),
            rtol=1e-14, atol=0,
        )

    def test_initial_mode_randomizes_m0_alone_with_one_draw(self):
        window = BasisWindow(-20, 20, 7)
        state = _random_state(window, 14)
        used, reference = PhaseRandomizer(15, 2), PhaseRandomizer(15, 2)
        out = copied(state)
        apply_measurement(out, MeasurementSchedule("initial"), used)
        reference.phases(1)
        assert used._rng.bit_generator.state == reference._rng.bit_generator.state
        home = window.offset(7)
        untouched = [i for i in range(window.size) if i != home]
        assert np.array_equal(out.amplitudes[untouched], state.amplitudes[untouched])
        assert out.amplitudes[home] != state.amplitudes[home]
        assert abs(out.amplitudes[home]) == pytest.approx(abs(state.amplitudes[home]), rel=1e-14)

    def test_initial_mode_equals_a_subset_schedule_of_m0(self):
        window = BasisWindow(-20, 20, 7)
        state = _random_state(window, 16)
        initial, subset = copied(state), copied(state)
        apply_measurement(initial, MeasurementSchedule("initial"), PhaseRandomizer(17))
        apply_measurement(subset, MeasurementSchedule("subset", 1, (7,)), PhaseRandomizer(17))
        assert np.array_equal(initial.amplitudes, subset.amplitudes)

    @pytest.mark.parametrize("schedule, states", [
        (MeasurementSchedule("subset", 1, (7, -3, 0)), [-3, 0, 7]),
        (MeasurementSchedule("initial"), [7]),
    ], ids=["subset", "initial"])
    def test_few_state_readout_draws_once_per_state_in_ascending_m(self, schedule, states):
        # the stream contract, bit for bit: draw i multiplies the i-th read-out
        # state in ascending m, and every other amplitude keeps its bits. The
        # product is taken in place, as numpy's complex product may round a
        # lone element differently out of place.
        window = BasisWindow(-20, 20, 7)
        state = _random_state(window, 18)
        used, reference = PhaseRandomizer(19, 3), PhaseRandomizer(19, 3)
        out = copied(state)
        apply_measurement(out, schedule, used)
        turns = reference.phases(len(states))
        assert used._rng.bit_generator.state == reference._rng.bit_generator.state
        positions = [window.offset(m) for m in states]
        expected = state.amplitudes.copy()
        expected[positions] *= np.exp(1j * (turns * (2 * np.pi)))
        assert np.array_equal(out.amplitudes.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("schedule, states", [
        (MeasurementSchedule("initial"), (7,)),
        (MeasurementSchedule("subset", 1, (12,)), (12,)),
        (MeasurementSchedule("subset", 1, (12, -4)), (-4, 12)),
        (MeasurementSchedule("subset", 1, (12, -4, 7)), (-4, 7, 12)),
    ], ids=["initial", "one-state subset", "two-state subset", "three-state subset"])
    def test_readout_matches_the_array_product(self, schedule, states):
        # 10^4 readouts of fresh random amplitudes, of every magnitude, with
        # replayed streams: a one-state readout takes scalars, and must give
        # the bits of the one-element array product
        window = BasisWindow(-20, 20, 7)
        positions = [window.offset(m) for m in states]
        count = 10_000
        rng = np.random.default_rng(27)
        values = (rng.normal(size=(count, len(states)))
                  + 1j * rng.normal(size=(count, len(states))))
        values *= 10.0 ** rng.uniform(-30.0, 2.0, size=(count, 1))
        state, twin = _random_state(window, 28), _random_state(window, 28)
        used, replayed = PhaseRandomizer(29, 4), PhaseRandomizer(29, 4)
        got, want = np.empty_like(values), np.empty_like(values)
        for i in range(count):
            state.amplitudes[positions] = twin.amplitudes[positions] = values[i]
            apply_measurement(state, schedule, used)
            array_readout(twin, states, replayed)
            got[i], want[i] = state.amplitudes[positions], twin.amplitudes[positions]
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(state.amplitudes.view(np.int64), twin.amplitudes.view(np.int64))
        assert used._rng.bit_generator.state == replayed._rng.bit_generator.state

    def test_subset_outside_window_rejected(self):
        # before any draw or write: -3 comes first in ascending m and lies
        # in the window, so a readout that wrote before it had checked every
        # state would change its amplitude
        window = BasisWindow.centered(0, 10)
        state = _random_state(window, 25)
        before = state.amplitudes.copy()
        schedule = MeasurementSchedule("subset", 1, (25, -3, 4))
        used, unused = PhaseRandomizer(26), PhaseRandomizer(26)
        with pytest.raises(ValueError, match="outside window"):
            apply_measurement(state, schedule, used)
        assert np.array_equal(state.amplitudes.view(np.int64), before.view(np.int64))
        assert used._rng.bit_generator.state == unused._rng.bit_generator.state
        # a one-state readout checks its state before it draws, too
        with pytest.raises(ValueError, match="outside window"):
            apply_measurement(state, MeasurementSchedule("subset", 1, (25,)), used)
        assert np.array_equal(state.amplitudes.view(np.int64), before.view(np.int64))
        assert used._rng.bit_generator.state == unused._rng.bit_generator.state

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_occupations_invariant_for_any_state(self, seed):
        window = BasisWindow.centered(0, 15)
        state = _random_state(window, seed)
        out = copied(state)
        apply_measurement(out, MeasurementSchedule("all"), PhaseRandomizer(seed))
        assert np.allclose(occupations(out), occupations(state), rtol=1e-13, atol=0)

    def test_dispersion_invariant_under_measurement(self):
        window = BasisWindow.centered(0, 40)
        state = _random_state(window, 7)
        out = copied(state)
        apply_measurement(out, MeasurementSchedule("all"), PhaseRandomizer(8))
        # phases never enter the dispersion sum; equality up to roundoff of
        # the occupation products
        assert dispersion(out) == pytest.approx(dispersion(state), rel=1e-13)


def _errors(t: np.ndarray):
    """Two functions that give the absolute errors of estimates of
    ``sin(2 pi t)`` and of ``cos(2 pi t)``, against mpmath."""
    with mpmath.workprec(100):
        exact = [(mpmath.sinpi(2 * x), mpmath.cospi(2 * x)) for x in t.tolist()]
        parts = []
        for values in zip(*exact):
            hi = np.array([float(e) for e in values])
            lo = np.array([float(e - h) for e, h in zip(values, hi.tolist())])
            parts.append((hi, lo))
    return tuple(lambda estimate, hi=hi, lo=lo: np.abs((estimate - hi) - lo)
                 for hi, lo in parts)


class TestTurnSplit:
    """The turn table and split behind both phase randomizers: the readout's
    factor ``exp(2 pi i t)`` and the Monte Carlo's ``sin(2 pi t)``, for
    turns ``t`` that are draws of ``Generator.random`` or their differences."""

    @staticmethod
    def _edge_turns() -> np.ndarray:
        h = np.unique(np.concatenate([
            np.arange(-4096, -4080), np.arange(-16, 17), np.arange(4080, 4097),
            np.random.default_rng(3).integers(-4096, 4097, 500),
        ]))
        split = h / 4096
        draw = 2.0**-53  # the neighbouring draws
        edges = [0.0, 0.25, -0.25, 0.5, -0.5, 1.0 - draw, draw - 1.0]
        turns = np.concatenate([edges, split, split + draw, split - draw])
        return turns[np.abs(turns) <= 1.0]

    @pytest.mark.parametrize("which", ["sampled", "edges"])
    def test_against_mpmath(self, which):
        if which == "sampled":
            rng = np.random.default_rng(2718)
            u1, u2 = rng.random(100_000), rng.random(100_000)
            t = u1 - u2  # exact
        else:
            t = self._edge_turns()
        sin_error, cos_error = _errors(t)
        factors = _phase_factors(t.copy())
        assert sin_error(factors.imag).max() <= 2.5e-16
        assert cos_error(factors.real).max() <= 2.5e-16
        assert np.max(np.abs(np.abs(factors) - 1.0)) <= 2e-15
        sine = turn_sine(t)
        assert sin_error(sine).max() <= 2.5e-16
        if which == "sampled":
            # np.sin of the difference of two rounded phases is further off
            old = np.sin(u1 * (2.0 * math.pi) - u2 * (2.0 * math.pi))
            assert sin_error(old).max() > 2 * sin_error(sine).max()

    @pytest.mark.parametrize("t, sin, cos", [
        (0.0, 0.0, 1.0),
        (0.25, 1.0, 0.0),
        (-0.25, -1.0, 0.0),
        (0.5, 0.0, -1.0),
        (-0.5, 0.0, -1.0),
        (1.0 - 2.0**-53, None, 1.0),
        (2.0**-53 - 1.0, None, 1.0),
    ], ids=["0", "1/4", "-1/4", "1/2", "-1/2", "1-2^-53", "-(1-2^-53)"])
    def test_edge_turns(self, t, sin, cos):
        # the table's zeros and ones are exact
        factor = _phase_factors(np.array([t]))[0]
        sine = turn_sine(np.array([t]))[0]
        assert factor.real == cos
        if sin is not None:
            assert factor.imag == sine == sin
        else:  # sin(2 pi (1 - 2**-53)) = -sin(2 pi 2**-53), to a few of its ulps
            value = math.copysign(2 * math.pi * 2.0**-53, -t)
            assert factor.imag == pytest.approx(value, rel=1e-15)
            assert sine == pytest.approx(value, rel=1e-15)

    @pytest.mark.parametrize("which", ["uniform", "edges"])
    def test_readout_factors_are_the_whole_array_split(self, which):
        if which == "uniform":
            turns = np.random.default_rng(20).random(10**6)
        else:
            turns = self._edge_turns()
            turns = turns[(turns >= 0.0) & (turns < 1.0)]
        factors = _phase_factors(turns.copy())
        assert np.max(np.abs(factors - np.exp(2j * np.pi * turns))) <= 2e-15
        # the same bits as the split computed in another order of its steps
        expected = split_phase_factors(turns.copy())
        assert np.array_equal(factors.view(np.uint64), expected.view(np.uint64))

    def test_full_readout_consumes_one_draw_per_state(self):
        window = BasisWindow.centered(0, 300)
        state = _random_state(window, 9)
        used, reference = PhaseRandomizer(13, 4), PhaseRandomizer(13, 4)
        out = copied(state)
        apply_measurement(out, MeasurementSchedule("all"), used)
        turns = reference.phases(window.size)
        assert used._rng.bit_generator.state == reference._rng.bit_generator.state
        assert np.allclose(out.amplitudes, state.amplitudes * np.exp(2j * np.pi * turns),
                           rtol=0, atol=4e-15)

    def test_full_readout_is_the_whole_array_split(self):
        window = BasisWindow.centered(0, 300)
        state = _random_state(window, 10)
        out = copied(state)
        apply_measurement(out, MeasurementSchedule("all"), PhaseRandomizer(14, 2))
        factors = split_phase_factors(PhaseRandomizer(14, 2).phases(window.size))
        expected = factors * state.amplitudes
        assert np.array_equal(out.amplitudes.view(np.uint64), expected.view(np.uint64))


class TestPhaseRandomizer:
    def test_reproducible_for_same_seed_and_realization(self):
        a = PhaseRandomizer(11, 2).phases(100)
        b = PhaseRandomizer(11, 2).phases(100)
        assert np.array_equal(a, b)

    def test_realizations_get_independent_streams(self):
        a = PhaseRandomizer(11, 0).phases(100)
        b = PhaseRandomizer(11, 1).phases(100)
        assert not np.array_equal(a, b)

    def test_phases_are_the_draws_of_random(self):
        seq = np.random.SeedSequence(11, spawn_key=(0, 2))
        reference = np.random.Generator(np.random.PCG64(seq))
        rng = PhaseRandomizer(11, 2)
        for count in (4001, 1, 7):
            assert np.array_equal(rng.phases(count), reference.random(count))

    def test_phases_in_range(self):
        draws = PhaseRandomizer(12).phases(10_000)
        assert np.all(draws >= 0.0)
        assert np.all(draws < 1.0)

    def test_successive_draws_are_uncorrelated(self):
        # circular autocorrelation over 10^4 events at lags 1..10
        draws = PhaseRandomizer(42).phases(10_000)
        for lag in range(1, 11):
            r = np.mean(np.exp(2j * np.pi * (draws[lag:] - draws[:-lag])))
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
        schedule = MeasurementSchedule("all")
        rng = PhaseRandomizer(11)
        trials = 20_000
        total = 0.0
        for _ in range(trials):
            measured = copied(state)
            apply_measurement(measured, schedule, rng)
            apply_kick(measured, kernel10)
            total += dispersion(measured)
        mean_interference = total / trials - incoherent
        assert abs(mean_interference) < 0.01 * incoherent

    def test_fresh_phases_delocalize_where_fixed_phases_localize(self, random_curves):
        # same random level spectrum: without measurement the dispersion
        # saturates; with fresh phases every kick it keeps growing linearly
        frozen = random_curves["a"]
        fresh = random_curves["d"]
        late_mean = float(np.mean(frozen.dispersion[frozen.j >= 500]))
        assert float(fresh.dispersion[-1]) > 5.0 * late_mean
