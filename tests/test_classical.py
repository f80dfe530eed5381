"""Standard-map ensemble: map properties and the diffusion estimator."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from zenomap import ClassicalEnsemble, LostKickError, ensemble_diffusion
from zenomap.observables import DispersionSeries
from zenomap.classical import (
    _INV_TWO_PI,
    _MOD_BELOW,
    _TWO_PI,
    _WRAP_LIMIT,
    K_CRITICAL,
    _wrap_angles,
    ensemble_series,
)

from reference import ClassicalParticle, classical_step


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)


def _assert_wraps_like_mod(x: np.ndarray) -> None:
    # as given, and repeated up to the size at which the reduction may run
    for angles in (x, np.resize(x, max(x.size, _MOD_BELOW))):
        assert np.array_equal(_bits(_wrap_angles(angles.copy())), _bits(np.mod(angles, _TWO_PI)))


def _reference_series(ensemble: ClassicalEnsemble, steps: int) -> np.ndarray:
    """Rows ``(dispersion, p_m0)`` from the plain map loop, wrapped by ``np.mod``."""
    angles = ensemble.particles.copy()
    actions = np.full(angles.size, float(ensemble.I0))
    rows = []
    for t in range(steps + 1):
        if t:
            actions += ensemble.k * np.sin(angles)
            angles += ensemble.tau * actions
            np.mod(angles, _TWO_PI, out=angles)
        spread = actions - ensemble.I0
        rows.append(
            (np.mean(spread * spread), np.count_nonzero(np.abs(spread) <= 0.5) / angles.size)
        )
    return np.array(rows).T


class TestClassicalStep:
    def test_free_rotation_at_zero_strength(self):
        p = ClassicalParticle(action=3.0, angle=1.0)
        out = classical_step(p, k=0.0, tau=0.5)
        assert out.action == 3.0
        assert out.angle == pytest.approx((1.0 + 0.5 * 3.0) % (2 * math.pi))

    def test_kick_at_quarter_angle(self):
        p = ClassicalParticle(action=0.0, angle=math.pi / 2)
        out = classical_step(p, k=10.0, tau=1.0)
        assert out.action == pytest.approx(10.0, abs=1e-12)
        assert out.angle == pytest.approx((math.pi / 2 + 10.0) % (2 * math.pi), abs=1e-12)

    def test_zero_angle_leaves_action_unchanged(self):
        p = ClassicalParticle(action=7.5, angle=0.0)
        out = classical_step(p, k=10.0, tau=1.0)
        assert out.action == 7.5

    def test_angle_is_wrapped(self):
        p = ClassicalParticle(action=123.456, angle=5.0)
        out = classical_step(p, k=10.0, tau=1.0)
        assert 0.0 <= out.angle < 2 * math.pi

    def test_area_preservation_by_finite_differences(self):
        # |det d(I', theta') / d(I, theta)| = 1 for the kicked map
        k, tau, h = 10.0, 1.0, 1e-6

        def mapped(action, angle):
            out = classical_step(ClassicalParticle(action, angle), k, tau)
            return out.action, out.angle

        for action, angle in [(3.7, 1.2), (0.0, 2.8), (-5.1, 4.4)]:
            di_da = ((np.array(mapped(action + h, angle))
                      - np.array(mapped(action - h, angle))) / (2 * h))
            di_dt = ((np.array(mapped(action, angle + h))
                      - np.array(mapped(action, angle - h))) / (2 * h))
            det = di_da[0] * di_dt[1] - di_dt[0] * di_da[1]
            assert det == pytest.approx(1.0, abs=1e-6)


class TestEnsemble:
    def test_chaos_flag(self):
        assert ClassicalEnsemble.prepared(10, 0.0, 1.0, 10.0).chaotic
        assert not ClassicalEnsemble.prepared(10, 0.0, 1.0, K_CRITICAL).chaotic

    def test_prepared_requires_particles(self):
        with pytest.raises(ValueError):
            ClassicalEnsemble.prepared(0, 0.0, 1.0, 10.0)

    def test_random_angle_initialization_is_reproducible(self):
        a = ClassicalEnsemble.prepared(50, 0.0, 1.0, 10.0, seed=4)
        b = ClassicalEnsemble.prepared(50, 0.0, 1.0, 10.0, seed=4)
        assert np.array_equal(a.particles, b.particles)

    def test_unseeded_angles_are_spread_uniformly(self):
        # regression: an unseeded ensemble once held every particle at angle 0
        angles = ClassicalEnsemble.prepared(1000, 500.0, 1.0, 10.0).particles
        assert np.std(angles, ddof=1) == pytest.approx(math.pi / math.sqrt(3), rel=0.10)

    def test_particles_are_read_only(self):
        ensemble = ClassicalEnsemble.prepared(10, 0.0, 1.0, 10.0, seed=1)
        with pytest.raises(ValueError):
            ensemble.particles[0] = 1.0


class TestEnsembleDiffusion:
    def test_zero_strength_gives_zero(self):
        ensemble = ClassicalEnsemble.prepared(100, 500.0, 1.0, 0.0, seed=1)
        with pytest.warns(UserWarning):
            assert ensemble_diffusion(ensemble, 50) == 0.0

    def test_deterministic_for_fixed_seed(self):
        a = ensemble_diffusion(ClassicalEnsemble.prepared(500, 500.0, 1.0, 10.0, seed=9), 100)
        b = ensemble_diffusion(ClassicalEnsemble.prepared(500, 500.0, 1.0, 10.0, seed=9), 100)
        assert a == b

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            ClassicalEnsemble((), 0.0, 1.0, 10.0)

    def test_warns_below_chaos_threshold(self):
        ensemble = ClassicalEnsemble.prepared(100, 0.0, 1.0, 0.5, seed=0)
        with pytest.warns(UserWarning):
            ensemble_diffusion(ensemble, 10)

    def test_single_step_rate_is_quasilinear(self):
        # uniform angles make the first kick exactly quasilinear:
        # E[(delta I)^2] = k^2/2, so the one-step estimate is k^2/(4 tau)
        ensemble = ClassicalEnsemble.prepared(1_000_000, 500.0, 1.0, 10.0, seed=13)
        estimate = ensemble_diffusion(ensemble, 1)
        assert estimate == pytest.approx(25.0, rel=5e-3)

    def test_uses_stored_particles_without_seed(self):
        ensemble = ClassicalEnsemble(np.array([0.0, math.pi / 2]), 2.0, 1.0, 10.0)
        estimate = ensemble_diffusion(ensemble, 1)
        # increments: 0 and +10 -> mean square 50, over 2 tau
        assert estimate == pytest.approx(25.0, abs=1e-12)


class TestEnsembleSeries:
    def test_matches_scalar_map(self):
        # every kick up to 20, so the angle update is compared too (kick 1's
        # action depends on the initial angle only)
        angles = (0.3, 1.1, 2.9, 4.2)
        ensemble = ClassicalEnsemble(np.array(angles), 1.5, 1.0, 3.0)
        series = ensemble_series(ensemble, 20)
        stepped = [ClassicalParticle(1.5, angle) for angle in angles]
        for j in range(1, 21):
            stepped = [classical_step(p, 3.0, 1.0) for p in stepped]
            expected = np.mean([(p.action - 1.5) ** 2 for p in stepped])
            assert series.dispersion[j] == pytest.approx(expected, abs=1e-12)

    def test_stored_angles_unchanged_by_evolution(self):
        ensemble = ClassicalEnsemble.prepared(200, 500.0, 1.0, 10.0, seed=3)
        before = ensemble.particles.copy()
        ensemble_series(ensemble, 25)
        assert np.array_equal(ensemble.particles, before)

    def test_series_shape_and_start(self):
        ensemble = ClassicalEnsemble.prepared(200, 500.0, 1.0, 10.0, seed=3)
        series = ensemble_series(ensemble, 25)
        assert len(series) == 26
        assert series.dispersion[0] == 0.0
        assert series.p_m0[0] == 1.0
        assert np.all(series.norm == 1.0)

    @pytest.mark.parametrize("I0, k", [(1e308, 10.0), (-1e308, 10.0), (2.0**53, 0.5), (1e17, 5.0)])
    def test_kick_below_the_rounding_of_the_action_is_lost(self, I0, k):
        ensemble = ClassicalEnsemble.prepared(100, I0, 1.0, k, seed=1)
        with pytest.raises(LostKickError, match="below the rounding of the action"):
            ensemble_series(ensemble, 5)

    @pytest.mark.parametrize("I0, k", [(1e308, 0.0), (2.0**53, 1.0), (1e16, 2.0)])
    def test_kick_that_can_move_an_action_is_not_lost(self, I0, k):
        # 2**53 + 1 rounds back to 2**53, but 2**53 - 1 is exact
        ensemble = ClassicalEnsemble.prepared(100, I0, 1.0, k, seed=1)
        assert len(ensemble_series(ensemble, 5)) == 6


class TestWrapAngles:
    def test_uniform_angles_over_the_fast_range(self):
        rng = np.random.default_rng(21)
        _assert_wraps_like_mod(rng.uniform(0.0, _WRAP_LIMIT, 200_000))
        _assert_wraps_like_mod(rng.uniform(0.0, 2000.0, 200_000))

    def test_near_multiples_of_two_pi(self):
        k = np.random.default_rng(22).integers(1, 2**20, 20_000).astype(float)
        base = k * _TWO_PI
        below = np.nextafter(base, 0.0)
        above = np.nextafter(base, np.inf)
        near = [base, below, np.nextafter(below, 0.0), above, np.nextafter(above, np.inf)]
        _assert_wraps_like_mod(np.concatenate(near))

    def test_edges_of_the_fast_range(self):
        _assert_wraps_like_mod(np.array([np.nextafter(_WRAP_LIMIT, 0.0)]))
        _assert_wraps_like_mod(np.array([_WRAP_LIMIT]))
        _assert_wraps_like_mod(np.array([np.nextafter(_WRAP_LIMIT, 0.0), _WRAP_LIMIT]))

    def test_zeros_subnormals_and_two_pi(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        _assert_wraps_like_mod(
            np.array([0.0, -0.0, tiny, 1e-310, np.finfo(np.float64).tiny, _TWO_PI,
                      np.nextafter(_TWO_PI, 0.0), np.nextafter(_TWO_PI, 7.0)])
        )

    @pytest.mark.parametrize(
        "size", [1, 10, _MOD_BELOW - 1, _MOD_BELOW, _MOD_BELOW + 1, 5000]
    )
    def test_sizes_on_both_sides_of_the_mod_threshold(self, size):
        # below _MOD_BELOW angles the wrap is one np.mod call, above it the
        # reduction: the bits agree either way
        rng = np.random.default_rng(size)
        _assert_wraps_like_mod(rng.uniform(0.0, 2000.0, size))
        _assert_wraps_like_mod(rng.uniform(0.0, _WRAP_LIMIT, size))

    def test_floor_of_the_quotient_is_never_too_small(self):
        # so the wrap mends only a negative remainder
        assert Fraction(_INV_TWO_PI) > 1 / Fraction(_TWO_PI)

    @pytest.mark.parametrize(
        "angles",
        [[1.0, -3.0], [1.0, 1e308], [1.0, np.inf], [-np.inf, 1.0], [np.nan, 1.0],
         [1.0, -0.0]],
        ids=["negative", "huge", "inf", "minus_inf", "nan", "minus_zero"],
    )
    def test_other_angles_go_through_mod_with_its_warnings(self, angles):
        x = np.resize(np.array(angles), _MOD_BELOW)
        with warnings.catch_warnings(record=True) as wrapped:
            warnings.simplefilter("always")
            got = _wrap_angles(x.copy())
        with warnings.catch_warnings(record=True) as reference:
            warnings.simplefilter("always")
            expected = np.mod(x, _TWO_PI)
        assert np.array_equal(_bits(got), _bits(expected))
        assert [(w.category, str(w.message)) for w in wrapped] == [
            (w.category, str(w.message)) for w in reference
        ]

    @pytest.mark.parametrize("I0", [500.0, 0.0, 1e7], ids=["fast", "negative", "past_gate"])
    def test_series_matches_the_mod_loop(self, I0):
        ensemble = ClassicalEnsemble.prepared(2000, I0, 1.0, 10.0, seed=4)
        series = ensemble_series(ensemble, 60)
        dispersion, p_home = _reference_series(ensemble, 60)
        assert np.array_equal(series.j, np.arange(61))
        assert np.array_equal(series.dispersion, dispersion)
        assert np.array_equal(series.norm, np.ones(61))
        assert np.array_equal(series.p_m0, p_home)


def _block(particles: int, realizations: int, I0: float = 500.0) -> list[ClassicalEnsemble]:
    seeds = [np.random.SeedSequence(5, spawn_key=(0, r)) for r in range(realizations)]
    return [ClassicalEnsemble.prepared(particles, I0, 1.0, 10.0, seed=seed) for seed in seeds]


class TestRowBlocks:
    @pytest.mark.parametrize("realizations", [1, 3, 20])
    @pytest.mark.parametrize("particles", [1, 7, 9, 129, 1000])
    def test_each_row_is_its_realization_alone(self, particles, realizations):
        # block sizes fall on both sides of the np.mod threshold, and a row's
        # own size may fall on the other side from its block's
        rows = _block(particles, realizations)
        block = ClassicalEnsemble(
            np.concatenate([e.particles for e in rows]), 500.0, 1.0, 10.0, realizations
        )
        series = ensemble_series(block, 30)
        shape = (31,) if realizations == 1 else (realizations, 31)
        for column in ("dispersion", "norm", "p_m0"):
            assert getattr(series, column).shape == shape
        for r, alone in enumerate(rows):
            single = ensemble_series(alone, 30)
            dispersion, p_home = _reference_series(alone, 30)
            got = series if realizations == 1 else DispersionSeries(
                series.j, series.dispersion[r], series.norm[r], series.p_m0[r]
            )
            assert np.array_equal(_bits(got.dispersion), _bits(single.dispersion))
            assert np.array_equal(_bits(got.p_m0), _bits(single.p_m0))
            assert np.array_equal(_bits(single.dispersion), _bits(dispersion))
            assert np.array_equal(_bits(single.p_m0), _bits(p_home))
            assert np.array_equal(got.norm, np.ones(31))

    def test_rows_that_go_through_mod_keep_their_bits(self):
        # I0 = 0: angles go negative, so every block wraps with np.mod
        rows = _block(300, 4, I0=0.0)
        block = ClassicalEnsemble(np.concatenate([e.particles for e in rows]), 0.0, 1.0, 10.0, 4)
        series = ensemble_series(block, 20)
        for r, alone in enumerate(rows):
            single = ensemble_series(alone, 20)
            assert np.array_equal(_bits(series.dispersion[r]), _bits(single.dispersion))

    def test_diffusion_of_a_block_averages_its_rows(self):
        rows = _block(400, 3)
        block = ClassicalEnsemble(np.concatenate([e.particles for e in rows]), 500.0, 1.0, 10.0, 3)
        finals = [ensemble_series(e, 40).dispersion[-1] for e in rows]
        assert ensemble_diffusion(block, 40) == np.mean(finals) / 80.0

    def test_particles_stay_flat(self):
        block = ClassicalEnsemble(np.zeros(12), 0.0, 1.0, 10.0, 4)
        assert block.particles.shape == (12,)
        assert block.realizations == 4

    @pytest.mark.parametrize("realizations", [0, -1])
    def test_fewer_than_one_realization_rejected(self, realizations):
        with pytest.raises(ValueError, match="realizations"):
            ClassicalEnsemble(np.zeros(6), 0.0, 1.0, 10.0, realizations)

    @pytest.mark.parametrize("particles, realizations", [(7, 3), (10, 4), (1, 2)])
    def test_particle_count_must_divide_into_the_realizations(self, particles, realizations):
        with pytest.raises(ValueError, match="divide"):
            ClassicalEnsemble(np.zeros(particles), 0.0, 1.0, 10.0, realizations)
