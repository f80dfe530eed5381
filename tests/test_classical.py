"""Standard-map ensemble: map properties and the diffusion estimator."""

import math

import numpy as np
import pytest

from zenomap import (
    ClassicalEnsemble,
    ClassicalParticle,
    K_CRITICAL,
    classical_step,
    ensemble_diffusion,
    ensemble_series,
)


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
