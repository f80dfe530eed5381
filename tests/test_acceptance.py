"""Acceptance suite.

One test per acceptance criterion; every test prints a single PASS/FAIL line
(visible with ``pytest -s`` or in the captured output of failing tests).

Classical baseline references (criterion 8). Quasilinear theory gives the
standard map's rate ``k^2/(4 tau)`` only for uncorrelated angles. At K = 10 the
map's kick-to-kick angle correlations lower its long-time rate to the
first-order Rechester-White value ``(k^2/4 tau) R(K)`` with
``R = 1 - 2 J2 - 2 J1^2 + 2 J2^2 + 2 J3^2`` (Rechester & White, PRL 44, 1586,
1980), about 0.62 of quasilinear; the 200-step ensemble estimate is checked
against that, and the long-time classical slope against ``2 tau`` times it.
The measured quantum runs see fresh phases every kick, so their slope is
compared with the classical ensemble's uncorrelated rate: its first-kick
dispersion from uniform angles.
"""

import math
import time

import numpy as np
from scipy.special import jv

from zenomap import (
    BasisWindow,
    ProbabilityPair,
    QuantumState,
    SpectrumModel,
    build_kernel,
    detect_break_time,
    diffusion_slope,
    ensemble_diffusion,
    fit_localization_length,
    step,
    zeno_survival,
)
from zenomap.classical import ClassicalEnsemble
from zenomap.runner import ExperimentConfig, render_csv, run_experiment
from zenomap.two_level import monte_carlo_measured_evolve

from conftest import moving_average
from reference import adjoint_step, copied, offsets


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_zeno_limit():
    t0 = time.perf_counter()
    ok = True
    notes = []
    for n in (16, 64, 256):
        closed = zeno_survival(n)
        exp_form = 0.5 * (1.0 - math.exp(-math.pi**2 / (2.0 * n)))
        leading = math.pi**2 / (4.0 * n)
        ok &= abs(closed.p2 - exp_form) / exp_form < 0.05
        ok &= abs(closed.p2 - leading) / leading < 0.15
        mc = monte_carlo_measured_evolve(
            ProbabilityPair(1.0, 0.0), math.pi / (2.0 * n), n, 100_000, seed=2024 + n
        )
        se = math.sqrt(closed.p2 * (1.0 - closed.p2) / 100_000)
        pull = abs(mc.p2 - closed.p2) / se
        ok &= pull < 3.0
        notes.append(f"n={n}: p2={closed.p2:.5f} mc pull={pull:.2f}sigma")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report(1, ok, "; ".join(notes) + f"; elapsed={elapsed:.2f}s")


def test_criterion_02_kernel_identities():
    ok = True
    notes = []
    for k in (1.0, 5.0, 10.0):
        kernel = build_kernel(k)
        d = offsets(kernel).astype(float)
        w = kernel.coefficients**2
        total = abs(float(np.sum(w)) - 1.0)
        second = abs(float(d**2 @ w) - k * k / 2.0)
        first = abs(float(d @ w))
        ok &= total < 1e-12 and second < 1e-10 and first < 1e-12
        notes.append(f"k={k:g}: |sum-1|={total:.1e} |m2-k^2/2|={second:.1e} |m1|={first:.1e}")
    _report(2, ok, "; ".join(notes))


def test_criterion_03_anti_zeno_diffusion_rate(curve_d_record):
    slope = diffusion_slope(curve_d_record.aggregate, 0, 1000)
    ok = abs(slope - 50.0) / 50.0 < 0.05
    _report(3, ok, f"mean slope over 20 seeds = {slope:.3f} (target 50 +- 5%)")


def test_criterion_04_quantum_suppression(curve_a):
    series = curve_a["series"]
    late_slope = diffusion_slope(series, 500, 1000)
    late_mean = float(np.mean(series.dispersion[series.j >= 500]))
    estimate = detect_break_time(series, window=25)
    ok = abs(late_slope) < 0.10 * 50.0
    ok &= 1250.0 / 3.0 < late_mean < 1250.0 * 3.0
    ok &= (not estimate.delocalized) and 25 <= estimate.j <= 100
    _report(
        4,
        ok,
        f"late slope={late_slope:.3f} (<5), late mean={late_mean:.0f} "
        f"(417..3750), break time={estimate.j} (25..100)",
    )


def test_criterion_05_localization_length(curve_a):
    fit = fit_localization_length(curve_a["profile"], m0=500)
    ok = 25.0 < fit.length < 100.0
    _report(5, ok, f"fitted length={fit.length:.1f} (target 50, factor 2)")


def test_criterion_06_staircase(curve_c_record, curve_a):
    c = curve_c_record.aggregate
    a = curve_a["series"]
    final_ratio = float(c.dispersion[-1]) / float(a.dispersion[-1])
    # Growth bursts: the 100 kicks after each decoherence event. The initial
    # delta state is phase-fresh, so preparation at j=0 counts as the zeroth
    # event alongside the scheduled measurements at 200, 400, 600, 800.
    events = [0, 200, 400, 600, 800]
    total_growth = float(c.dispersion[-1] - c.dispersion[0])
    burst_growth = sum(
        float(c.dispersion[min(e + 100, 1000)] - c.dispersion[e]) for e in events
    )
    fraction = burst_growth / total_growth
    ok = final_ratio >= 2.0 and fraction >= 0.70
    _report(
        6,
        ok,
        f"dispersion ratio at j=1000: {final_ratio:.2f} (>=2); "
        f"burst growth fraction: {fraction:.1%} (>=70%)",
    )


def test_criterion_07_initial_state_only(curve_b_record, curve_a):
    b = curve_b_record.aggregate
    smoothed = moving_average(b.dispersion, 50)
    checkpoints = smoothed[0:601:50]
    increasing = bool(np.all(np.diff(checkpoints) > 0))
    a_late_mean = float(np.mean(curve_a["series"].dispersion[curve_a["series"].j >= 500]))
    b_at_600 = float(smoothed[551])  # trailing 50-kick window ending at j=600
    exceeds = b_at_600 > a_late_mean
    early = diffusion_slope(b, 0, 300)
    late = diffusion_slope(b, 600, 1000)
    slowed = late < 0.5 * early
    ok = increasing and exceeds and slowed
    _report(
        7,
        ok,
        f"smoothed increasing on [0,600]: {increasing}; "
        f"b(600)={b_at_600:.0f} vs unmeasured mean {a_late_mean:.0f}; "
        f"slopes early={early:.2f} late={late:.2f} (late < half early: {slowed})",
    )


def test_criterion_08_classical_baseline(curve_d_record):
    k, tau = 10.0, 1.0
    K = k * tau
    b_ql = k * k / (4.0 * tau)
    correlation = (
        1.0 - 2.0 * jv(2, K) - 2.0 * jv(1, K) ** 2 + 2.0 * jv(2, K) ** 2 + 2.0 * jv(3, K) ** 2
    )
    b_rw = b_ql * correlation
    # clause 1: 10^4 particles, 200 steps, estimate vs Rechester-White rate +- 10%
    ensemble = ClassicalEnsemble.prepared(10_000, 500.0, tau, k, seed=11)
    estimate = ensemble_diffusion(ensemble, 200)
    clause1 = abs(estimate - b_rw) / b_rw <= 0.10
    # clause 2: quantum every-kick slope vs the classical uncorrelated rate
    # (first-kick dispersion from uniform angles) within joint 2 sigma, and the
    # classical long-time slope vs 2 tau B_RW +- 10%
    q_slopes = diffusion_slope(curve_d_record.realizations, 0, 1000)  # one per realization
    q_mean = float(np.mean(q_slopes))
    q_sem = float(np.std(q_slopes, ddof=1) / math.sqrt(q_slopes.size))
    classical_record = run_experiment(
        ExperimentConfig(
            experiment="classical", particles=500, n_kicks=200, seed=17,
            realizations=20,
        )
    )
    c_runs = classical_record.realizations
    c_rates = c_runs.dispersion[:, 1] - c_runs.dispersion[:, 0]
    c_mean = float(np.mean(c_rates))
    c_sem = float(np.std(c_rates, ddof=1) / math.sqrt(c_rates.size))
    joint = math.sqrt(q_sem**2 + c_sem**2)
    c_slope = float(np.mean(diffusion_slope(c_runs, 0, 200)))
    c_slope_ref = 2.0 * tau * b_rw
    clause2 = abs(q_mean - c_mean) <= 2.0 * joint
    clause2 &= abs(c_slope - c_slope_ref) / c_slope_ref <= 0.10
    ok = clause1 and clause2
    _report(
        8,
        ok,
        f"B={estimate:.2f} vs quasilinear {b_ql:g} (ratio {estimate / b_ql:.3f}), "
        f"vs Rechester-White {b_rw:.3f} (ratio {estimate / b_rw:.3f}, tolerance 10%); "
        f"quantum slope {q_mean:.2f}+-{q_sem:.2f} vs classical first kick "
        f"{c_mean:.2f}+-{c_sem:.2f} (gap {abs(q_mean - c_mean):.2f}, 2sigma={2 * joint:.2f}); "
        f"classical slope {c_slope:.2f} vs 2 tau B_RW {c_slope_ref:.2f} "
        f"(ratio {c_slope / c_slope_ref:.3f}, tolerance 10%)",
    )


def test_criterion_09_numerical_hygiene(curve_a, curve_d_record, monkeypatch):
    drift_a = float(np.max(np.abs(curve_a["series"].norm - 1.0)))
    # every realization's norm, since averaging could hide one realization's drift
    drift_d = float(np.max(np.abs(curve_d_record.realizations.norm - 1.0)))
    norms_ok = drift_a < 1e-8 and drift_d < 1e-8

    config = ExperimentConfig(
        experiment="kicked", n_kicks=50, window_halfwidth=400, seed=5,
        measurement_mode="all", realizations=3,
    )
    # kicked realizations run on the calling thread; classical blocks start
    # helper threads, so that pair compares a threaded run with a serial one
    classical = ExperimentConfig("classical", particles=300, n_kicks=30, realizations=5)
    monkeypatch.setenv("ZENO_MAP_THREADS", "1")
    serial = render_csv(run_experiment(config).aggregate)
    repeat = render_csv(run_experiment(config).aggregate)
    classical_serial = render_csv(run_experiment(classical).aggregate)
    monkeypatch.setenv("ZENO_MAP_THREADS", "4")
    threaded = render_csv(run_experiment(config).aggregate)
    classical_threaded = render_csv(run_experiment(classical).aggregate)
    csv_ok = serial == threaded == repeat and classical_serial == classical_threaded

    window = BasisWindow.centered(500, 600)
    kernel = build_kernel(10.0)
    spectrum = SpectrumModel.rotator(window, 1.0)
    initial = QuantumState.delta(window)
    state = copied(initial)
    for _ in range(100):
        step(state, kernel, spectrum)
    for _ in range(100):
        state = adjoint_step(state, kernel, spectrum)
    fidelity = abs(np.vdot(initial.amplitudes, state.amplitudes)) ** 2
    reversal_ok = fidelity > 1.0 - 1e-8

    ok = norms_ok and csv_ok and reversal_ok
    _report(
        9,
        ok,
        f"norm drift a={drift_a:.1e} d={drift_d:.1e} (<1e-8); "
        f"csv identical across thread counts: {csv_ok}; "
        f"reversal 1-F={1.0 - fidelity:.1e} (<1e-8)",
    )


def test_criterion_10_random_spectrum_variant(random_curves):
    a, b, c, d = (random_curves[key] for key in "abcd")
    at_end = {key: float(random_curves[key].dispersion[-1]) for key in "acd"}
    ordering = at_end["d"] > at_end["c"] > at_end["a"]
    sm_a = moving_average(a.dispersion, 50)
    sm_b = moving_average(b.dispersion, 50)
    active = slice(100, 552)  # smoothed windows covering j in [100, 600]
    b_exceeds_a = bool(np.all(sm_b[active] > sm_a[active]))
    ok = ordering and b_exceeds_a
    _report(
        10,
        ok,
        f"j=1000 dispersion d={at_end['d']:.0f} > c={at_end['c']:.0f} > "
        f"a={at_end['a']:.0f}: {ordering}; b above a on [100,600]: {b_exceeds_a}",
    )
