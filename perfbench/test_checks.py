"""The benchmark's own tests: bad outputs must count as failures.

Run from the root of a checkout: python3 -m pytest perfbench -q
"""

import math
import os
import sys
import threading
import time

import numpy as np

import checks
import tracer
import workloads

K = workloads.K
N = workloads.N_KICKS


def _diffusing(rows=20, kicks=N, rate=0.5 * K * K, seed=0):
    """Dispersion rows that grow at ``rate`` per kick with realistic noise."""
    rng = np.random.default_rng(seed)
    j = np.arange(kicks + 1)
    d = rate * j * (1.0 + 0.05 * rng.standard_normal((rows, kicks + 1)))
    d[:, 0] = 0.0
    d[:, 1] = 0.5 * K * K
    return d


def _csv(header, values):
    lines = [header] + [",".join(repr(float(x)) for x in row) for row in values]
    return "\n".join(lines) + "\n"


def _kicked_columns():
    disp = _diffusing()
    norms = np.ones_like(disp)
    p_m0 = np.full_like(disp, 0.01)
    return [disp, norms, p_m0]


def _kicked_csv(columns):
    means = [np.mean(c, axis=0) for c in columns]
    return _csv(workloads.KICKED_HEADER, np.column_stack([np.arange(N + 1)] + means))


def test_norm_drift_fails():
    norms = np.ones((20, N + 1))
    assert checks.check_norms(norms) == []
    norms[7, 400:] += 3e-10
    assert checks.check_norms(norms)
    norms[7, 400:] = np.nan
    assert checks.check_norms(norms)


def test_dispersion_off_rate_fails():
    assert checks.check_diffusion_rate(_diffusing(), K) == []
    assert checks.check_diffusion_rate(_diffusing(rate=0.45 * K * K), K)
    # a single realization has no standard error
    assert checks.check_diffusion_rate(_diffusing(rows=1), K)


def test_first_kick_off_k2_over_2_fails():
    d = _diffusing()
    assert checks.check_first_kick(d, K) == []
    d[3, 1] += 1e-5
    assert checks.check_first_kick(d, K)


def test_truncated_or_wrong_csv_fails():
    columns = _kicked_columns()
    text = _kicked_csv(columns)
    assert checks.check_kicked_csv(text, workloads.KICKED_HEADER, columns, N) == []
    lines = text.split("\n")
    truncated = "\n".join(lines[:-10]) + "\n"
    assert checks.check_kicked_csv(truncated, workloads.KICKED_HEADER, columns, N)
    cut_mid_line = text[: len(text) // 2]
    assert checks.check_kicked_csv(cut_mid_line, workloads.KICKED_HEADER, columns, N)
    renamed = text.replace("p_m0", "p0", 1)
    assert checks.check_kicked_csv(renamed, workloads.KICKED_HEADER, columns, N)
    columns[0] = columns[0] * 1.001
    assert checks.check_kicked_csv(text, workloads.KICKED_HEADER, columns, N)


def test_nonzero_exit_code_fails():
    good = {"check_failures": []}
    assert checks.rep_failures(0, good) == []
    assert checks.rep_failures(3, good)
    assert checks.rep_failures("timeout", None)
    assert checks.rep_failures(0, None)
    assert checks.rep_failures(0, {"check_failures": ["norm drift"]})


def test_svg_must_parse_and_plot_every_kick():
    svg = ('<svg xmlns="http://www.w3.org/2000/svg"><polyline points="'
           + " ".join(f"{i},{i}" for i in range(N + 1)) + '"/></svg>\n')
    assert checks.check_svg(svg, N + 1) == []
    assert checks.check_svg(svg[:-20], N + 1)
    assert checks.check_svg(svg, N + 2)


def test_zeno_and_classical_oracles():
    n = workloads.ZENO_N
    exact = 0.5 * (1.0 - math.cos(math.pi / n) ** n)
    se = 3e-4
    row = [n, 1 - exact, exact, 0.0, 0.0, 1 - exact - se, exact + se, se]
    assert checks.check_zeno_csv(_csv(workloads.ZENO_HEADER, [row]), workloads.ZENO_HEADER, n) == []
    row[5], row[6] = 1 - exact - 5 * se, exact + 5 * se
    assert checks.check_zeno_csv(_csv(workloads.ZENO_HEADER, [row]), workloads.ZENO_HEADER, n)

    steps, samples = 200, 200_000
    values = np.column_stack([np.arange(steps + 1), np.full(steps + 1, 0.5 * K * K),
                              np.ones(steps + 1), np.zeros(steps + 1)])
    text = _csv(workloads.KICKED_HEADER, values)
    assert checks.check_classical_csv(text, workloads.KICKED_HEADER, steps, samples, K) == []
    values[1, 1] *= 1.01
    text = _csv(workloads.KICKED_HEADER, values)
    assert checks.check_classical_csv(text, workloads.KICKED_HEADER, steps, samples, K)


def test_counts_must_repeat_and_match():
    expected = {"measurement.phase_draws": 80}
    same = [{"measurement.phase_draws": 80, "kick_engine.d_max": 32}] * 2
    assert checks.check_counts(same, expected) == []
    drifted = [same[0], {"measurement.phase_draws": 80, "kick_engine.d_max": 31}]
    assert checks.check_counts(drifted, expected)
    assert checks.check_counts([{"measurement.phase_draws": 79}], expected)


def test_self_time_is_per_thread():
    t = tracer.Tracer()

    def leaf():
        time.sleep(0.02)

    traced_leaf = t.span("leaf", leaf)

    def outer():
        time.sleep(0.01)
        traced_leaf()

    traced_outer = t.span("outer", outer)
    worker = threading.Thread(target=traced_outer)
    worker.start()
    traced_outer()
    worker.join(timeout=10)
    assert not worker.is_alive()
    arrays = t.arrays()
    assert len(arrays) == 2
    for a in arrays:
        outer_row = a[a[:, 0] == 1][0]
        leaf_row = a[a[:, 0] == 0][0]
        assert leaf_row[3] == np.nonzero(a[:, 0] == 1)[0][0]
        assert outer_row[4] == (outer_row[2] - outer_row[1]) - (leaf_row[2] - leaf_row[1])
        assert 5e6 < outer_row[4] < 20e6


def test_tracer_restores_every_patch():
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    import zenomap
    import zenomap.cli

    before = {(o, a): o.__dict__[a] for o, a in [
        (zenomap.cli, "main"), (zenomap.kick_engine, "apply_kick"),
        (zenomap.classical.ClassicalEnsemble, "prepared"),
        (zenomap.kick_engine.QuantumState, "norm_sq")]}
    t = tracer.Tracer()
    t.install(zenomap)
    assert all(o.__dict__[a] is not f for (o, a), f in before.items())
    t.uninstall()
    assert all(o.__dict__[a] is f for (o, a), f in before.items())
