"""Spans around the calls zenomap's runner, CLI and baselines make into each layer.

The tracer replaces module and class attributes with wrappers for the length
of one run and puts the originals back afterwards; nothing under ``src/`` is
edited. Spans are kept in memory, one list per thread, as
``(name id, start ns, end ns, parent index)`` and turned into arrays when the
run ends. A span's self time is its duration minus that of its direct
children on the same thread.

Spans named with a leading underscore are the tracer's own probes. They are
never reported, but they count as children, so the time they take is not
charged to the layer that encloses them.
"""

from __future__ import annotations

import importlib
import json
import threading
from time import perf_counter_ns

import numpy as np

OCCUPIED = 1e-32
# The occupancy probe costs about as much as a small kernel call, so it looks
# at the input of every OCCUPANCY_EVERY-th kick only (the same kicks each run).
OCCUPANCY_EVERY = 10


class _ThreadLog:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._patches: list = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
            self._local.log = log
        return log

    def span(self, name: str, fn, counter=None):
        """``fn`` wrapped so each call records a span; ``counter(*args)``
        returns ``(key, amount)`` pairs counted at the call."""
        nid = len(self.names)
        self.names.append(name)
        log_of = self._log

        def traced(*args, **kwargs):
            log = log_of()
            spans, stack = log.spans, log.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if counter is not None:
                for key, amount in counter(*args, **kwargs):
                    log.counts[key] = log.counts.get(key, 0) + amount
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self, zm) -> None:
        """Trace the layer boundaries of the ``zenomap`` package ``zm``."""
        cli = importlib.import_module(zm.__name__ + ".cli")
        runner, ke = zm.runner, zm.kick_engine
        for owner in (cli, runner):
            for attr in ("parse_config", "run_experiment", "write_csv"):
                if attr in owner.__dict__:
                    self.patch(owner, attr, self.span("runner." + attr, owner.__dict__[attr]))
        self.patch(cli, "main", self.span("cli.main", cli.main))
        self.patch(cli, "emit_chart", self.span("runner.emit_chart", cli.emit_chart))
        self.patch(runner, "render_csv", self.span("runner.render_csv", runner.render_csv))

        self.patch(runner, "build_kernel", self.span("kick_engine.build_kernel", runner.build_kernel))
        self.patch(runner, "step", self.span("kick_engine.step", runner.step))
        traced_kick = self.span("kick_engine.apply_kick", ke.apply_kick)
        probe = self.span("_probe", self._probe_kick)

        def kick(state, kernel):
            probe(state, kernel)
            return traced_kick(state, kernel)

        self.patch(ke, "apply_kick", kick)
        self.patch(ke, "apply_free", self.span("kick_engine.apply_free", ke.apply_free))
        qs = ke.QuantumState
        self.patch(qs, "norm_sq", self.span("kick_engine.norm_sq", qs.__dict__["norm_sq"]))

        self.patch(runner, "apply_measurement",
                   self.span("measurement.apply_measurement", runner.apply_measurement))
        pr = zm.measurement.PhaseRandomizer
        self.patch(pr, "phases", self.span(
            "measurement.phases", pr.__dict__["phases"],
            lambda rng, count: (("measurement.phase_draws", int(count)),)))
        self.patch(runner, "dispersion", self.span("observables.dispersion", runner.dispersion))

        ens = zm.classical.ClassicalEnsemble
        self.patch(ens, "prepared", classmethod(self.span(
            "classical.prepared", ens.__dict__["prepared"].__func__)))
        self.patch(runner, "ensemble_series", self.span(
            "classical.ensemble_series", runner.ensemble_series,
            lambda ensemble, steps, seed=None:
                (("classical.particle_steps", len(ensemble.particles) * int(steps)),)))
        self.patch(cli, "zeno_survival", self.span("two_level.zeno_survival", cli.zeno_survival))
        self.patch(cli, "monte_carlo_measured_evolve", self.span(
            "two_level.monte_carlo_measured_evolve", cli.monte_carlo_measured_evolve,
            lambda p0, phi, n, trials, seed: (("two_level.trial_segments", int(trials) * int(n)),)))

    def _probe_kick(self, state, kernel) -> None:
        counts = self._log().counts
        counts["_window_size"] = state.window.size
        counts["_d_max"] = kernel.d_max
        if state.time_index % OCCUPANCY_EVERY:
            return
        a = state.amplitudes
        occupied = np.count_nonzero(a.real * a.real + a.imag * a.imag >= OCCUPIED)
        counts["_occupied_sum"] = counts.get("_occupied_sum", 0) + occupied / a.size
        counts["_occupied_n"] = counts.get("_occupied_n", 0) + 1

    def arrays(self) -> list[np.ndarray]:
        """One ``(n, 5)`` int64 array per thread, rows
        ``name id, start ns, end ns, parent index, self ns``."""
        out = []
        for log in self._logs:
            if not log.spans:
                continue
            a = np.array(log.spans, dtype=np.int64).reshape(-1, 4)
            dur = a[:, 2] - a[:, 1]
            child = np.zeros(len(a), dtype=np.int64)
            nested = a[:, 3] >= 0
            np.add.at(child, a[nested, 3], dur[nested])
            out.append(np.column_stack([a, dur - child]))
        return out

    def counts(self) -> dict[str, float]:
        total: dict[str, float] = {}
        for log in self._logs:
            for key, value in log.counts.items():
                if key in ("_window_size", "_d_max"):
                    total[key] = value
                else:
                    total[key] = total.get(key, 0) + value
        return total

    def dump(self, path: str) -> None:
        """Write every span as JSON: the names, then one list per thread of
        ``[name id, start ns, end ns, parent index, self ns]``."""
        doc = {"names": self.names, "threads": [a.tolist() for a in self.arrays()]}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run, computed from its spans and counts.

    ``.us_p50``/``.us_p99`` are per-call percentiles; ``.ms``/``.s`` without
    a percentile are totals over the run. A layer the workload never calls
    reports 0.
    """
    threads = tracer.arrays()
    ids: dict[str, list[int]] = {}
    for nid, name in enumerate(tracer.names):
        ids.setdefault(name, []).append(nid)
    rows = {name: np.concatenate([a[np.isin(a[:, 0], nids)] for a in threads] or
                                 [np.zeros((0, 5), dtype=np.int64)])
            for name, nids in ids.items()}

    def calls(name):
        return len(rows[name])

    def pct_us(name, q, column=None):
        r = rows[name]
        values = r[:, 4] if column == "self" else r[:, 2] - r[:, 1]
        return float(np.percentile(values, q)) / 1e3 if len(r) else 0.0

    def total_s(name, column=None):
        r = rows[name]
        values = r[:, 4] if column == "self" else r[:, 2] - r[:, 1]
        return float(values.sum()) / 1e9

    counts = tracer.counts()
    n = int(counts.get("_window_size", 0))
    d_max = int(counts.get("_d_max", 0))
    width = 2 * d_max + 1 if n else 0
    # Multiply-adds of the "same"-mode convolution, exact at the window edges:
    # output i sums the kernel taps that land inside the window.
    taps = sum(min(i + d_max, n - 1) - max(i - d_max, 0) + 1 for i in range(n))
    occupied_n = counts.get("_occupied_n", 0)
    loop_self_ns, pool_threads = _loop_self(threads, ids["runner.run_experiment"])

    return {
        "kick_engine.apply_kick.us_p50": pct_us("kick_engine.apply_kick", 50),
        "kick_engine.apply_kick.us_p99": pct_us("kick_engine.apply_kick", 99),
        "kick_engine.apply_kick.calls": calls("kick_engine.apply_kick"),
        "kick_engine.apply_kick.self_s": total_s("kick_engine.apply_kick", "self"),
        "kick_engine.apply_free.us_p50": pct_us("kick_engine.apply_free", 50),
        "kick_engine.step.self_us_p50": pct_us("kick_engine.step", 50, "self"),
        "kick_engine.norm_sq.us_p50": pct_us("kick_engine.norm_sq", 50),
        "kick_engine.build_kernel.ms": total_s("kick_engine.build_kernel") * 1e3,
        "kick_engine.d_max": d_max,
        # Computed from array sizes, not measured: a complex multiply-add is
        # 8 flops and the free-flight product 6 per state. Bytes count each
        # complex128 array the kick and the flight read or write once
        # (np.convolve promotes the real kernel to complex).
        "kick_engine.flops_per_kick": 8 * taps + 6 * n,
        "kick_engine.bytes_per_kick": 16 * (2 * n + width) + 16 * 3 * n,
        "kick_engine.occupied_bin_frac":
            counts.get("_occupied_sum", 0.0) / occupied_n if occupied_n else 0.0,
        "measurement.apply_measurement.us_p50": pct_us("measurement.apply_measurement", 50),
        "measurement.apply_measurement.us_p99": pct_us("measurement.apply_measurement", 99),
        "measurement.apply_measurement.calls": calls("measurement.apply_measurement"),
        "measurement.apply_measurement.self_s":
            total_s("measurement.apply_measurement", "self"),
        "measurement.phases.us_p50": pct_us("measurement.phases", 50),
        "measurement.phase_draws": int(counts.get("measurement.phase_draws", 0)),
        "observables.dispersion.us_p50": pct_us("observables.dispersion", 50),
        "observables.dispersion.calls": calls("observables.dispersion"),
        "runner.parse_config.ms": total_s("runner.parse_config") * 1e3,
        "runner.run_experiment.s": total_s("runner.run_experiment"),
        "runner.loop_self_s": loop_self_ns / 1e9,
        "runner.render_csv.ms": total_s("runner.render_csv") * 1e3,
        "runner.write_csv.ms": total_s("runner.write_csv") * 1e3,
        "runner.emit_chart.ms": total_s("runner.emit_chart") * 1e3,
        "runner.threads": pool_threads,
        "classical.prepared.ms": total_s("classical.prepared") * 1e3,
        "classical.ensemble_series.ms": total_s("classical.ensemble_series") * 1e3,
        "classical.particle_steps": int(counts.get("classical.particle_steps", 0)),
        "two_level.monte_carlo_measured_evolve.s":
            total_s("two_level.monte_carlo_measured_evolve"),
        "two_level.zeno_survival.us": total_s("two_level.zeno_survival") * 1e6,
        "two_level.trial_segments": int(counts.get("two_level.trial_segments", 0)),
        "cli.main.self_ms": total_s("cli.main", "self") * 1e3,
    }


def _loop_self(threads: list[np.ndarray], run_ids: list[int]) -> tuple[int, int]:
    """Glue time inside ``run_experiment`` that no child span covers.

    Summed per thread. On the thread that called ``run_experiment`` it is the
    span's self time when the realizations ran there. A pool thread counts
    the stretch from its first to its last top-level span inside the call,
    less those spans. A caller that only waits for the pool counts nothing.
    Returns the glue in ns and the number of threads that did the work.
    """
    glue = workers = 0
    for t, a in enumerate(threads):
        for idx in np.nonzero(np.isin(a[:, 0], run_ids))[0]:
            start, end = a[idx, 1], a[idx, 2]
            if np.any(a[:, 3] == idx):
                glue += int(a[idx, 4])
                workers += 1
            for u, b in enumerate(threads):
                if u == t:
                    continue
                top = b[(b[:, 3] == -1) & (b[:, 1] >= start) & (b[:, 2] <= end)]
                if len(top):
                    glue += int(top[:, 2].max() - top[:, 1].min() - (top[:, 2] - top[:, 1]).sum())
                    workers += 1
    return glue, workers
