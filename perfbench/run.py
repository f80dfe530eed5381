"""zenomap benchmark: end-to-end metrics untraced, per-layer metrics traced.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload curve_d --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 30

Every sample is a fresh ``python3 perfbench/worker.py`` process that imports
zenomap from ``src/`` of this checkout. ``--trace 0`` runs set-up probes and
then closed-loop runs of the workload until ``--seconds`` are spent, and
reports end-to-end medians. ``--trace 1`` alternates untraced and
traced runs and adds one single-threaded run, and reports per-layer metrics,
``runner.pool_speedup`` and ``trace_overhead_frac``. ``--workload all`` does
the traced run of every workload and prints all of it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
describe the machine and every metric with its percentiles and sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench_work")
THREADS_ENV = "ZENO_MAP_THREADS"
SETUP_PROBES = 12
MIN_RUNS = 3
# Median wall time of calibrate.py on the 2-vCPU machine the benchmark was
# written on; end-to-end times are reported at the speed where it takes this.
CALIBRATION_REF_S = 1.35
SPEED_NORMALIZED = ("wall_s", "cpu_s", "setup_s")
RUN_TIMEOUT_S = 120.0
TOTAL_LIMIT_S = 170.0

TIME_UNITS = ("s", "ms", "us")
EXACT_UNITS = ("count", "flop", "B")  # counted or computed, never timed
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
LAYER_UNITS = {
    "us_p50": "us", "us_p99": "us", "self_us_p50": "us", "calls": "count",
    "self_s": "s", "ms": "ms", "s": "s", "us": "us", "self_ms": "ms",
    "d_max": "count", "flops_per_kick": "flop", "bytes_per_kick": "B",
    "occupied_bin_frac": "ratio", "phase_draws": "count", "loop_self_s": "s",
    "threads": "count", "pool_speedup": "ratio", "particle_steps": "count",
    "trial_segments": "count", "trace_overhead_frac": "ratio",
}


def layer_unit(name: str) -> str:
    return LAYER_UNITS[name.rsplit(".", 1)[-1]]


# ---------------------------------------------------------------------------
# machine record

def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def proc_sample() -> dict:
    """Load average and steal ticks, read at the start and end of a run."""
    fields = _read("/proc/stat").split("\n", 1)[0].split()
    steal = int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None
    load = _read("/proc/loadavg").split()[:3]
    return {"time": time.monotonic(), "loadavg": [float(x) for x in load],
            "steal_ticks": steal}


def steal_share(before: dict, after: dict) -> float | None:
    """Share of all CPUs' time the hypervisor took between two samples."""
    if before["steal_ticks"] is None or after["steal_ticks"] is None:
        return None
    ticks = after["steal_ticks"] - before["steal_ticks"]
    capacity = (after["time"] - before["time"]) * os.sysconf("SC_CLK_TCK") * os.cpu_count()
    return ticks / capacity if capacity > 0 else None


def _cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, entry, "level")).strip()
        kind = _read(os.path.join(base, entry, "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = _read(os.path.join(base, entry, "size")).strip()
    return sizes


def _versions() -> dict:
    # the workers run on this interpreter, so they load these same versions
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _source_id() -> dict:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    h.update(handle.read())
    commit = "not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {"git_commit": commit, "src_sha256": h.hexdigest()[:16]}


def machine_record(threads: int, seed: int) -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        **_versions(),
        **_source_id(),
        "thread_budget": threads,
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# samples

class Runner:
    """Starts worker processes for one workload and collects their results."""

    def __init__(self, workload: str, seed: int, threads: int) -> None:
        self.workload = workload
        self.seed = seed
        self.threads = threads
        self.started = time.monotonic()
        os.makedirs(WORK, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
        self.indir = os.path.join(self.dir, "in")
        os.makedirs(self.indir)
        workloads.write_inputs(workload, seed, self.indir)
        self.count = 0
        self.attempted = 0
        self.failures: list[str] = []

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def remaining(self) -> float:
        return TOTAL_LIMIT_S - (time.monotonic() - self.started)

    def sample(self, mode: str, threads: int | None = None, spans: str | None = None,
               counted: bool = True):
        """Run one worker; return its result, or None when it failed."""
        self.count += 1
        outdir = os.path.join(self.dir, f"out{self.count}")
        os.makedirs(outdir)
        result_path = os.path.join(self.dir, f"result{self.count}.json")
        spec = {"root": ROOT, "workload": self.workload, "seed": self.seed,
                "mode": mode, "indir": self.indir, "outdir": outdir,
                "result": result_path, "spans": spans}
        env = dict(os.environ)
        env[THREADS_ENV] = str(threads or self.threads)
        env.pop("PYTHONPATH", None)
        timeout = min(RUN_TIMEOUT_S, self.remaining())
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=max(timeout, 1.0))
            code, err = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            code, err = "timeout", ""
        result = None
        if os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as handle:
                result = json.load(handle)
        shutil.rmtree(outdir, ignore_errors=True)
        failures = checks.rep_failures(code, result)
        if counted:
            self.attempted += 1
        if failures:
            tail = err.strip().splitlines()[-1:] if err else []
            self.failures.append(f"{mode} run {self.count}: {'; '.join(failures + tail)}")
            return None
        return result

    def calibrate(self):
        """Time calibrate.py in a fresh process; its wall time, or None."""
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "calibrate.py")], cwd=ROOT,
                capture_output=True, text=True, timeout=max(min(60.0, self.remaining()), 1.0))
        except subprocess.TimeoutExpired:
            proc = None
        if proc is None or proc.returncode != 0:
            self.failures.append("calibration run failed")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])["wall_s"]


def tail_percentile(values: list[float]):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def describe(name: str, unit: str, values: list[float]) -> str:
    if not values:
        return f"{name} [{unit}] no samples"
    line = f"{name} [{unit}] median={statistics.median(values):.6g} n={len(values)}"
    tail = tail_percentile(values)
    if tail is None:
        line += " tail=n/a (fewer than 11 samples)"
    else:
        line += f" p{tail[0]:.0f}={tail[1]:.6g}"
    if len(values) > 1:
        line += f" min={min(values):.6g} max={max(values):.6g}"
    return line


def untraced(r: Runner, seconds: float) -> tuple[dict, list[str]]:
    """Closed-loop runs until ``seconds`` are spent.

    Each run follows a set-up probe and a calibration. Probes are spread over
    the whole run, and topped up to SETUP_PROBES at the end, so that the
    set-up median covers the same stretch of time as the run median. The
    times are reported at the reference speed: each median is divided by the
    median calibration time over CALIBRATION_REF_S.
    """
    samples = {name: [] for name, _ in END_TO_END}
    setup = samples["setup_s"]
    calibrations: list[float] = []

    def probe() -> None:
        res = r.sample("probe")
        if res is not None:
            setup.append(res["setup_s"])

    digests = set()
    start = time.monotonic()
    took: list[float] = []
    while len(took) < MIN_RUNS or time.monotonic() - start + statistics.median(took) <= seconds:
        if took and r.remaining() < 2 * max(took):
            break
        probe()
        t = time.monotonic()
        cal = r.calibrate()
        if cal is not None:
            calibrations.append(cal)
        res = r.sample("run")
        took.append(time.monotonic() - t)
        if res is None:
            continue
        digests.add(res["output_digest"])
        for name, _ in END_TO_END:
            samples[name].append(res[name])
    while len(setup) < SETUP_PROBES and r.remaining() > 10.0:
        probe()
    if len(digests) > 1:
        r.failures.append("outputs of one seed differ between runs")
    lines = ["measured " + describe(name, unit, samples[name]) for name, unit in END_TO_END]
    lines.append("calibration " + describe("calibrate.wall_s", "s", calibrations))
    values = {name: statistics.median(v) for name, v in samples.items() if v}
    if not calibrations:
        return {}, lines
    speed = statistics.median(calibrations) / CALIBRATION_REF_S
    for name in SPEED_NORMALIZED:
        if name in values:
            values[name] /= speed
    lines += [f"{name} [{unit}] {values[name]:.6g} (median"
              + (f" at reference speed; this run took {speed:.4g}x the reference time)"
                 if name in SPEED_NORMALIZED else ")")
              for name, unit in END_TO_END if name in values]
    return values, lines


def traced(r: Runner, seconds: float, spans: str) -> tuple[dict, list[str]]:
    """Untraced, traced and single-threaded runs, alternating.

    The first four runs are always made; after them untraced and traced runs
    alternate while ``seconds`` last.
    """
    plain: list[dict] = []
    spanned: list[dict] = []
    single = None
    start = time.monotonic()
    took: list[float] = []
    plan = ["run", "trace", "single", "trace"]
    while plan or time.monotonic() - start + statistics.median(took) <= seconds:
        if took and r.remaining() < 2 * max(took):
            break
        step = plan.pop(0) if plan else ("run", "trace")[len(took) % 2]
        t = time.monotonic()
        if step == "single":
            single = r.sample("run", threads=1)
        elif step == "trace":
            spanned.append(r.sample("trace", spans=spans))
        else:
            plain.append(r.sample("run"))
        took.append(time.monotonic() - t)
    reference = r.sample("reference") if r.remaining() > 30.0 else None
    plain = [res for res in plain if res is not None]
    spanned = [res for res in spanned if res is not None]
    outputs = plain + spanned + ([single] if single else [])
    if len({res["output_digest"] for res in outputs}) > 1:
        r.failures.append("outputs differ between traced, untraced or 1-thread runs")
    if spanned:
        count_keys = [k for k in spanned[0]["layers"] if layer_unit(k) in EXACT_UNITS]
        r.failures += checks.check_counts(
            [{k: res["layers"][k] for k in count_keys} for res in spanned],
            workloads.WORKLOADS[r.workload].expected_counts)

    metrics = {}
    lines = []
    for key in spanned[0]["layers"] if spanned else []:
        values = [res["layers"][key] for res in spanned]
        unit = layer_unit(key)
        # Exact values are checked to repeat. A time that is 0 belongs to a
        # layer the workload never calls: it is taken from the reference run.
        note = " (computed from array sizes)" if unit in ("flop", "B") else ""
        if unit in TIME_UNITS and not any(values) and reference is not None:
            values = [reference["layers"][key]]
            note = " (reference input)"
        metrics[key] = values[0] if unit in EXACT_UNITS else statistics.median(values)
        lines.append(describe(key, unit, values) + note)
    if plain and spanned:
        plain_wall = statistics.median([res["wall_s"] for res in plain])
        traced_wall = statistics.median([res["wall_s"] for res in spanned])
        metrics["trace_overhead_frac"] = traced_wall / plain_wall - 1.0
        if single:
            metrics["runner.pool_speedup"] = single["wall_s"] / plain_wall
    for key in ("trace_overhead_frac", "runner.pool_speedup"):
        if key in metrics:
            lines.append(describe(key, "ratio", [metrics[key]]))
    for name, unit in END_TO_END:
        lines.append("untraced " + describe(name, unit, [res[name] for res in plain if name in res]))
    return metrics, lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 threads: int, expected: list[str]) -> tuple[dict, list[str]]:
    """Measure one workload; ``expected`` names every metric it must report."""
    r = Runner(workload, seed, threads)
    try:
        before = proc_sample()
        r.sample("probe", counted=False)  # compiles bytecode, warms the page cache
        if trace:
            values, lines = traced(r, seconds, os.path.join(WORK, f"spans-{workload}.json"))
        else:
            values, lines = untraced(r, seconds)
        after = proc_sample()
    finally:
        r.close()
    missing = [name for name in expected if name not in values]
    if missing:
        r.failures.append(f"no value for {', '.join(missing)}")
    failed = len(r.failures)
    lines.append(f"failed_frac [ratio] {failed / max(r.attempted, 1):.6g} "
                 f"({failed} failures in {r.attempted} runs)")
    lines += [f"failure: {f}" for f in r.failures]
    lines.append("proc " + json.dumps({"start": before, "end": after,
                                       "steal_share": steal_share(before, after)}))
    units = dict(END_TO_END) if not trace else {k: layer_unit(k) for k in values}
    result = {
        "correct": failed == 0,
        "attempted": max(r.attempted, failed, 1),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in expected if k in values},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "zenomap", "__init__.py")):
        print(f"no zenomap sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)

    threads = len(os.sched_getaffinity(0))
    print("machine " + json.dumps(machine_record(threads, args.seed)), flush=True)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace) or args.workload == "all"
    results = {}
    for name in names:
        expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
        result, lines = run_workload(name, args.seed, args.seconds, trace, threads, expected)
        print(f"== {name} seed={args.seed} trace={int(trace)} threads={threads}")
        for line in lines:
            print("  " + line)
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
