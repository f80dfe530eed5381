"""One run of a workload in a fresh process; run.py starts one per sample.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the checkout root, the workload, the seed, the input and
output directories, the result file and the mode:
  "run"    time one run, check its outputs, write the result;
  "probe"  stop at the first simulating call and report only set-up time;
  "trace"  run with spans on, check, and report per-layer metrics;
  "reference"  the small traced run of the layers the workload never calls
           (workloads.execute_reference), checked for exit codes only.
The thread budget comes from ZENO_MAP_THREADS, set by the caller.
"""

import time

_T_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


class _SetupDone(Exception):
    """Raised by the probe at the first simulating call."""


def _mark_first_call(owner, attrs, marks: dict, stop: bool) -> None:
    """Record when the first of ``attrs`` is entered; optionally stop there."""
    for attr in attrs:
        original = getattr(owner, attr)

        def marked(*args, _original=original, **kwargs):
            marks.setdefault("first_sim", time.perf_counter())
            if stop:
                raise _SetupDone()
            return _original(*args, **kwargs)

        setattr(owner, attr, marked)


def _capture_records(cli, records: list) -> None:
    original = cli.write_csv

    def capture(record, path):
        records.append(record)
        return original(record, path)

    cli.write_csv = capture


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _check(name: str, files: dict, captured: dict, records: list) -> list:
    import numpy as np

    import checks

    failures = [f"exit code {c}" for c in captured["exit_codes"] if c != 0]
    if failures:
        return failures
    if name == "baselines":
        failures += checks.check_zeno_csv(
            _read(files["zeno_csv"]), workloads.ZENO_HEADER, workloads.ZENO_N)
        failures += checks.check_classical_csv(
            _read(files["classical_csv"]), workloads.KICKED_HEADER,
            workloads.CLASSICAL_STEPS,
            workloads.CLASSICAL_PARTICLES * workloads.REALIZATIONS, workloads.K)
        return failures
    if len(records) != 1:
        return [f"expected one written record, got {len(records)}"]
    series = records[0].realization_series
    if len(series) != workloads.REALIZATIONS:
        return [f"record holds {len(series)} realizations"]
    disp = np.array([s.dispersion for s in series])
    norms = np.array([s.norm for s in series])
    p_m0 = np.array([s.p_m0 for s in series])
    failures += checks.check_norms(norms)
    failures += checks.check_first_kick(disp, workloads.K)
    if name == "curve_d":
        failures += checks.check_diffusion_rate(disp, workloads.K)
    failures += checks.check_kicked_csv(
        _read(files["csv"]), workloads.KICKED_HEADER, [disp, norms, p_m0],
        workloads.N_KICKS)
    failures += checks.check_svg(_read(files["svg"]), workloads.N_KICKS + 1)
    return failures


def main() -> int:
    spec = json.loads(sys.argv[1])
    mode = spec["mode"]
    name = spec["workload"]
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import zenomap
    import zenomap.cli as cli
    import zenomap.runner as runner

    expected = os.path.realpath(os.path.join(src, "zenomap", "__init__.py"))
    if os.path.realpath(zenomap.__file__) != expected:
        print(f"imported zenomap from {zenomap.__file__}, not {expected}", file=sys.stderr)
        return 2

    marks: dict = {}
    records: list = []
    tracer = None
    if mode in ("trace", "reference"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(zenomap)
    else:
        _mark_first_call(cli, ("run_experiment", "zeno_survival"), marks, mode == "probe")
    _capture_records(cli, records)
    files = workloads.output_files(name, spec["outdir"])

    t0 = time.perf_counter()
    c0 = time.process_time()
    execute = workloads.execute_reference if mode == "reference" else workloads.execute
    try:
        captured = execute(name, spec["seed"], spec["indir"], spec["outdir"], cli, runner)
    except _SetupDone:
        result = {"setup_s": marks["first_sim"] - _T_START}
        with open(spec["result"], "w", encoding="utf-8") as handle:
            json.dump(result, handle)
        return 0
    t1 = time.perf_counter()
    c1 = time.process_time()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.uninstall()
    if "record" in captured:
        records.append(captured["record"])
    if mode == "reference":
        failures = [f"exit code {c}" for c in captured["exit_codes"] if c != 0]
    else:
        failures = _check(name, files, captured, records)
    result = {
        "wall_s": t1 - t0,
        "cpu_s": c1 - c0,
        "peak_rss_mb": rss_kib / 1024.0,
        "check_failures": failures,
        "output_digest": _digest(p for p in files.values() if os.path.exists(p)),
    }
    if "first_sim" in marks:
        result["setup_s"] = marks["first_sim"] - _T_START
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        if spec.get("spans"):
            tracer.dump(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
