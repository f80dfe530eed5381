"""The benchmark's workloads: their inputs, how one run executes, and exact counts.

Every workload is a closed loop with one client: the next run starts only
after the previous one has finished. The workload seed becomes the config
``seed``, the ``--seed`` argument and the ensemble seed, so the same seed
gives the same inputs and byte-identical outputs.

This module imports nothing from numpy or zenomap, so that a worker can load
it before ``import zenomap`` without moving import cost out of ``setup_s``.
The zenomap modules are passed in by the caller and every call goes through
their attributes, which is where the tracer installs its spans.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

K = 10.0
TAU = 1.0
M0 = 500
HALFWIDTH = 2000
N_KICKS = 1000
REALIZATIONS = 20
WINDOW_SIZE = 2 * HALFWIDTH + 1

ZENO_N = 256
ZENO_TRIALS = 100_000
CLASSICAL_PARTICLES = 10_000
CLASSICAL_STEPS = 200

KICKED_HEADER = "j,dispersion,norm,p_m0"
ZENO_HEADER = "n,p1_closed,p2_closed,p2_exponential,p2_leading,p1_mc,p2_mc,mc_se"


@dataclass(frozen=True)
class Workload:
    name: str
    kicked: bool
    # Exact counts a traced run must reproduce; fixed by the reproducibility
    # contract (one phase draw per measured index per measurement event).
    expected_counts: dict


WORKLOADS = {
    "curve_d": Workload("curve_d", True, {
        "measurement.phase_draws": WINDOW_SIZE * N_KICKS * REALIZATIONS,
        "kick_engine.apply_kick.calls": N_KICKS * REALIZATIONS,
        "measurement.apply_measurement.calls": N_KICKS * REALIZATIONS,
    }),
    "curve_b": Workload("curve_b", True, {
        "measurement.phase_draws": N_KICKS * REALIZATIONS,
        "kick_engine.apply_kick.calls": N_KICKS * REALIZATIONS,
        "measurement.apply_measurement.calls": N_KICKS * REALIZATIONS,
    }),
    "baselines": Workload("baselines", False, {
        "classical.particle_steps": CLASSICAL_PARTICLES * CLASSICAL_STEPS * REALIZATIONS,
        "two_level.trial_segments": ZENO_TRIALS * ZENO_N,
        "kick_engine.apply_kick.calls": 0,
    }),
}


# Small inputs for the layers a workload never calls; see execute_reference.
REFERENCE_KICKS = 100
REFERENCE_REALIZATIONS = 2
REFERENCE_ZENO_N = 16
REFERENCE_ZENO_TRIALS = 2000
REFERENCE_PARTICLES = 1000
REFERENCE_STEPS = 20


def kicked_config(seed: int, n_kicks: int = N_KICKS, realizations: int = REALIZATIONS) -> str:
    return (
        "experiment = kicked\n"
        "spectrum = rotator\n"
        f"m0 = {M0}\nk = {K!r}\ntau = {TAU!r}\n"
        f"window_halfwidth = {HALFWIDTH}\nn_kicks = {n_kicks}\n"
        f"realizations = {realizations}\nseed = {seed}\n"
    )


def classical_config(seed: int, output_path: str, particles: int = CLASSICAL_PARTICLES,
                     steps: int = CLASSICAL_STEPS, realizations: int = REALIZATIONS) -> str:
    return (
        "experiment = classical\n"
        f"m0 = {M0}\nk = {K!r}\ntau = {TAU!r}\n"
        f"particles = {particles}\nn_kicks = {steps}\n"
        f"realizations = {realizations}\nseed = {seed}\n"
        f"output_path = {output_path}\n"
    )


def output_files(name: str, outdir: str) -> dict:
    """Paths of the files one run of ``name`` writes, by role."""
    if name == "baselines":
        return {"zeno_csv": os.path.join(outdir, "zeno.csv"),
                "classical_csv": os.path.join(outdir, "classical.csv")}
    return {"csv": os.path.join(outdir, "curve.csv"),
            "svg": os.path.join(outdir, "curve.svg")}


def write_inputs(name: str, seed: int, indir: str) -> None:
    """Write the inputs a run of ``name`` reads; a pure function of the seed."""
    if WORKLOADS[name].kicked:
        text = kicked_config(seed)
    else:  # the reference run's input
        text = kicked_config(seed, REFERENCE_KICKS, REFERENCE_REALIZATIONS)
    with open(os.path.join(indir, "experiment.cfg"), "w", encoding="utf-8") as handle:
        handle.write(text)


def execute(name: str, seed: int, indir: str, outdir: str, cli, runner) -> dict:
    """One run of workload ``name`` through zenomap's public calls.

    Returns the CLI exit codes and, for ``baselines``, the classical record.
    """
    files = output_files(name, outdir)
    if name in ("curve_d", "curve_b"):
        preset = name[-1]
        code = cli.main([
            "run", os.path.join(indir, "experiment.cfg"), "--preset", preset,
            "--seed", str(seed), "--out", files["csv"], "--svg",
        ])
        return {"exit_codes": [code]}
    code = cli.main([
        "zeno", "--n", str(ZENO_N), "--trials", str(ZENO_TRIALS),
        "--seed", str(seed), "--out", files["zeno_csv"],
    ])
    config = runner.parse_config(classical_config(seed, files["classical_csv"]))
    record = runner.run_experiment(config)
    runner.write_csv(record, config.output_path)
    return {"exit_codes": [code], "record": record}


def execute_reference(name: str, seed: int, indir: str, outdir: str, cli, runner) -> dict:
    """A small run of the layers workload ``name`` never calls.

    The traced mode takes the time metrics of those layers from it, so that
    every reported time is a measurement; the workload's own counts stay 0.
    For the curves it is a short Zeno Monte Carlo and classical ensemble, for
    ``baselines`` a short all-states kicked run with its chart.
    """
    if not WORKLOADS[name].kicked:
        code = cli.main(["run", os.path.join(indir, "experiment.cfg"), "--preset", "d",
                         "--seed", str(seed), "--out", os.path.join(outdir, "ref.csv"),
                         "--svg"])
        return {"exit_codes": [code]}
    code = cli.main(["zeno", "--n", str(REFERENCE_ZENO_N), "--trials",
                     str(REFERENCE_ZENO_TRIALS), "--seed", str(seed),
                     "--out", os.path.join(outdir, "ref_zeno.csv")])
    config = runner.parse_config(classical_config(
        seed, os.path.join(outdir, "ref_classical.csv"), REFERENCE_PARTICLES,
        REFERENCE_STEPS, REFERENCE_REALIZATIONS))
    runner.write_csv(runner.run_experiment(config), config.output_path)
    return {"exit_codes": [code]}
