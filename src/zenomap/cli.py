"""Command-line entry points.

Exit codes: 0 success, 2 configuration error (a run too large for memory
too), 3 numerical failure (an ``errors.NumericalError``), 4 I/O error. A
command runs with numpy's overflow and invalid-value warnings off, since it
rejects non-finite output itself.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from .chart import emit_chart
from .classical import ClassicalEnsemble, ensemble_diffusion
from .errors import ConfigError, NumericalError
from .runner import (
    CONFIG_KEYS,
    PRESETS,
    _check_output_path,
    _number,
    parse_config,
    render_csv,
    run_experiment,
    write_csv,
    write_text_atomic,
)
from .two_level import monte_carlo_measured_evolve, zeno_survival, ProbabilityPair

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _checked(convert):
    """An argparse ``type=`` that reports ``convert``'s ``ValueError`` message."""

    def typed(raw: str):
        try:
            return convert(raw)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None

    return typed


def _like(key: str):
    """An argparse ``type=`` that parses and bounds a value like config ``key``."""
    return _checked(CONFIG_KEYS[key].convert)


def _build_parser() -> argparse.ArgumentParser:
    # With exit_on_error=False a bad option value reaches main() as an
    # ArgumentError naming the option, reported as a configuration error.
    parser = argparse.ArgumentParser(
        prog="zenomap",
        description=(
            "Kicked-rotator quantum maps under repeated measurement, "
            "two-level survival experiments, and a classical ensemble baseline."
        ),
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a config-driven experiment", exit_on_error=False)
    run.add_argument("config", help="path to a 'key = value' run document")
    run.add_argument("--preset", choices=tuple(PRESETS),
                     help="measurement scenario preset")
    run.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument("--out", help="CSV output path (default: config output_path, else stdout)")
    run.add_argument("--svg", action="store_true", help="also write an SVG chart next to the CSV")
    run.set_defaults(func=_cmd_run)

    zeno = sub.add_parser("zeno", help="two-level survival under n measured segments",
                          exit_on_error=False)
    zeno.add_argument("--n", type=_like("n_kicks"), required=True, help="number of drive segments")
    zeno.add_argument("--trials", type=_like("realizations"), default=100_000,
                      help="Monte-Carlo trials")
    zeno.add_argument("--seed", type=_like("seed"), default=0)
    zeno.add_argument("--out", help="write results as CSV instead of a text summary")
    zeno.set_defaults(func=_cmd_zeno)

    classical = sub.add_parser("classical", help="standard-map ensemble diffusion",
                               exit_on_error=False)
    classical.add_argument("--particles", type=_like("particles"), default=10_000)
    classical.add_argument("--steps", type=_like("n_kicks"), default=200)
    classical.add_argument("--k", type=_like("k"), default=10.0)
    classical.add_argument("--tau", type=_like("tau"), default=1.0)
    classical.add_argument("--i0", type=_checked(_number), default=500.0)
    classical.add_argument("--seed", type=_like("seed"), default=0)
    classical.set_defaults(func=_cmd_classical)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.config, "rb") as handle:
        document = handle.read()
    try:
        text = document.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as err:
        raise ConfigError(
            f"{args.config} is not UTF-8 text ({err.reason} at byte {err.start})"
        ) from None
    config = parse_config(text)
    if args.preset:
        config = config.with_preset(args.preset)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out:
        overrides["output_path"] = args.out
    if args.svg:
        overrides["emit_svg"] = True
    if overrides:
        config = dataclasses.replace(config, **overrides)
    out = config.output_path
    if config.emit_svg and out is None:
        raise ConfigError("an SVG chart needs an output path; pass --out")
    svg_path = _with_suffix(out, ".svg") if config.emit_svg else None
    for path in (out, svg_path):
        if path is not None:
            _check_output_path(path)
    record = run_experiment(config)
    if out is None:
        sys.stdout.write(render_csv(record.aggregate))
        return EXIT_OK
    write_csv(record, out)
    print(f"wrote {out} ({config.realizations} realization(s), "
          f"{record.wall_time:.2f}s)")
    if svg_path is not None:
        emit_chart([record], svg_path)
        print(f"wrote {svg_path}")
    return EXIT_OK


def _with_suffix(path: str, suffix: str) -> str:
    root = path[:-4] if path.lower().endswith(".csv") else path
    return root + suffix


def _cmd_zeno(args: argparse.Namespace) -> int:
    if args.out:
        _check_output_path(args.out)
    n = args.n
    closed = zeno_survival(n)
    exp_approx = 0.5 * (1.0 - math.exp(-math.pi**2 / (2.0 * n)))
    leading = math.pi**2 / (4.0 * n)
    phi = math.pi / (2.0 * n)
    mc = monte_carlo_measured_evolve(ProbabilityPair(1.0, 0.0), phi, n, args.trials, args.seed)
    stderr = math.sqrt(max(closed.p2 * (1.0 - closed.p2), 1e-300) / args.trials)
    if args.out:
        lines = [
            "n,p1_closed,p2_closed,p2_exponential,p2_leading,p1_mc,p2_mc,mc_se",
            f"{n},{closed.p1!r},{closed.p2!r},{exp_approx!r},{leading!r},"
            f"{mc.p1!r},{mc.p2!r},{stderr!r}",
        ]
        write_text_atomic(args.out, "\n".join(lines) + "\n")
        print(f"wrote {args.out}")
        return EXIT_OK
    print(f"segments:              n = {n}")
    print(f"closed form:           p1 = {closed.p1:.6f}  p2 = {closed.p2:.6f}")
    print(f"exponential estimate:  p2 ~ {exp_approx:.6f}")
    print(f"leading order:         p2 ~ {leading:.6f}")
    print(f"monte carlo ({args.trials} trials): p1 = {mc.p1:.6f}  p2 = {mc.p2:.6f}"
          f"  (se ~ {stderr:.2e})")
    return EXIT_OK


def _cmd_classical(args: argparse.Namespace) -> int:
    ensemble = ClassicalEnsemble.prepared(args.particles, args.i0, args.tau, args.k, args.seed)
    estimate = ensemble_diffusion(ensemble, args.steps)
    quasilinear = args.k**2 / (4.0 * args.tau)
    print(f"K = tau*k = {ensemble.K:g}  (chaotic: {ensemble.chaotic})")
    print(f"diffusion estimate:   B = {estimate:.4f}  "
          f"({args.particles} particles, {args.steps} steps)")
    print(f"quasilinear value:    k^2/(4 tau) = {quasilinear:.4f}")
    if quasilinear > 0:
        print(f"ratio:                {estimate / quasilinear:.4f}")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # every command rejects non-finite output itself (exit 3), so numpy's
        # overflow warnings would only repeat that failure with source lines
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    # MemoryError: a run too large for this machine
    except (ConfigError, argparse.ArgumentError, MemoryError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except ValueError as err:
        print(f"invalid arguments: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
