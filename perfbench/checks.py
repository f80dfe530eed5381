"""Output checks. Each returns a list of failure messages; empty means pass.

The oracles are independent of zenomap's own code: the exact single-kick
increment and diffusion rate k^2/2, the closed-form two-level transfer
probability 0.5 * (1 - cos(pi/n)^n), the uniform-angle moments of the
standard map, and the file formats the README documents.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np

NORM_TOL = 1e-10
FIRST_KICK_TOL = 1e-8
RATE_SEMS = 5.0
RATE_POINTS = (250, 500, 750, 1000)
MC_SES = 4.0
SVG_NS = "{http://www.w3.org/2000/svg}"


def check_norms(norms: np.ndarray) -> list[str]:
    """Every kick of every realization keeps ``|norm - 1| <= 1e-10``.

    ``norms`` has one row per realization and one column per kick index.
    """
    drift = np.abs(np.asarray(norms, dtype=float) - 1.0)
    if not np.all(np.isfinite(drift)):
        return ["norm is not finite"]
    worst = float(drift.max())
    if worst > NORM_TOL:
        r, j = np.unravel_index(int(drift.argmax()), drift.shape)
        return [f"norm drift {worst:.3e} > {NORM_TOL:g} (realization {r}, kick {j})"]
    return []


def check_first_kick(dispersions: np.ndarray, k: float) -> list[str]:
    """After one kick from a basis state the dispersion is exactly k^2/2.

    Measurement leaves occupations unchanged, so this holds with and without
    readout, for every realization.
    """
    first = np.asarray(dispersions, dtype=float)[:, 1]
    err = float(np.max(np.abs(first - 0.5 * k * k)))
    if not err <= FIRST_KICK_TOL * 0.5 * k * k:
        return [f"dispersion after kick 1 is off k^2/2 by {err:.3e}"]
    return []


def check_diffusion_rate(dispersions: np.ndarray, k: float,
                         points=RATE_POINTS) -> list[str]:
    """Mean dispersion within 5 SEM of ``k^2/2 * j`` at each of ``points``."""
    d = np.asarray(dispersions, dtype=float)
    if d.shape[0] < 2:
        return ["need at least two realizations for a standard error"]
    failures = []
    for j in points:
        if j >= d.shape[1]:
            failures.append(f"series ends before kick {j}")
            continue
        column = d[:, j]
        sem = float(np.std(column, ddof=1)) / math.sqrt(column.size)
        exact = 0.5 * k * k * j
        z = (float(np.mean(column)) - exact) / sem if sem > 0 else math.inf
        if not abs(z) <= RATE_SEMS:
            failures.append(f"dispersion at j={j} is {z:+.2f} SEM off k^2/2*j = {exact:g}")
    return failures


def parse_csv(text: str, header: str, rows: int) -> tuple[list[str], np.ndarray]:
    """Check the exact header and row count; return failures and the values."""
    if not text.endswith("\n"):
        return ["CSV does not end with a newline"], np.empty((0, 0))
    lines = text.split("\n")[:-1]
    if not lines or lines[0] != header:
        return [f"CSV header is {lines[0] if lines else ''!r}, expected {header!r}"], np.empty((0, 0))
    if len(lines) - 1 != rows:
        return [f"CSV has {len(lines) - 1} rows, expected {rows}"], np.empty((0, 0))
    width = header.count(",") + 1
    try:
        values = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    except ValueError as err:
        return [f"CSV has a malformed value: {err}"], np.empty((0, 0))
    if values.shape != (rows, width):
        return ["CSV rows have the wrong number of columns"], np.empty((0, 0))
    if not np.all(np.isfinite(values)):
        return ["CSV holds a value that is not finite"], values
    return [], values


def check_kicked_csv(text: str, header: str, columns: list,
                     n_kicks: int) -> list[str]:
    """The CSV is the realization mean, row ``j`` for kick ``j``.

    ``columns`` holds the dispersion, norm and p_m0 matrices, one row per
    realization.
    """
    failures, values = parse_csv(text, header, n_kicks + 1)
    if failures:
        return failures
    if not np.array_equal(values[:, 0], np.arange(n_kicks + 1)):
        return ["CSV kick index column is not 0..n_kicks"]
    for col, matrix in enumerate(columns, start=1):
        mean = np.mean(np.asarray(matrix, dtype=float), axis=0)
        if not np.allclose(values[:, col], mean, rtol=1e-12, atol=1e-300):
            return [f"CSV column {col} is not the mean of the realizations"]
    return []


def check_svg(text: str, points: int) -> list[str]:
    """The chart parses as SVG and plots one point per kick index."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as err:
        return [f"SVG does not parse: {err}"]
    if root.tag != SVG_NS + "svg":
        return [f"SVG root element is {root.tag}"]
    lines = root.findall(SVG_NS + "polyline")
    if len(lines) != 1 or len(lines[0].get("points", "").split()) != points:
        return [f"SVG does not hold one polyline of {points} points"]
    return []


def check_zeno_csv(text: str, header: str, n: int) -> list[str]:
    """Closed form matches ``0.5 (1 - cos(pi/n)^n)``; Monte Carlo within 4 se."""
    failures, values = parse_csv(text, header, 1)
    if failures:
        return failures
    n_col, _, p2_closed, _, _, p1_mc, p2_mc, mc_se = values[0]
    if n_col != n:
        return [f"zeno CSV is for n={n_col:g}, expected {n}"]
    exact = 0.5 * (1.0 - math.cos(math.pi / n) ** n)
    if not abs(p2_closed - exact) <= 1e-12 * exact:
        failures.append(f"closed-form p2 {p2_closed!r} differs from {exact!r}")
    if not mc_se > 0 or not abs(p2_mc - exact) <= MC_SES * mc_se:
        failures.append(f"Monte-Carlo p2 {p2_mc!r} is more than {MC_SES:g} se from {exact!r}")
    if not abs(p1_mc + p2_mc - 1.0) <= 1e-9:
        failures.append("Monte-Carlo populations do not sum to 1")
    return failures


def check_classical_csv(text: str, header: str, steps: int, samples: int,
                        k: float) -> list[str]:
    """Dispersion after one kick within 4 standard errors of k^2/2.

    From a common action with uniform angles the first increment is
    ``k^2 sin^2(theta)``: mean k^2/2, variance k^4/8 per particle.
    """
    failures, values = parse_csv(text, header, steps + 1)
    if failures:
        return failures
    if not np.array_equal(values[:, 2], np.ones(steps + 1)):
        failures.append("classical norm column is not all 1")
    se = k * k * math.sqrt(1.0 / 8.0) / math.sqrt(samples)
    z = (values[1, 1] - 0.5 * k * k) / se
    if not abs(z) <= MC_SES:
        failures.append(f"classical dispersion at j=1 is {z:+.2f} se off k^2/2")
    return failures


def check_counts(reps: list[dict], expected: dict) -> list[str]:
    """Exact counts repeat from run to run and match their closed forms."""
    failures = []
    if not reps:
        return ["no traced run produced counts"]
    for key in sorted(set().union(*reps)):
        seen = {rep.get(key) for rep in reps}
        if len(seen) != 1:
            failures.append(f"count {key} differs between runs: {sorted(map(str, seen))}")
    for key, value in expected.items():
        got = reps[0].get(key)
        if got != value:
            failures.append(f"count {key} is {got}, expected {value}")
    return failures


def rep_failures(returncode, result) -> list[str]:
    """Why one worker run counts as failed: exit code, missing result, checks."""
    if returncode != 0:
        return [f"exited with code {returncode}"]
    if result is None:
        return ["wrote no result"]
    return list(result.get("check_failures", []))
