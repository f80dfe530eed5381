"""Golden reference outputs: small runs through every output path.

``python tests/golden/make.py`` (from the repository root) rewrites
``golden.json`` next to this file from the current code; ``tests/test_golden.py``
reruns the same cases and compares. The cases are:

- presets a-d on the rotator and the random spectrum, at halfwidth 300,
  30 kicks and 3 realizations, so slices from one bin to hundreds of bins
  take the blocked kick and preset d nears the window's edge;
- presets a and d at ``k = 50`` (``d_max = 87``), halfwidth 1000, 10 kicks
  and 3 realizations, so every kick adds the bins before a block in three
  slabs;
- the rotator at halfwidth 300, 30 kicks and 3 realizations with three
  states read out every third kick, the few-state readout of a subset;
- a classical and a zeno run document;
- ``zenomap zeno --n 64 --trials 20000 --out`` and the stdout of
  ``zenomap classical``.

Every CSV is stored as its list of lines, so each value is the ``repr`` the
CSV holds. Kicked values go through the BLAS GEMM kernel, which OpenBLAS
picks by CPU, and classical and zeno values through numpy's SIMD or libm
code, so bytes are reproducible on one machine but not across machines: the
file records the ``platform_key()`` of the machine that generated it. Regenerating golden data
changes a check; say which values moved, by how much, and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import platform
import sys
import tempfile

import numpy as np

GOLDEN = pathlib.Path(__file__).with_name("golden.json")

KICKED_DOCUMENT = (
    "experiment = kicked\nspectrum = {spectrum}\nwindow_halfwidth = 300\n"
    "n_kicks = 30\nrealizations = 3\nseed = 1\n"
)
K50_DOCUMENT = (
    "experiment = kicked\nk = 50\nwindow_halfwidth = 1000\n"
    "n_kicks = 10\nrealizations = 3\nseed = 1\n"
)
SUBSET_DOCUMENT = KICKED_DOCUMENT.format(spectrum="rotator") + (
    "measurement_mode = subset\nsubset = 480, 500, 517\nmeasurement_period = 3\n"
)
DOCUMENTS = {
    "classical": "experiment = classical\nparticles = 500\nn_kicks = 50\nrealizations = 3\nseed = 1\n",
    "zeno": "experiment = zeno\nn_kicks = 200\nomega = 0.37\ntau = 1.3\nrealizations = 3\n",
}
ZENO_COMMAND = ["zeno", "--n", "64", "--trials", "20000"]
CLASSICAL_COMMAND = ["classical", "--particles", "2000", "--steps", "50", "--seed", "3"]


def platform_key() -> dict:
    """What decides the output bits: the CPU features that numpy and OpenBLAS
    dispatch on, the numpy and BLAS builds and the C library."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "machine": platform.machine(),
        "libc": list(platform.libc_ver()),
        "numpy": np.__version__,
        "blas": _blas(),
        "cpu_features": " ".join(sorted(name for name, on in __cpu_features__.items() if on)),
    }


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 reports no build dictionary
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def _main(argv: list) -> str:
    from zenomap.cli import main

    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"zenomap {' '.join(argv)} exited {code}")
    return printed.getvalue()


def _csv(path: pathlib.Path) -> dict:
    return {"csv": path.read_text(encoding="utf-8").splitlines()}


def generate() -> dict:
    """Run every case; returns ``{name: {"kind": ..., ...}}`` in case order."""
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)

        def run(name: str, document: str, *options: str) -> dict:
            config = work / f"{name}.cfg"
            config.write_text(document, encoding="utf-8")
            out = work / f"{name}.csv"
            _main(["run", str(config), *options, "--out", str(out)])
            return _csv(out)

        for spectrum in ("rotator", "random"):
            document = KICKED_DOCUMENT.format(spectrum=spectrum)
            for preset in "abcd":
                name = f"kicked-{spectrum}-{preset}"
                outputs[name] = {"kind": "kicked", **run(name, document, "--preset", preset)}
        for preset in "ad":
            name = f"kicked-k50-{preset}"
            outputs[name] = {"kind": "kicked", **run(name, K50_DOCUMENT, "--preset", preset)}
        outputs["kicked-subset"] = {"kind": "kicked", **run("kicked-subset", SUBSET_DOCUMENT)}
        for name, document in DOCUMENTS.items():
            outputs[name] = {"kind": "csv", **run(name, document)}
        out = work / "zeno-command.csv"
        _main([*ZENO_COMMAND, "--out", str(out)])
        outputs["zeno-command"] = {"kind": "csv", **_csv(out)}
        outputs["classical-command"] = {"kind": "stdout", "stdout": _main(CLASSICAL_COMMAND)}
    return outputs


if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))
    data = {"platform": platform_key(), "outputs": generate()}
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
