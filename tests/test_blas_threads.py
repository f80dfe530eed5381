"""`import zenomap` loads BLAS with one thread unless the caller chose a count.

Every check runs in a fresh interpreter, since OpenBLAS reads its thread
count once, when numpy loads it.
"""

import os
import subprocess
import sys

import pytest

from zenomap import _BLAS_THREAD_VARIABLES


def _python(code: str, **variables: str) -> str:
    """Run ``code`` in a fresh interpreter whose environment has none of the
    BLAS thread variables except ``variables``; return its stdout."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARIABLES}
    env.update(variables, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env,
    )
    return done.stdout


_ENVIRONMENT_KEPT = (
    "import os; before = dict(os.environ); import zenomap; "
    "print(dict(os.environ) == before)"
)


def test_import_leaves_the_environment_as_it_found_it():
    assert _python(_ENVIRONMENT_KEPT) == "True\n"


def test_no_blas_thread_spins_after_the_import():
    # numpy's OpenBLAS with a thread per CPU spins for about 80 ms of CPU
    # after the import on a 2-CPU machine
    code = (
        "import time, zenomap; start = time.process_time(); time.sleep(0.3); "
        "print(time.process_time() - start)"
    )
    assert float(_python(code)) < 0.020


@pytest.mark.parametrize("name", _BLAS_THREAD_VARIABLES)
def test_a_variable_the_caller_set_is_left_as_set(name):
    assert _python(_ENVIRONMENT_KEPT, **{name: "2"}) == "True\n"


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
    reason="counts the threads in /proc, and needs two CPUs for two BLAS threads",
)
@pytest.mark.parametrize(
    "variables, threads",
    [({}, 1)] + [({name: "2"}, 2) for name in _BLAS_THREAD_VARIABLES],
    ids=["default", *_BLAS_THREAD_VARIABLES],
)
def test_blas_loads_with_one_thread_unless_the_caller_chose_a_count(variables, threads):
    code = "import os, zenomap; print(len(os.listdir('/proc/self/task')))"
    assert _python(code, **variables) == f"{threads}\n"


def test_numpy_imported_first_leaves_the_environment_untouched():
    code = f"import numpy; {_ENVIRONMENT_KEPT}"
    assert _python(code) == "True\n"


def test_large_support_rows_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a support wider than about 10^4 states, where a multi-threaded
    # OpenBLAS splits the norm and dispersion dot products across threads
    document = tmp_path / "large.cfg"
    document.write_text(
        "experiment = kicked\nk = 100\nwindow_halfwidth = 12000\nm0 = 0\n"
        "n_kicks = 100\nrealizations = 1\nseed = 1\n",
        encoding="utf-8",
    )
    rows = []
    for variables in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        out = tmp_path / f"rows-{len(rows)}.csv"
        argv = ["run", str(document), "--preset", "d", "--out", str(out)]
        _python(f"import sys; from zenomap.cli import main; sys.exit(main({argv!r}))", **variables)
        rows.append(out.read_bytes())
    assert rows[0] == rows[1]
    assert rows[0].count(b"\n") == 102
