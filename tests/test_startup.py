"""A run loads the thread pool's modules only when it starts threads.

Every check runs in a fresh interpreter, since a module stays in
``sys.modules`` once anything has imported it.
"""

import os
import subprocess
import sys

# What ``concurrent.futures`` loads with it, and a kicked run needs none of.
POOL_MODULES = ("concurrent.futures", "logging", "queue")

_LOADED = f"[name for name in {POOL_MODULES!r} if name in sys.modules]"


def _python(code: str) -> str:
    """Run ``code`` in a fresh interpreter and return its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("ZENO_MAP_THREADS", None)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env,
    )
    return done.stdout


def test_a_kicked_run_loads_no_thread_pool():
    code = (
        "import os, sys; os.environ['ZENO_MAP_THREADS'] = '2'; import zenomap.cli; "
        "from zenomap.runner import ExperimentConfig, run_experiment; "
        "run_experiment(ExperimentConfig('kicked', n_kicks=5, window_halfwidth=300, "
        "measurement_mode='all', realizations=2)); "
        f"print({_LOADED})"
    )
    assert _python(code) == "[]\n"


def test_a_pooled_classical_run_loads_the_pool_and_keeps_the_bytes(tmp_path):
    document = tmp_path / "classical.cfg"
    document.write_text(
        "experiment = classical\nparticles = 500\nn_kicks = 20\nrealizations = 3\nseed = 1\n",
        encoding="utf-8",
    )
    code = (
        "import os, sys; from zenomap.cli import main\n"
        "for threads in ('1', '2'):\n"
        "    os.environ['ZENO_MAP_THREADS'] = threads\n"
        f"    out = os.path.join({str(tmp_path)!r}, 't' + threads + '.csv')\n"
        f"    assert main(['run', {str(document)!r}, '--out', out]) == 0\n"
        f"    print({_LOADED})\n"
    )
    # main prints a "wrote" line before each list
    assert _python(code).splitlines()[1::2] == ["[]", repr(list(POOL_MODULES))]
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()
