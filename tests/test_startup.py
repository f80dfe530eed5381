"""No run loads ``concurrent.futures`` or what it brings, threaded or not,
and a run builds the turn table of the phase factors only when it needs it.

Every check runs in a fresh interpreter, since a module stays in
``sys.modules`` once anything has imported it.
"""

import os
import subprocess
import sys

# What ``concurrent.futures`` loads with it; ``pool.map_chunks`` starts plain
# threads and needs none of them.
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


def test_a_kicked_run_loads_no_executor():
    code = (
        "import os, sys; os.environ['ZENO_MAP_THREADS'] = '2'; import zenomap.cli; "
        "from zenomap.runner import ExperimentConfig, run_experiment; "
        "run_experiment(ExperimentConfig('kicked', n_kicks=5, window_halfwidth=300, "
        "measurement_mode='all', realizations=2)); "
        f"print({_LOADED})"
    )
    assert _python(code) == "[]\n"


def test_threaded_classical_and_zeno_runs_load_no_executor_and_keep_the_bytes(tmp_path):
    document = tmp_path / "classical.cfg"
    document.write_text(
        "experiment = classical\nparticles = 500\nn_kicks = 20\nrealizations = 3\nseed = 1\n",
        encoding="utf-8",
    )
    code = (
        "import os, sys; from zenomap.cli import main\n"
        "for threads in ('1', '2'):\n"
        "    os.environ['ZENO_MAP_THREADS'] = threads\n"
        f"    out = os.path.join({str(tmp_path)!r}, 't' + threads)\n"
        f"    assert main(['run', {str(document)!r}, '--out', out + '.csv']) == 0\n"
        "    assert main(['zeno', '--n', '8', '--trials', '1001', '--out', out + '-zeno.csv']) == 0\n"
        f"    print({_LOADED})\n"
    )
    # each main call prints a "wrote" line before the list
    assert [line for line in _python(code).splitlines() if line.startswith("[")] == ["[]", "[]"]
    for name in ("{}.csv", "{}-zeno.csv"):
        assert (tmp_path / name.format("t1")).read_bytes() == (tmp_path / name.format("t2")).read_bytes()


def test_import_and_a_one_state_readout_build_no_turn_table():
    code = (
        "import zenomap; from zenomap import measurement; "
        "from zenomap.runner import ExperimentConfig, run_experiment; "
        "built = lambda: measurement._turn_table.cache_info().currsize; "
        "sizes = [built()]; "
        "config = ExperimentConfig('kicked', n_kicks=5, window_halfwidth=300); "
        "run_experiment(config.with_preset('b')); sizes.append(built()); "
        "run_experiment(config.with_preset('d')); sizes.append(built()); "
        "print(sizes)"
    )
    # preset b reads out the initial state alone; preset d every state
    assert _python(code) == "[0, 0, 1]\n"
