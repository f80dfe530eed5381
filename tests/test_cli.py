"""Command-line interface: subcommands, outputs, exit codes."""

import errno
import os
import types
import warnings

import pytest

import zenomap.cli as cli
import zenomap.kick_engine as kick_engine
import zenomap.measurement as measurement
import zenomap.runner as runner
from zenomap import (
    LostKickError,
    NonFiniteError,
    NormDriftError,
    NumericalError,
    TruncationOverflowError,
)
from zenomap.cli import main


@pytest.fixture()
def no_simulation(monkeypatch):
    """Fail any command that starts simulating."""

    def no_run(*args, **kwargs):
        raise AssertionError("the simulation started before the output paths were checked")

    for name in ("run_experiment", "zeno_survival", "monte_carlo_measured_evolve"):
        monkeypatch.setattr(cli, name, no_run)


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "experiment = kicked\nn_kicks = 30\nwindow_halfwidth = 300\nseed = 3\n"
    )
    return path


class TestRunCommand:
    def test_writes_csv(self, config_file, tmp_path, capsys):
        out = tmp_path / "series.csv"
        code = main(["run", str(config_file), "--preset", "d", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "j,dispersion,norm,p_m0"
        assert len(lines) == 32

    def test_streams_csv_to_stdout_without_path(self, config_file, capsys):
        code = main(["run", str(config_file)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("j,dispersion,norm,p_m0\n")

    def test_svg_written_next_to_csv(self, config_file, tmp_path):
        out = tmp_path / "series.csv"
        code = main(["run", str(config_file), "--out", str(out), "--svg"])
        assert code == 0
        assert (tmp_path / "series.svg").read_text().startswith("<svg")

    def test_svg_without_path_is_config_error(self, config_file):
        assert main(["run", str(config_file), "--svg"]) == 2

    @pytest.mark.parametrize("threads", ["zero", "0"])
    def test_invalid_thread_budget_is_config_error(self, config_file, monkeypatch, threads):
        # Kicked realizations run serially, but the budget is still checked.
        monkeypatch.setenv("ZENO_MAP_THREADS", threads)
        assert main(["run", str(config_file), "--preset", "d"]) == 2

    def test_preset_run_builds_the_kernel_once(self, tmp_path):
        # Document, preset, overrides and three realizations share one kernel.
        path = tmp_path / "run.cfg"
        path.write_text("experiment = kicked\nn_kicks = 5\nrealizations = 3\nseed = 1\n")
        kick_engine.build_kernel.cache_clear()
        out = tmp_path / "series.csv"
        assert main(["run", str(path), "--preset", "d", "--out", str(out), "--svg"]) == 0
        assert kick_engine.build_kernel.cache_info().misses == 1

    def test_failed_replace_is_io_error_and_keeps_old_csv(
        self, config_file, tmp_path, monkeypatch
    ):
        def refuse(src, dst):
            raise OSError("replace refused")

        out = tmp_path / "series.csv"
        out.write_text("old\n")
        monkeypatch.setattr(os, "replace", refuse)
        assert main(["run", str(config_file), "--out", str(out)]) == 4
        assert out.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "series.csv"]

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 4

    def test_bad_config_is_config_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("experiment = kicked\nk = -3\n")
        assert main(["run", str(path)]) == 2

    @pytest.mark.parametrize("experiment, m0", [
        ("kicked", "9223372036854775808"), ("classical", "-" + "9" * 400),
    ], ids=["kicked-2**63", "classical-400-digits"])
    def test_m0_beyond_exact_float64_integers_is_config_error(
        self, experiment, m0, tmp_path, capsys
    ):
        path = tmp_path / "far.cfg"
        path.write_text(
            f"experiment = {experiment}\nm0 = {m0}\nk = 1\nn_kicks = 3\nwindow_halfwidth = 100\n"
        )
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "key 'm0'" in err

    def test_window_narrower_than_kernel_is_config_error(self, tmp_path, monkeypatch, capsys):
        def no_run(config):
            raise AssertionError("the simulation started with a window narrower than the kernel")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        path = tmp_path / "narrow.cfg"
        path.write_text("experiment = kicked\nwindow_halfwidth = 8\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "key 'window_halfwidth'" in err

    @pytest.mark.parametrize("document, argv, message", [
        ("experiment = classical\nparticles = 500\nmeasurement_mode = all\n", [],
         "config error: a classical run does not read this key "
         "(key 'measurement_mode', line 3)\n"),
        ("experiment = classical\nparticles = 500\n", ["--preset", "a"],
         "config error: preset 'a' sets a kicked run's readout; this is a classical run\n"),
    ], ids=["unread-key", "preset"])
    def test_what_a_classical_run_does_not_read_is_config_error(
        self, document, argv, message, tmp_path, monkeypatch, capsys
    ):
        def no_run(config):
            raise AssertionError("the simulation started with a key it does not read")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        path = tmp_path / "classical.cfg"
        path.write_text(document)
        assert main(["run", str(path), *argv]) == 2
        assert capsys.readouterr().err == message

    def test_truncation_is_numerical_error(self, tmp_path):
        path = tmp_path / "narrow.cfg"
        path.write_text(
            "experiment = kicked\nk = 5\nn_kicks = 300\nwindow_halfwidth = 30\n"
        )
        assert main(["run", str(path)]) == 3

    @pytest.mark.parametrize("document, preset, line", [
        ("experiment = kicked\nwindow_halfwidth = 40\n", "d",
         "run aborted after kick 1: probability 2.968e-01 within 32 states of both "
         "window edges (m_min=460, m_max=540) exceeds 1e-10; rerun with a "
         "window_halfwidth larger than 40"),
        ("experiment = kicked\nm0 = 3\nk = 5\nn_kicks = 300\nwindow_halfwidth = 60\n"
         "measurement_mode = all\n", None,
         "run aborted after kick 6: probability 1.181e-09 within 23 states of the "
         "upper window edge (m_min=-57, m_max=63) exceeds 1e-10; rerun with a "
         "window_halfwidth larger than 60"),
    ], ids=["both", "upper"])
    def test_window_edge_failure_prints_one_line(self, document, preset, line, tmp_path, capsys):
        path = tmp_path / "edge.cfg"
        path.write_text(document)
        argv = ["run", str(path)] + (["--preset", preset] if preset else [])
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == f"numerical failure: {line}\n"
        assert captured.out == ""

    def test_norm_drift_is_numerical_error(self, config_file, monkeypatch):
        real_step = runner.step

        def leaky_step(state, kernel, spectrum):
            real_step(state, kernel, spectrum)
            state.amplitudes *= 1 + 1e-5

        monkeypatch.setattr(runner, "step", leaky_step)
        assert main(["run", str(config_file)]) == 3

    def test_norm_drift_in_full_readout_is_numerical_error(
        self, config_file, monkeypatch
    ):
        real_factors = measurement._phase_factors

        def leaky_factors(turns):
            return real_factors(turns) * (1 + 1e-5)

        monkeypatch.setattr(measurement, "_phase_factors", leaky_factors)
        assert main(["run", str(config_file), "--preset", "d"]) == 3

    def test_overflowing_phase_is_numerical_error(self, tmp_path, capsys):
        # 0.5 m^2 tau overflows, so every amplitude after the first kick is nan
        path = tmp_path / "huge_tau.cfg"
        path.write_text(
            "experiment = kicked\ntau = 1e308\nn_kicks = 3\nwindow_halfwidth = 50\n"
        )
        assert main(["run", str(path)]) == 3
        assert capsys.readouterr().err.startswith("numerical failure:")

    @pytest.mark.parametrize(
        "document, column",
        [
            ("experiment = classical\ntau = 1e308\nparticles = 200\nn_kicks = 20\n",
             "dispersion"),
            ("experiment = zeno\ntau = 1e308\nomega = 1e308\nn_kicks = 5\n", "dispersion"),
        ],
        ids=["classical", "zeno"],
    )
    def test_non_finite_series_is_numerical_error(self, document, column, tmp_path, capsys):
        path = tmp_path / "overflow.cfg"
        path.write_text(document)
        assert main(["run", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"numerical failure: {column} is nan")
        assert captured.out == ""

    def test_negative_seed_override_is_config_error(
        self, config_file, monkeypatch, capsys
    ):
        def no_run(config):
            raise AssertionError("the simulation started with an invalid seed")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        assert main(["run", str(config_file), "--seed", "-2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "key 'seed'" in err

    def test_leading_byte_order_mark_is_ignored(self, config_file, tmp_path):
        marked = tmp_path / "marked.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + config_file.read_bytes())
        out_plain, out_marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        assert main(["run", str(config_file), "--preset", "d", "--out", str(out_plain)]) == 0
        assert main(["run", str(marked), "--preset", "d", "--out", str(out_marked)]) == 0
        assert out_marked.read_bytes() == out_plain.read_bytes()

    def test_document_that_is_not_utf8_is_config_error(self, config_file, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"\xff\xfe" + config_file.read_bytes())
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {path} is not UTF-8 text (invalid start byte at byte 0)\n"
        assert captured.out == ""

    def test_seed_override_changes_measured_output(self, config_file, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        main(["run", str(config_file), "--preset", "d", "--seed", "1", "--out", str(out1)])
        main(["run", str(config_file), "--preset", "d", "--seed", "2", "--out", str(out2)])
        assert out1.read_text() != out2.read_text()

    def test_same_seed_bitwise_identical(self, config_file, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        main(["run", str(config_file), "--preset", "d", "--out", str(out1)])
        main(["run", str(config_file), "--preset", "d", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestZenoCommand:
    def test_prints_closed_form_and_monte_carlo(self, capsys):
        code = main(["zeno", "--n", "16", "--trials", "5000", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "closed form" in out
        assert "monte carlo" in out

    def test_writes_csv(self, tmp_path):
        out = tmp_path / "zeno.csv"
        code = main(["zeno", "--n", "8", "--trials", "1000", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("n,p1_closed,p2_closed")
        assert lines[1].startswith("8,")

    def test_invalid_n_is_config_error(self):
        assert main(["zeno", "--n", "0"]) == 2

    def test_one_usable_cpu_starts_no_helper(self, monkeypatch, no_helper):
        monkeypatch.delenv("ZENO_MAP_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert main(["zeno", "--n", "8", "--trials", "1000"]) == 0

    # above pool.MAX_THREADS: refused before a helper is built
    @pytest.mark.parametrize("threads", ["zero", "0", "257", "100000"])
    def test_invalid_thread_budget_is_config_error(self, monkeypatch, no_helper, threads):
        monkeypatch.setenv("ZENO_MAP_THREADS", threads)
        assert main(["zeno", "--n", "8", "--trials", "1000"]) == 2


class TestClassicalCommand:
    def test_prints_estimate(self, capsys):
        code = main(["classical", "--particles", "2000", "--steps", "50"])
        assert code == 0
        out = capsys.readouterr().out
        assert "diffusion estimate" in out
        assert "quasilinear" in out

    def test_kick_below_the_rounding_of_the_action_is_numerical_error(self, capsys):
        code = main(["classical", "--i0", "1e308", "--particles", "100", "--steps", "5"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "numerical failure: the kick k = 10 is below the rounding of the action"
        )
        assert captured.out == ""

    def test_zero_kick_strength_runs(self, capsys):
        with pytest.warns(UserWarning, match="not globally chaotic"):
            code = main(["classical", "--k", "0", "--particles", "100", "--steps", "5"])
        assert code == 0
        assert "B = 0.0000" in capsys.readouterr().out

    def test_overflowing_angles_are_numerical_error(self, capsys):
        code = main(["classical", "--tau", "1e308", "--particles", "200", "--steps", "20"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure: dispersion is nan")
        assert captured.out == ""


_HUGE = 10**30  # past 2**63 elements, which numpy cannot address


# Every size here is at least 10**17 elements: no machine can map such an
# array, so the allocation fails at once instead of trying to fill memory.
# From 2**63 elements on numpy refuses the size before it allocates.
@pytest.mark.parametrize(
    "document, command, message",
    [
        ("experiment = kicked\nwindow_halfwidth = 100000000000000000\n", None,
         "Unable to allocate"),
        ("experiment = kicked\nn_kicks = 100000000000000000\nwindow_halfwidth = 100\n", None,
         "Unable to allocate"),
        ("experiment = classical\nn_kicks = 100000000000000000\nparticles = 10\n", None,
         "Unable to allocate"),
        ("experiment = zeno\nn_kicks = 100000000000000000\n", None, "Unable to allocate"),
        (None, "classical --particles 100000000000000000", "Unable to allocate"),
        (f"experiment = kicked\nwindow_halfwidth = {_HUGE}\n", None, "Maximum allowed"),
        (f"experiment = kicked\nn_kicks = {_HUGE}\nwindow_halfwidth = 100\n", None,
         "Maximum allowed"),
        (None, f"classical --particles {_HUGE}", "Maximum allowed"),
        (None, f"zeno --n 4 --trials {_HUGE}", "Maximum allowed"),
        (None, f"zeno --n {_HUGE} --trials 10", "Maximum allowed size exceeded\n"),
    ],
    ids=["kicked-window", "kicked-kicks", "classical-kicks", "zeno-kicks", "classical-particles",
         "kicked-window-unaddressable", "kicked-kicks-unaddressable",
         "classical-particles-unaddressable", "zeno-trials-unaddressable",
         "zeno-n-unaddressable"],
)
def test_run_too_large_for_memory_is_config_error(document, command, message, tmp_path, capsys):
    if document is not None:
        path = tmp_path / "huge.cfg"
        path.write_text(document)
        argv = ["run", str(path)]
    else:
        argv = command.split()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {message}")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("target, message", [
    ("missing/out.csv", "[Errno 2] No such file or directory"),
    ("taken", "[Errno 21] Is a directory"),
    # a path ending in a separator names no file
    ("taken/", "[Errno 21] Is a directory"),
    ("file.csv/", "[Errno 20] Not a directory"),
    ("missing/", "[Errno 2] No such file or directory"),
    ("file.csv/x.csv", "[Errno 20] Not a directory"),
], ids=["missing-directory", "onto-directory", "directory-slash", "file-slash", "missing-slash",
        "under-file"])
@pytest.mark.parametrize("how", ["run-out", "output-path", "zeno-out"])
def test_failed_write_names_the_output_path(how, target, message, tmp_path, no_simulation,
                                            capsys):
    (tmp_path / "taken").mkdir()
    (tmp_path / "file.csv").write_text("kept\n")
    out = os.path.join(tmp_path, target)  # a pathlib join would drop a trailing "/"
    document = "experiment = kicked\nn_kicks = 3\nwindow_halfwidth = 100\n"
    config = tmp_path / "run.cfg"
    if how == "run-out":
        argv = ["run", str(config), "--out", out]
    elif how == "output-path":
        document += f"output_path = {out}\n"
        argv = ["run", str(config)]
    else:
        argv = ["zeno", "--n", "4", "--trials", "10", "--out", out]
    config.write_text(document)
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.err == f"i/o error: {message}: {out!r}\n"
    assert not list(tmp_path.rglob("*.tmp"))
    assert (tmp_path / "file.csv").read_text() == "kept\n"


def test_svg_path_that_is_a_directory_fails_before_the_csv(tmp_path, no_simulation, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("experiment = kicked\nn_kicks = 3\nwindow_halfwidth = 100\n")
    (tmp_path / "chart.svg").mkdir()
    out = tmp_path / "chart.csv"
    assert main(["run", str(config), "--out", str(out), "--svg"]) == 4
    svg = str(tmp_path / "chart.svg")
    assert capsys.readouterr().err == f"i/o error: [Errno 21] Is a directory: {svg!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("target, error", [
    ("missing/out.csv", FileNotFoundError),
    ("taken", IsADirectoryError),
    ("taken/", IsADirectoryError),
    ("f.csv/", NotADirectoryError),
    ("missing/", FileNotFoundError),
    ("f.csv/x.csv", NotADirectoryError),
], ids=["missing-directory", "onto-directory", "directory-separator", "file-separator",
        "missing-separator", "under-file"])
def test_write_text_atomic_names_the_path_not_its_temporary(target, error, tmp_path,
                                                             monkeypatch):
    def no_temporary(nbytes):
        raise AssertionError("a temporary file was named before the path was checked")

    monkeypatch.setattr(runner, "secrets", types.SimpleNamespace(token_hex=no_temporary))
    (tmp_path / "taken").mkdir()
    (tmp_path / "f.csv").write_text("kept\n")
    path = os.path.join(tmp_path, target)  # a pathlib join would drop a trailing "/"
    with pytest.raises(error) as excinfo:
        runner.write_text_atomic(path, "text\n")
    assert excinfo.value.filename == path
    assert excinfo.value.filename2 is None
    assert not list(tmp_path.rglob("*.tmp"))
    assert (tmp_path / "f.csv").read_text() == "kept\n"


def test_write_failure_naming_the_temporary_names_the_path(tmp_path, monkeypatch):
    # a move across file systems fails after the path check, naming both files
    def cross_device(src, dst):
        raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), src, dst)

    monkeypatch.setattr(runner.os, "replace", cross_device)
    path = tmp_path / "out.csv"
    path.write_text("kept\n")
    with pytest.raises(OSError) as excinfo:
        runner.write_text_atomic(str(path), "text\n")
    assert excinfo.value.errno == errno.EXDEV
    assert excinfo.value.filename == str(path)
    assert excinfo.value.filename2 is None
    assert path.read_text() == "kept\n"
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("error, base", [
    (TruncationOverflowError, RuntimeError),
    (NormDriftError, ValueError),
    (NonFiniteError, ValueError),
    (LostKickError, RuntimeError),
])
def test_numerical_errors_exit_3_and_keep_their_base(error, base, monkeypatch, capsys):
    assert issubclass(error, NumericalError) and issubclass(error, base)

    def fail(*args, **kwargs):
        raise error("stubbed")

    monkeypatch.setattr(cli, "ensemble_diffusion", fail)
    assert main(["classical", "--particles", "10", "--steps", "2"]) == 3
    assert capsys.readouterr().err == "numerical failure: stubbed\n"


@pytest.mark.parametrize(
    "document, argv, threads, message",
    [
        (None, "classical --tau 1e308 --particles 200 --steps 20", "1",
         "dispersion is nan at kick j = 2"),
        ("experiment = kicked\ntau = 1e308\nn_kicks = 3\nwindow_halfwidth = 50\n", None, "1",
         "norm drifted by nan, beyond 1e-06"),
        # classical blocks on helper threads, which run in the caller's error state
        ("experiment = classical\ntau = 1e308\nparticles = 200\nn_kicks = 20\n"
         "realizations = 4\n", None, "2", "dispersion is nan at kick j = 2"),
    ],
    ids=["classical", "kicked", "classical-pooled"],
)
def test_numerical_failure_prints_no_numpy_warnings(
    document, argv, threads, message, tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv("ZENO_MAP_THREADS", threads)
    if document is not None:
        path = tmp_path / "huge_tau.cfg"
        path.write_text(document)
        argv = f"run {path}"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv.split())
    assert code == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    assert captured.err == f"numerical failure: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, option",
    [
        ("classical --k nan", "--k"),
        ("classical --k -1", "--k"),
        ("classical --tau 0", "--tau"),
        ("classical --tau inf", "--tau"),
        ("classical --i0 nan", "--i0"),
        ("classical --particles 0", "--particles"),
        ("classical --steps 0", "--steps"),
        ("classical --seed -1", "--seed"),
        ("zeno --n 0", "--n"),
        ("zeno --n 3 --trials 0", "--trials"),
        ("zeno --n 3 --seed -1", "--seed"),
    ],
)
def test_bad_option_is_config_error_before_any_run(command, option, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("the simulation started with an invalid option")

    monkeypatch.setattr(cli, "ensemble_diffusion", no_run)
    monkeypatch.setattr(cli, "monte_carlo_measured_evolve", no_run)
    assert main(command.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"argument {option}:" in err
