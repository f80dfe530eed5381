"""Config parsing, experiment execution, CSV and SVG output."""

import concurrent.futures
import dataclasses
import math
import os
import time
import warnings

import numpy as np
import pytest

import zenomap.kick_engine as kick_engine
import zenomap.pool as pool
import zenomap.runner as runner
from zenomap import (
    ClassicalEnsemble,
    ConfigError,
    NonFiniteError,
    ProbabilityPair,
    QuantumState,
    SpectrumModel,
    TruncationOverflowError,
)
from zenomap.chart import emit_chart, render_chart
from zenomap.classical import ensemble_series
from zenomap.measurement import PhaseRandomizer, apply_measurement
from zenomap.observables import DispersionSeries, dispersion
from zenomap.runner import (
    CONFIG_KEYS,
    PRESETS,
    ExperimentConfig,
    RunRecord,
    parse_config,
    render_csv,
    run_experiment,
    write_csv,
)

from reference import measured_evolve_closed


class TestParseConfig:
    def test_minimal_document_applies_defaults(self):
        config = parse_config("experiment = kicked\n")
        assert config.experiment == "kicked"
        assert config.m0 == 500
        assert config.k == 10.0
        assert config.tau == 1.0
        assert config.n_kicks == 1000
        assert config.window_halfwidth == 2000
        assert config.measurement_mode == "none"
        assert config.realizations == 1

    def test_comments_and_blank_lines(self):
        text = """
        # a full-line comment
        experiment = kicked
        k = 5.0   # inline comment
        n_kicks = 10
        """
        config = parse_config(text)
        assert config.k == 5.0
        assert config.n_kicks == 10

    def test_rule_table_covers_every_config_field(self):
        fields = [field.name for field in dataclasses.fields(ExperimentConfig)]
        assert list(CONFIG_KEYS) == fields

    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("experiment = kicked\nkick_power = 3\n")
        assert excinfo.value.key == "kick_power"
        assert excinfo.value.line == 2

    def test_missing_experiment_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("k = 10\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("experiment = kicked\nexperiment = classical\n")

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("experiment = kicked\nn_kicks = soon\n")
        assert excinfo.value.key == "n_kicks"

    def test_line_without_assignment_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("experiment kicked\n")

    def test_negative_kick_strength_rejected(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("experiment = kicked\nk = -1\n")
        assert excinfo.value.key == "k"

    def test_zero_tau_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("experiment = kicked\ntau = 0\n")

    def test_subset_mode_requires_subset(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("experiment = kicked\nmeasurement_mode = subset\n")
        assert excinfo.value.key == "subset"

    def test_subset_without_subset_mode_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("experiment = kicked\nsubset = 500\n")

    def test_duplicate_subset_states_name_key_and_line(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("experiment = kicked\nmeasurement_mode = subset\nsubset = 500, 500\n")
        assert excinfo.value.key == "subset"
        assert excinfo.value.line == 3

    def test_subset_parsing_and_window_check(self):
        config = parse_config(
            "experiment = kicked\nmeasurement_mode = subset\nsubset = 500, 501\n"
        )
        assert config.subset == (500, 501)
        with pytest.raises(ConfigError):
            parse_config(
                "experiment = kicked\nmeasurement_mode = subset\nsubset = 9000\n"
            )

    def test_bool_parsing(self):
        assert parse_config("experiment = kicked\nemit_svg = true\n").emit_svg
        with pytest.raises(ConfigError):
            parse_config("experiment = kicked\nemit_svg = maybe\n")

    def test_bad_experiment_value(self):
        with pytest.raises(ConfigError):
            parse_config("experiment = quantum\n")


@pytest.mark.parametrize(
    "fields, key",
    [
        ({"experiment": "classical", "k": float("nan")}, "k"),
        ({"tau": float("inf")}, "tau"),
        ({"experiment": "zeno", "omega": float("nan")}, "omega"),
        ({"n_kicks": 0}, "n_kicks"),
        ({"realizations": 0}, "realizations"),
        ({"seed": -1}, "seed"),
        ({"experiment": "bogus"}, "experiment"),
        ({"spectrum": "bogus"}, "spectrum"),
        ({"measurement_mode": "bogus"}, "measurement_mode"),
        ({"measurement_mode": "subset", "subset": (9000,)}, "subset"),
        ({"m0": 2**63, "k": 1.0, "n_kicks": 3, "window_halfwidth": 100}, "m0"),
        ({"experiment": "classical", "m0": -(10**400)}, "m0"),
    ],
)
def test_bad_config_is_rejected_when_built(fields, key):
    with pytest.raises(ConfigError) as excinfo:
        ExperimentConfig(**{"experiment": "kicked", **fields})
    assert excinfo.value.key == key


@pytest.mark.parametrize(
    "document, message",
    [
        ("m0 = 500\nexperiment = quantum\n",
         "must be one of zeno, kicked, classical (key 'experiment', line 2)"),
        ("experiment = kicked\nspectrum = flat\n",
         "must be one of rotator, linear, random (key 'spectrum', line 2)"),
        ("experiment = kicked\nmeasurement_mode = some\n",
         "must be one of none, subset, all, initial (key 'measurement_mode', line 2)"),
        ("experiment = kicked\nmeasurement_mode = initial\nsubset = 500\n",
         "subset given but mode is initial (key 'subset', line 3)"),
        ("experiment = kicked\nwindow_halfwidth = 31\n",
         "must be >= 32 for k = 10 (kick kernel of 65 states) (key 'window_halfwidth', line 2)"),
        # 2**63: the window's momenta would be float64, so every dispersion weight 0
        ("experiment = kicked\nm0 = 9223372036854775808\nk = 1\nn_kicks = 3\n"
         "window_halfwidth = 100\n",
         "must be between -2**53 and 2**53 (integers exact in float64) (key 'm0', line 2)"),
        ("experiment = classical\nm0 = -" + "9" * 400 + "\n",
         "must be between -2**53 and 2**53 (integers exact in float64) (key 'm0', line 2)"),
    ],
)
def test_config_message_is_pinned(document, message):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(document)
    assert str(excinfo.value) == message


def test_kick_wider_than_the_window_is_refused_without_building_the_kernel(monkeypatch):
    def refuse(k):
        raise AssertionError(f"build_kernel({k}) called")

    monkeypatch.setattr(runner, "build_kernel", refuse)
    with pytest.raises(ConfigError) as excinfo:
        parse_config("experiment = kicked\nk = 1e6\n")
    assert excinfo.value.key == "window_halfwidth"
    assert str(excinfo.value) == (
        "must be >= 1000000 for k = 1e+06 (the kick kernel reaches at least k "
        "states each way) (key 'window_halfwidth')"
    )


def test_only_a_kicked_run_needs_the_kernel_in_its_window():
    # k = 3000 reaches past the default window; a classical run has no window
    assert ExperimentConfig("classical", k=3000.0).k == 3000.0
    assert ExperimentConfig("kicked", k=0.0, window_halfwidth=8).window_halfwidth == 8
    assert ExperimentConfig("kicked", window_halfwidth=32).window_halfwidth == 32


# A value other than the default for every key but ``experiment``, as text.
_NON_DEFAULT = {
    "spectrum": "linear",
    "m0": "7",
    "k": "3.0",
    "tau": "0.5",
    "n_kicks": "3",
    "window_halfwidth": "300",
    "measurement_mode": "all",
    "measurement_period": "2",
    "subset": "7",
    "seed": "3",
    "realizations": "2",
    "output_path": "series.csv",
    "emit_svg": "true",
    "omega": "0.5",
    "particles": "50",
}
# What a kicked run needs beside a key for that key to be read.
_KICKED_CONDITION = {
    "tau": {"spectrum": "rotator"},
    "measurement_period": {"measurement_mode": "all"},
    "subset": {"measurement_mode": "subset"},
    "omega": {"spectrum": "linear"},
}
_SHARED = {"seed", "realizations", "output_path", "emit_svg"}
_READ = {
    "kicked": set(_NON_DEFAULT) - {"particles"},
    "classical": _SHARED | {"m0", "k", "tau", "n_kicks", "particles"},
    "zeno": _SHARED | {"tau", "omega", "n_kicks"},
}


def _document(experiment: str, values: dict) -> str:
    return "".join(f"{key} = {raw}\n" for key, raw in {"experiment": experiment, **values}.items())


@pytest.mark.parametrize("key", _NON_DEFAULT)
@pytest.mark.parametrize("experiment", _READ)
def test_a_key_is_accepted_only_by_a_run_that_reads_it(experiment, key):
    # the key goes last, so its line is the document's last
    values = {**(_KICKED_CONDITION.get(key, {}) if experiment == "kicked" else {}),
              key: _NON_DEFAULT[key]}
    fields = {name: CONFIG_KEYS[name].parse(raw) for name, raw in values.items()}
    document = _document(experiment, values)
    if key in _READ[experiment]:
        assert getattr(ExperimentConfig(experiment, **fields), key) == fields[key]
        assert getattr(parse_config(document), key) == fields[key]
        return
    with pytest.raises(ConfigError) as excinfo:
        ExperimentConfig(experiment, **fields)
    assert excinfo.value.key == key
    with pytest.raises(ConfigError) as excinfo:
        parse_config(document)
    assert str(excinfo.value) == (
        f"a {experiment} run does not read this key (key '{key}', line {len(values) + 1})"
    )


@pytest.mark.parametrize(
    "key, condition, read",
    [
        ("tau", {"spectrum": "rotator"}, True),
        ("tau", {"spectrum": "linear"}, True),
        ("tau", {"spectrum": "random"}, False),
        ("omega", {"spectrum": "linear"}, True),
        ("omega", {"spectrum": "rotator"}, False),
        ("omega", {"spectrum": "random"}, False),
        ("measurement_period", {"measurement_mode": "all"}, True),
        ("measurement_period", {"measurement_mode": "initial"}, True),
        ("measurement_period", {"measurement_mode": "subset", "subset": "500"}, True),
        ("measurement_period", {"measurement_mode": "none"}, False),
    ],
)
def test_a_kicked_run_reads_some_keys_only_under_a_condition(key, condition, read):
    values = {**condition, key: _NON_DEFAULT[key]}
    fields = {name: CONFIG_KEYS[name].parse(raw) for name, raw in values.items()}
    document = _document("kicked", values)
    if read:
        assert getattr(ExperimentConfig("kicked", **fields), key) == fields[key]
        assert getattr(parse_config(document), key) == fields[key]
        return
    with pytest.raises(ConfigError) as excinfo:
        ExperimentConfig("kicked", **fields)
    assert excinfo.value.key == key
    with pytest.raises(ConfigError) as excinfo:
        parse_config(document)
    assert excinfo.value.key == key
    assert excinfo.value.line == len(values) + 1


@pytest.mark.parametrize(
    "document, message",
    [
        ("experiment = kicked\nspectrum = random\ntau = 2\n",
         "a kicked run reads this key only with spectrum = rotator or linear "
         "(key 'tau', line 3)"),
        ("experiment = kicked\nomega = 2\n",
         "a kicked run reads this key only with spectrum = linear (key 'omega', line 2)"),
        ("experiment = kicked\nmeasurement_period = 5\n",
         "a kicked run reads this key only with measurement_mode = subset or all or initial "
         "(key 'measurement_period', line 2)"),
        ("experiment = classical\nmeasurement_mode = all\n",
         "a classical run does not read this key (key 'measurement_mode', line 2)"),
    ],
)
def test_an_unread_key_message_is_pinned(document, message):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(document)
    assert str(excinfo.value) == message


def test_a_default_value_written_out_is_accepted_by_every_run():
    for experiment in _READ:
        config = parse_config(_document(experiment, {
            "spectrum": "rotator", "measurement_mode": "none", "measurement_period": "1",
            "window_halfwidth": "2000", "omega": "1.0", "particles": "10000", "k": "10",
        }))
        assert config == ExperimentConfig(experiment)


@pytest.mark.parametrize("experiment", ["classical", "zeno"])
@pytest.mark.parametrize("letter", PRESETS)
def test_only_a_kicked_run_takes_a_preset(experiment, letter):
    with pytest.raises(ConfigError) as excinfo:
        ExperimentConfig(experiment).with_preset(letter)
    assert str(excinfo.value) == (
        f"preset '{letter}' sets a kicked run's readout; this is a {experiment} run"
    )


def test_replace_checks_the_new_config():
    config = parse_config("experiment = kicked\nseed = 4\n")
    with pytest.raises(ConfigError) as excinfo:
        dataclasses.replace(config, seed=-1)
    assert excinfo.value.key == "seed"
    assert excinfo.value.line is None


class TestPresets:
    def test_preset_schedules(self):
        base = parse_config("experiment = kicked\n")
        assert base.with_preset("a").schedule().mode == "none"
        b = base.with_preset("b")
        assert b.schedule().mode == "initial"
        assert b.schedule().subset is None
        assert b.schedule().period == 1
        c = base.with_preset("c")
        assert c.schedule().mode == "all"
        assert c.schedule().period == 200
        d = base.with_preset("d")
        assert d.schedule().mode == "all"
        assert d.schedule().period == 1

    def test_initial_preset_csv_equals_the_subset_document(self):
        document = (
            "experiment = kicked\nn_kicks = 60\nwindow_halfwidth = 300\n"
            "realizations = 2\nseed = 6\n"
        )
        initial = parse_config(document).with_preset("b")
        subset = parse_config(document + "measurement_mode = subset\nsubset = 500\n")
        assert render_csv(run_experiment(initial).aggregate) == render_csv(
            run_experiment(subset).aggregate
        )

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            parse_config("experiment = kicked\n").with_preset("e")


def _small_config(**overrides) -> ExperimentConfig:
    base = dict(
        experiment="kicked", n_kicks=40, window_halfwidth=400, seed=5,
        measurement_mode="all", measurement_period=1, realizations=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_start_row_and_length(self):
        record = run_experiment(_small_config())
        series = record.aggregate
        assert len(series) == 41
        assert series.j[0] == 0
        assert series.dispersion[0] == 0.0
        assert series.norm[0] == 1.0
        assert series.p_m0[0] == 1.0

    def test_deterministic_given_seed(self):
        a = run_experiment(_small_config())
        b = run_experiment(_small_config())
        assert render_csv(a.aggregate) == render_csv(b.aggregate)

    def test_records_compare_and_hash_by_identity(self):
        a = run_experiment(_small_config(n_kicks=5))
        b = run_experiment(_small_config(n_kicks=5))
        assert a == a
        assert a != b
        assert len({a, b, a}) == 2
        assert a.config == b.config

    def test_realizations_differ_but_aggregate_is_their_mean(self):
        record = run_experiment(_small_config())
        rows = record.realizations.dispersion
        assert rows.shape == (3, 41)
        assert not np.array_equal(rows[0], rows[1])
        stacked = np.mean(list(rows), axis=0)
        assert np.array_equal(record.aggregate.dispersion, stacked)
        with pytest.raises(ValueError):
            rows[0, 1] = 0.0

    def test_realization_series_is_one_series_per_row(self):
        # perfbench/worker.py reads realization_series
        record = run_experiment(_small_config(n_kicks=5))
        runs = record.realizations
        assert len(record.realization_series) == 3
        for r, series in enumerate(record.realization_series):
            assert np.array_equal(series.j, runs.j)
            for column in ("dispersion", "norm", "p_m0"):
                assert np.array_equal(getattr(series, column), getattr(runs, column)[r])

    @pytest.mark.parametrize(
        "config",
        [
            _small_config(),
            # classical realizations run on the pool, each with its own buffers
            ExperimentConfig("classical", particles=300, n_kicks=30, realizations=5),
        ],
        ids=["kicked", "classical"],
    )
    def test_thread_count_does_not_change_output(self, monkeypatch, config):
        monkeypatch.setenv("ZENO_MAP_THREADS", "1")
        serial = run_experiment(config)
        monkeypatch.setenv("ZENO_MAP_THREADS", "4")
        threaded = run_experiment(config)
        assert render_csv(serial.aggregate) == render_csv(threaded.aggregate)

    def test_default_thread_budget_follows_cpu_affinity(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started with one usable CPU")

        monkeypatch.delenv("ZENO_MAP_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        # classical realizations, since kicked ones never start a pool
        config = ExperimentConfig("classical", n_kicks=5, particles=50, realizations=3)
        record = run_experiment(config)
        assert record.realizations.dispersion.shape == (3, 6)

    def test_kicked_realizations_run_on_the_calling_thread(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a kicked run started a thread pool")

        monkeypatch.setenv("ZENO_MAP_THREADS", "2")
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        record = run_experiment(_small_config(n_kicks=5))
        assert record.realizations.dispersion.shape == (3, 6)

    def test_classical_realizations_share_the_thread_budget(self, monkeypatch):
        started = []
        real_pool = concurrent.futures.ThreadPoolExecutor

        def counted_pool(max_workers):
            started.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setenv("ZENO_MAP_THREADS", "2")
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counted_pool)
        run_experiment(ExperimentConfig("classical", n_kicks=5, particles=50, realizations=3))
        assert started == [2]

    def test_invalid_thread_budget_rejected(self, monkeypatch):
        monkeypatch.setenv("ZENO_MAP_THREADS", "zero")
        with pytest.raises(ConfigError):
            run_experiment(_small_config())
        monkeypatch.setenv("ZENO_MAP_THREADS", "0")
        with pytest.raises(ConfigError):
            run_experiment(_small_config())

    def test_zeno_rows_are_checked_by_the_record(self):
        # the phase overflows, so the closed form is nan from the first segment
        config = ExperimentConfig("zeno", tau=1e308, omega=1e308, n_kicks=5)
        with pytest.raises(NonFiniteError, match=r"^dispersion is nan at kick j = 1$"):
            run_experiment(config)

    def test_truncation_overflow_recommends_wider_window(self):
        config = _small_config(
            k=5.0, n_kicks=300, window_halfwidth=30, measurement_mode="none",
            realizations=1,
        )
        with pytest.raises(TruncationOverflowError) as excinfo:
            run_experiment(config)
        assert str(excinfo.value) == (
            "run aborted after kick 1: probability 7.430e-04 within 23 states of both "
            "window edges (m_min=470, m_max=530) exceeds 1e-10; rerun with a "
            "window_halfwidth larger than 30"
        )
        assert excinfo.value.edge == "both"

    def test_zeno_series_follows_closed_form(self):
        config = ExperimentConfig(experiment="zeno", n_kicks=20, omega=1.0, tau=1.0)
        record = run_experiment(config)
        series = record.aggregate
        for j in range(21):
            expected = measured_evolve_closed(ProbabilityPair(1.0, 0.0), 0.5, j)
            assert series.p_m0[j] == expected.p1
            assert series.dispersion[j] == expected.p2
        assert np.all(series.norm == 1.0)

    @pytest.mark.parametrize("fields", [
        dict(experiment="zeno", n_kicks=200, omega=0.37, tau=1.3),
        dict(experiment="kicked", n_kicks=60, window_halfwidth=400, seed=1,
             measurement_mode="none"),
    ], ids=["zeno", "preset-a"])
    def test_run_without_random_input_is_independent_of_realizations(self, fields):
        csvs = [
            render_csv(run_experiment(ExperimentConfig(**fields, realizations=r)).aggregate)
            for r in (1, 2, 3, 20)
        ]
        assert csvs[1:] == csvs[:1] * 3

    def test_run_without_readout_is_computed_once(self, monkeypatch):
        calls = []
        real_step = runner.step

        def counted_step(*args):
            calls.append(1)
            return real_step(*args)

        monkeypatch.setattr(runner, "step", counted_step)
        record = run_experiment(_small_config(n_kicks=30, measurement_mode="none"))
        assert len(calls) == 30
        for column in ("dispersion", "norm", "p_m0"):
            rows = getattr(record.realizations, column)
            assert rows.shape == (3, 31)
            assert rows.strides[0] == 0  # one row, broadcast read-only
            assert np.array_equal(getattr(record.aggregate, column), rows[0])
            with pytest.raises(ValueError):
                rows[0, 0] = 0.0
        # a readout whose period exceeds the run never fires: one row, the
        # unmeasured run's bytes
        calls.clear()
        never = _small_config(
            n_kicks=50, measurement_mode="initial", measurement_period=100, realizations=3
        )
        csv = render_csv(run_experiment(never).aggregate)
        assert len(calls) == 50
        assert csv == render_csv(run_experiment(never.with_preset("a")).aggregate)

    def test_classical_series_runs(self):
        config = ExperimentConfig(
            experiment="classical", n_kicks=50, particles=400, seed=2
        )
        record = run_experiment(config)
        assert len(record.aggregate) == 51
        assert record.aggregate.dispersion[50] > 0.0

    def test_wall_time_and_version_recorded(self):
        record = run_experiment(_small_config(realizations=1, n_kicks=10))
        assert record.wall_time >= 0.0
        assert record.version

    def test_realizations_share_one_read_only_set_up(self, monkeypatch):
        built, seen = [], []
        real_init, real_step = SpectrumModel.__post_init__, runner.step

        def counted_init(spectrum):
            built.append(spectrum)
            real_init(spectrum)

        def spied_step(state, kernel, spectrum):
            seen.append((state.window, kernel, spectrum))
            return real_step(state, kernel, spectrum)

        monkeypatch.setattr(SpectrumModel, "__post_init__", counted_init)
        monkeypatch.setattr(runner, "step", spied_step)
        run_experiment(_small_config(n_kicks=4, realizations=3))
        assert len(built) == 1
        assert len(seen) == 12
        assert len({tuple(map(id, shared)) for shared in seen}) == 1
        window, kernel, spectrum = seen[0]
        for array in (window.dispersion_weights, kernel.coefficients, spectrum.multiplier):
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize("preset", ["b", "d", "one-state subset"])
    def test_every_kick_goes_through_the_traced_calls(self, monkeypatch, preset):
        # The benchmark's tracer wraps these attributes and gates on the call
        # and draw counts, so a hot path that bypasses them must fail here.
        config = _small_config(k=5.0, window_halfwidth=200, n_kicks=20, realizations=2)
        if preset == "one-state subset":  # one state away from m0
            config = dataclasses.replace(config, measurement_mode="subset", subset=(507,))
        else:
            config = config.with_preset(preset)
        expected = run_experiment(config).aggregate
        calls = dict.fromkeys(("step", "apply_kick", "apply_free", "apply_measurement",
                               "dispersion", "norm_sq", "draws"), 0)

        def counted(name, fn, amount=lambda *args: 1):
            def wrapper(*args, **kwargs):
                calls[name] += amount(*args)
                return fn(*args, **kwargs)
            return wrapper

        for owner, name in ((runner, "step"), (runner, "apply_measurement"),
                            (runner, "dispersion"), (kick_engine, "apply_kick"),
                            (kick_engine, "apply_free"), (QuantumState, "norm_sq")):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        monkeypatch.setattr(PhaseRandomizer, "phases", counted(
            "draws", PhaseRandomizer.phases, lambda rng, count: count))
        series = run_experiment(config).aggregate
        kicks = config.realizations * config.n_kicks
        assert calls == {
            "step": kicks, "apply_kick": kicks, "apply_free": kicks, "apply_measurement": kicks,
            "dispersion": kicks + config.realizations, "norm_sq": kicks + config.realizations,
            "draws": kicks * (config.window().size if preset == "d" else 1),
        }
        for column in ("dispersion", "norm", "p_m0"):
            assert np.array_equal(getattr(series, column), getattr(expected, column))

    @pytest.mark.parametrize("preset", "bd")
    def test_one_state_per_realization(self, monkeypatch, preset):
        # every kicked operation writes into the realization's one state
        config = _small_config(
            k=5.0, window_halfwidth=200, n_kicks=20, realizations=3,
        ).with_preset(preset)
        built = []
        real_init = QuantumState.__post_init__

        def counted_init(state):
            built.append(state)
            real_init(state)

        monkeypatch.setattr(QuantumState, "__post_init__", counted_init)
        run_experiment(config)
        assert len(built) == config.realizations

    @pytest.mark.parametrize("preset", ["a", "b", "c", "d", "subset", "one-state subset"])
    def test_rows_equal_a_loop_of_the_public_calls(self, preset):
        # The documented path, a loop of step and apply_measurement, must
        # give the runner's rows bit for bit.
        config = _small_config(k=5.0, window_halfwidth=200, n_kicks=30, realizations=2)
        if preset.endswith("subset"):
            subset = (507,) if preset == "one-state subset" else (507, 500, 495)
            config = dataclasses.replace(config, measurement_mode="subset",
                                         subset=subset, measurement_period=3)
        else:
            config = config.with_preset(preset)
        if preset == "c":  # preset c's period of 200 never fires in 30 kicks
            config = dataclasses.replace(config, measurement_period=7)
        runs = run_experiment(config).realizations
        got = np.stack([runs.dispersion, runs.norm, runs.p_m0])
        assert np.array_equal(got.view(np.int64), _public_rows(config).view(np.int64))


def _public_rows(config: ExperimentConfig) -> np.ndarray:
    """A kicked run's (3, R, n + 1) rows from the public calls alone; the
    readout fires after every ``measurement_period``-th kick."""
    window = config.window()
    kernel = kick_engine.build_kernel(config.k)
    spectrum = config.spectrum_model(window)
    schedule = config.schedule()
    home = window.offset(config.m0)
    rows = np.empty((3, config.realizations, config.n_kicks + 1))
    for r in range(config.realizations):
        rng = PhaseRandomizer(config.seed, r)
        state = QuantumState.delta(window)
        for kick in range(config.n_kicks + 1):
            if kick:
                kick_engine.step(state, kernel, spectrum)
                if config.measurement_mode != "none" and kick % config.measurement_period == 0:
                    apply_measurement(state, schedule, rng)
            rows[:, r, kick] = (
                dispersion(state), state.norm_sq(), abs(state.amplitudes[home]) ** 2
            )
    return rows


def _alone(config: ExperimentConfig, r: int) -> DispersionSeries:
    """Realization ``r`` of a classical run, evolved as an ensemble of its own."""
    ensemble = ClassicalEnsemble.prepared(
        config.particles, float(config.m0), config.tau, config.k,
        seed=np.random.SeedSequence(config.seed, spawn_key=(0, r)),
    )
    return ensemble_series(ensemble, config.n_kicks)


def _spied_blocks(monkeypatch, config: ExperimentConfig) -> list:
    """Record (first row, particles, realizations, steps) of every
    ``runner.ensemble_series`` call of a classical run of ``config``.

    Pool threads make the calls in either order; the first row is the
    realization whose first prepared angle starts the block, so sorting the
    calls puts them in row order.
    """
    rows = {
        ClassicalEnsemble.prepared(
            config.particles, float(config.m0), config.tau, config.k,
            seed=np.random.SeedSequence(config.seed, spawn_key=(0, r)),
        ).particles[0]: r
        for r in range(config.realizations)
    }
    assert len(rows) == config.realizations
    calls = []
    real = runner.ensemble_series

    def spied(ensemble, steps):
        first = rows[ensemble.particles[0]]
        calls.append((first, len(ensemble.particles), ensemble.realizations, steps))
        return real(ensemble, steps)

    monkeypatch.setattr(runner, "ensemble_series", spied)
    return calls


class TestClassicalBlocks:
    @pytest.mark.parametrize("threads, rows, blocks", [
        ("1", 1, [1] * 7),
        ("1", 2, [2, 2, 2, 1]),  # a partial last block
        ("1", 7, [7]),
        ("2", 2, [2, 2, 2, 1]),
        ("2", 7, [4, 3]),  # no more rows than it takes to give each thread a block
    ])
    def test_rows_equal_each_realization_alone(self, monkeypatch, threads, rows, blocks):
        config = ExperimentConfig("classical", particles=300, n_kicks=30, realizations=7, seed=4)
        monkeypatch.setenv("ZENO_MAP_THREADS", threads)
        monkeypatch.setattr(runner, "_BLOCK_PARTICLES", rows * config.particles)
        calls = _spied_blocks(monkeypatch, config)
        runs = run_experiment(config).realizations
        firsts = [sum(blocks[:i]) for i in range(len(blocks))]
        assert sorted(calls) == [
            (first, b * config.particles, b, config.n_kicks) for first, b in zip(firsts, blocks)
        ]
        for r in range(config.realizations):
            alone = _alone(config, r)
            for column in ("dispersion", "norm", "p_m0"):
                assert np.array_equal(
                    getattr(runs, column)[r].view(np.int64), getattr(alone, column).view(np.int64)
                )

    def test_budget_below_one_realization_gives_one_row(self, monkeypatch):
        config = ExperimentConfig("classical", particles=300, n_kicks=5, realizations=3)
        monkeypatch.setattr(runner, "_BLOCK_PARTICLES", 100)
        calls = _spied_blocks(monkeypatch, config)
        run_experiment(config)
        assert sorted(calls) == [(r, 300, 1, 5) for r in range(3)]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_every_particle_step_goes_through_ensemble_series(self, monkeypatch, threads):
        # The benchmark's tracer wraps runner.ensemble_series and gates on
        # classical.particle_steps, the sum of len(particles) * steps over its
        # calls; a runner that bypasses it must fail here.
        config = ExperimentConfig("classical", particles=10_000, n_kicks=3, realizations=20,
                                  seed=1)
        monkeypatch.setenv("ZENO_MAP_THREADS", threads)
        expected = run_experiment(config).aggregate
        calls = _spied_blocks(monkeypatch, config)
        series = run_experiment(config).aggregate
        rows = min(max(1, runner._BLOCK_PARTICLES // config.particles),
                   math.ceil(config.realizations / int(threads)))
        assert sum(particles * steps for _, particles, _, steps in calls) == 10_000 * 3 * 20
        assert len(calls) == math.ceil(config.realizations / rows)
        for column in ("dispersion", "norm", "p_m0"):
            assert np.array_equal(getattr(series, column), getattr(expected, column))

    @pytest.mark.parametrize("threads, rows", [("1", 1), ("1", 2), ("1", 7), ("2", 7)])
    def test_lowest_failing_realization_is_raised(self, monkeypatch, threads, rows):
        # tau * action overflows once |action| > 36: realization 0 never gets
        # there, realization 1 first fails at kick 26 and realization 2 at kick 6
        config = ExperimentConfig("classical", m0=0, tau=5e306, particles=1, n_kicks=40,
                                  realizations=7, seed=3)
        monkeypatch.setenv("ZENO_MAP_THREADS", threads)
        monkeypatch.setattr(runner, "_BLOCK_PARTICLES", rows)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NonFiniteError) as excinfo:
                run_experiment(config)
            with pytest.raises(NonFiniteError) as alone:
                _alone(config, 1)
            _alone(config, 0)
        assert str(excinfo.value) == str(alone.value) == "dispersion is nan at kick j = 26"


class TestMapChunks:
    @pytest.mark.parametrize("failing", [0, 1])
    def test_failing_chunk_cancels_the_chunks_not_started(self, monkeypatch, failing):
        # With failing = 1, chunk 0 is still running when chunk 1 fails.
        monkeypatch.setenv("ZENO_MAP_THREADS", "2")
        started = []

        def chunk(lo, hi):
            started.append(lo)
            if lo == failing:
                raise RuntimeError(f"chunk {lo} failed")
            time.sleep(0.3 if lo == 0 else 0.01)

        with pytest.raises(RuntimeError, match=f"chunk {failing}"):
            pool.map_chunks(chunk, 40, cap=1)
        assert len(started) < 16

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_lowest_failing_chunk_is_raised(self, monkeypatch, threads):
        # Chunk 2 fails first in time; a serial run raises chunk 1's error.
        monkeypatch.setenv("ZENO_MAP_THREADS", threads)

        def chunk(lo, hi):
            if lo == 1:
                time.sleep(0.2)
            if lo in (1, 2):
                raise RuntimeError(f"chunk {lo} failed")

        with pytest.raises(RuntimeError, match="chunk 1"):
            pool.map_chunks(chunk, 6, cap=1)

    @pytest.mark.parametrize("total, threads, cap, chunks", [
        (7, 1, None, [(0, 7)]),
        (7, 2, None, [(0, 4), (4, 7)]),  # a partial last chunk
        (2, 4, None, [(0, 1), (1, 2)]),  # fewer items than threads
        (5, 2, 1, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
        (10, 2, 8, [(0, 5), (5, 10)]),  # a cap above total / threads
        (7, 2, 2, [(0, 2), (2, 4), (4, 6), (6, 7)]),
        (1001, 3, None, [(0, 334), (334, 668), (668, 1001)]),
        (100_000, 2, None, [(0, 50_000), (50_000, 100_000)]),
    ])
    def test_chunk_layout(self, monkeypatch, total, threads, cap, chunks):
        monkeypatch.setenv("ZENO_MAP_THREADS", str(threads))
        started = []
        real_pool = concurrent.futures.ThreadPoolExecutor

        def counted_pool(max_workers):
            started.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counted_pool)
        calls = []
        assert pool.map_chunks(lambda lo, hi: calls.append((lo, hi)), total, cap) is None
        assert sorted(calls) == chunks
        workers = min(threads, len(chunks))
        assert started == ([workers] if workers > 1 else [])

    @pytest.mark.parametrize("total, threads", [(1, 2), (9, 1)])
    def test_one_chunk_or_one_thread_starts_no_pool(self, monkeypatch, total, threads):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setenv("ZENO_MAP_THREADS", str(threads))
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        calls = []
        pool.map_chunks(lambda lo, hi: calls.append((lo, hi)), total)
        assert calls == [(0, total)]

    def test_chunks_run_in_the_callers_numpy_error_state(self, monkeypatch):
        monkeypatch.setenv("ZENO_MAP_THREADS", "2")
        seen = []
        with np.errstate(over="ignore", invalid="raise"):
            pool.map_chunks(lambda lo, hi: seen.append(np.geterr()), 4)
        assert len(seen) == 2
        assert all(err["over"] == "ignore" and err["invalid"] == "raise" for err in seen)

    def test_invalid_thread_budget_rejected(self, monkeypatch):
        monkeypatch.setenv("ZENO_MAP_THREADS", "0")
        with pytest.raises(ConfigError):
            pool.map_chunks(lambda lo, hi: None, 1)


class TestScenarioOrdering:
    def test_single_seed_rotator_curves_order_as_expected(
        self, curve_a, curve_b_record, curve_c_record, curve_d_record
    ):
        # one realization each: frequent full measurement diffuses fastest,
        # periodic full measurement staircases above the unmeasured run, and
        # initial-state-only stays above unmeasured through its active window
        a = curve_a["series"]
        b = curve_b_record.realizations.dispersion[0]
        c = curve_c_record.realizations.dispersion[0]
        d = curve_d_record.realizations.dispersion[0]
        assert d[-1] > c[-1] > a.dispersion[-1]

        def smooth(x):
            return np.convolve(x, np.ones(50) / 50, mode="valid")

        active = slice(100, 552)  # smoothed 50-kick windows covering [100, 600]
        assert np.all(smooth(b)[active] > smooth(a.dispersion)[active])


class TestCsv:
    def _tiny_record(self):
        series = DispersionSeries(
            [0, 1, 2], [0.0, 50.0, 101.5], [1.0, 1.0, 1.0], [1.0, 0.25, 0.125]
        )
        rows = DispersionSeries(series.j, [series.dispersion], [series.norm], [series.p_m0])
        return RunRecord(ExperimentConfig(experiment="kicked"), rows, series, 0.0)

    def test_header_and_row_count(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(self._tiny_record(), str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "j,dispersion,norm,p_m0"
        assert len(lines) == 4

    def test_final_newline(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(self._tiny_record(), str(path))
        assert path.read_bytes().endswith(b"\n")

    def test_round_trip_is_exact(self, tmp_path):
        config = _small_config(realizations=1, n_kicks=30)
        record = run_experiment(config)
        path = tmp_path / "run.csv"
        write_csv(record, str(path))
        rows = np.genfromtxt(str(path), delimiter=",", names=True)
        assert np.array_equal(rows["dispersion"], record.aggregate.dispersion)
        assert np.array_equal(rows["norm"], record.aggregate.norm)
        assert np.array_equal(rows["p_m0"], record.aggregate.p_m0)

    def test_start_row_rendering(self):
        text = render_csv(self._tiny_record().aggregate)
        assert text.splitlines()[1] == "0,0.0,1.0,1.0"


class TestChart:
    def _record(self, **overrides):
        config = _small_config(realizations=1, n_kicks=20, **overrides)
        return run_experiment(config)

    def test_one_polyline_per_record(self, tmp_path):
        records = [self._record(), self._record(measurement_mode="none")]
        path = tmp_path / "chart.svg"
        emit_chart(records, str(path))
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert text.startswith("<svg")
        assert "kick index j" in text

    def test_legend_labels_modes(self):
        records = [self._record(), self._record(measurement_mode="none")]
        text = render_chart(records)
        assert "all states, every kick" in text
        assert "no measurement" in text

    def test_deterministic_bytes(self):
        record = self._record()
        assert render_chart([record]) == render_chart([record])

    def test_empty_record_list_rejected(self):
        with pytest.raises(ValueError):
            render_chart([])

    def test_four_scenario_chart(self, tmp_path):
        base = parse_config("experiment = kicked\nn_kicks = 20\nwindow_halfwidth = 300\n")
        records = [
            run_experiment(base.with_preset(letter)) for letter in "abcd"
        ]
        path = tmp_path / "scenarios.svg"
        emit_chart(records, str(path))
        text = path.read_text()
        assert text.count("<polyline") == 4
        assert "initial state, every kick" in text
        assert "all states, every 200 kicks" in text
