"""Measurement plumbing, sweep plans, and the command-line front end."""

import csv
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import iotsim.bench as bench
from iotsim import rng
from iotsim.bench import (
    ExperimentPlan,
    RunMetrics,
    _union_span,
    collect_metrics,
    measure_peak_memory,
    run_experiment,
    sequential_schedule,
    write_csv,
)
from iotsim.cli import main, read_plan_file
from iotsim.config import ConfigError, SimConfig, SpawnTrigger
from iotsim.level0 import run_simulation


def _mini(**kw):
    base = dict(
        num_ses=10,
        density=1e-3,
        total_timesteps=4,
        generation_prob=0.05,
        l1_transport="loopback",
        seed=13,
    )
    base.update(kw)
    return SimConfig(**base)


# -- memory and time accounting ---------------------------------------------------


def test_peak_memory_is_positive_and_monotone():
    first = measure_peak_memory()
    if first is None:
        pytest.skip("no peak-RSS facility on this host")
    assert isinstance(first, int) and first > 0
    ballast = [0] * 2_000_000  # ~16 MB of pointers
    second = measure_peak_memory()
    del ballast
    assert second >= first


def test_union_span_merges_overlaps():
    assert _union_span([]) == 0.0
    assert _union_span([(0.0, 1.0), (2.0, 3.0)]) == pytest.approx(2.0)
    assert _union_span([(0.0, 2.0), (1.0, 3.0)]) == pytest.approx(3.0)
    assert _union_span([(0.0, 10.0), (2.0, 3.0)]) == pytest.approx(10.0)
    assert _union_span([(5.0, 6.0), (0.0, 1.0), (0.5, 0.9)]) == pytest.approx(2.0)


def test_collect_metrics_decomposes_wall_clock():
    cfg = _mini(l1_schedule=(SpawnTrigger(1, 0, 2),))
    result = run_simulation(cfg)
    metrics = collect_metrics(result, measure_peak_memory())
    assert len(metrics.l1_wct) == 1
    assert metrics.total_wct > 0
    assert 0 <= metrics.l0_only_wct <= metrics.total_wct
    assert metrics.total_wct - metrics.l0_only_wct >= 0
    assert metrics.counters == result.totals()
    assert metrics.config_echo["num_ses"] == 10
    assert metrics.config_echo["n_l1_sessions"] == 1


def test_metrics_json_round_trip():
    metrics = collect_metrics(run_simulation(_mini()), measure_peak_memory())
    clone = RunMetrics.from_json_obj(json.loads(json.dumps(metrics.to_json_obj())))
    assert clone.counters == metrics.counters
    assert clone.total_wct == metrics.total_wct
    assert clone.peak_rss_per_l1 == metrics.peak_rss_per_l1


# -- schedules ---------------------------------------------------------------------


def test_sequential_schedule_spreads_triggers():
    assert sequential_schedule(0, 100) == ()
    triggers = sequential_schedule(4, 100)
    steps = [t.at_timestep for t in triggers]
    assert steps == sorted(steps)
    assert len(set(steps)) == 4
    assert all(0 < s < 100 for s in steps)
    assert all(t.lp_id == 0 and t.entity_count == 1 for t in triggers)
    with pytest.raises(ConfigError):
        sequential_schedule(100, 100)
    with pytest.raises(ConfigError, match="^activations must be >= 0$"):
        sequential_schedule(-2, 10)


# -- experiment plans ----------------------------------------------------------------


def test_plan_validates_eagerly():
    with pytest.raises(ConfigError):
        ExperimentPlan(axis="bogus", values=(1,), repetitions=1, base=_mini())
    # Each repetition derives its own seed, so the seed is no axis.
    with pytest.raises(ConfigError):
        ExperimentPlan(axis="seed", values=(1,), repetitions=1, base=_mini())
    with pytest.raises(ConfigError):
        ExperimentPlan(axis="num_ses", values=(), repetitions=1, base=_mini())
    with pytest.raises(ConfigError):
        ExperimentPlan(axis="num_ses", values=(10,), repetitions=0, base=_mini())
    # A value that produces an invalid config fails at plan time, not run time.
    with pytest.raises(ConfigError):
        ExperimentPlan(axis="num_lps", values=(0,), repetitions=1, base=_mini())
    with pytest.raises(ConfigError):
        ExperimentPlan(axis="num_l1_activations", values=(99,), repetitions=1, base=_mini())


def test_plan_applies_axis_and_derives_sub_seeds():
    plan = ExperimentPlan(axis="num_ses", values=(10, 20), repetitions=2, base=_mini())
    c00 = plan.config_for(10, rep=0)
    assert c00.num_ses == 10
    assert plan.config_for(10, rep=0) == c00  # stable
    assert plan.config_for(10, rep=1).seed != c00.seed
    assert plan.config_for(20, rep=0).seed != c00.seed
    assert plan.config_for(20, rep=1).seed == rng.mix(plan.base.seed, rng.SWEEP, 1, 1)

    lp_plan = ExperimentPlan(axis="num_lps", values=(1, 2), repetitions=1, base=_mini())
    assert lp_plan.config_for(2, rep=0).num_lps == 2

    act_plan = ExperimentPlan(axis="num_l1_activations", values=(0, 3), repetitions=1, base=_mini())
    assert act_plan.config_for(0, rep=0).l1_schedule == ()
    assert len(act_plan.config_for(3, rep=0).l1_schedule) == 3


def test_sweep_rows_and_determinism():
    # Each repetition is a child given its config as flags: it computes what
    # an in-process run of the same config does.
    plan = ExperimentPlan(axis="num_ses", values=(10, 20), repetitions=2, base=_mini())
    rows = run_experiment(plan)
    assert len(rows) == 2
    for row, value in zip(rows, (10, 20)):
        assert row["axis"] == "num_ses"
        assert row["value"] == value
        assert row["status"] == "ok"
        assert row["reps_ok"] == 2 and row["reps_failed"] == 0
        assert row["num_ses"] == value
        totals = [run_simulation(plan.config_for(value, rep)).totals() for rep in range(2)]
        for counter in ("generated", "delivered", "forwarded", "duplicates"):
            assert row[f"{counter}_mean"] == sum(t[counter] for t in totals) / 2


def test_sweep_reports_each_runs_peak_memory(tmp_path):
    if measure_peak_memory() is None:
        pytest.skip("no peak-RSS facility on this host")
    plan = ExperimentPlan(axis="num_ses", values=(10, 20), repetitions=1, base=_mini())
    out = tmp_path / "sweep.csv"
    write_csv(run_experiment(plan), str(out))
    with out.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["status"] for r in rows] == ["ok", "ok"]
    assert all(float(r["peak_rss_l0_mean"]) > 0 for r in rows)


def test_sweep_over_a_float_option(tmp_path):
    path = tmp_path / "plan.txt"
    path.write_text("axis=gen-prob\nvalues=0.01,0.02\nreps=1\nses=10\ndensity=1e-3\ntimesteps=3\n")
    plan = read_plan_file(str(path))
    assert (plan.axis, plan.values) == ("generation_prob", (0.01, 0.02))
    rows = run_experiment(plan)
    assert [(r["axis"], r["value"], r["status"]) for r in rows] == [
        ("generation_prob", 0.01, "ok"),
        ("generation_prob", 0.02, "ok"),
    ]


_PATHLESS_SWEEP = """
import sys
sys.path.insert(0, {root!r})
from iotsim.bench import ExperimentPlan, run_experiment
from iotsim.config import SimConfig

base = SimConfig(num_ses=10, density=1e-3, total_timesteps=3, seed=5)
(row,) = run_experiment(ExperimentPlan("num_ses", (10,), 1, base))
print(row["status"])
"""


def test_sweep_children_run_when_iotsim_is_on_no_inherited_path(tmp_path):
    # The sweeping process finds iotsim through sys.path alone: its children
    # cannot inherit that, so they must be given the package's root.
    root = str(Path(bench.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-c", _PATHLESS_SWEEP.format(root=root)],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ok"], done.stderr


def test_sweep_notes_failed_repetitions_and_continues(monkeypatch, capsys):
    calls = {"n": 0}

    def flaky(config):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("synthetic crash")
        return collect_metrics(run_simulation(config), None)

    monkeypatch.setattr(bench, "_run_in_subprocess", flaky)
    plan = ExperimentPlan(axis="num_ses", values=(10, 20), repetitions=2, base=_mini())
    rows = run_experiment(plan)
    assert [r["status"] for r in rows] == ["partial", "ok"]
    assert rows[0]["reps_ok"] == 1 and rows[0]["reps_failed"] == 1
    assert "synthetic crash" in capsys.readouterr().err


def test_write_csv_covers_all_rows(tmp_path):
    plan = ExperimentPlan(axis="num_ses", values=(10,), repetitions=1, base=_mini())
    out = tmp_path / "sweep.csv"
    write_csv(run_experiment(plan), str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("axis,value,status,")
    assert len(lines) == 2
    assert lines[1].startswith("num_ses,10,ok,")


# -- plan files ---------------------------------------------------------------------


def test_read_plan_file(tmp_path):
    path = tmp_path / "plan.txt"
    path.write_text(
        "# scaling sweep\n"
        "axis=ses\n"
        "values=10,20\n"
        "reps=2\n"
        "gen-prob=0.05\n"
        "transport=loopback\n"
        "seed=13\n"
    )
    plan = read_plan_file(str(path))
    assert plan.axis == "num_ses"
    assert plan.values == (10, 20)
    assert plan.repetitions == 2
    assert plan.base.generation_prob == 0.05
    # Sweeps default to a short reference run unless the plan says otherwise.
    assert plan.base.total_timesteps == 100


def test_plan_axis_is_an_option_or_field_name(tmp_path):
    path = tmp_path / "plan.txt"
    for axis, values_text, field, values in (
        ("fine-steps", "50,100", "l1_fine_steps_per_timestep", (50, 100)),
        ("l1_fine_steps_per_timestep", "50", "l1_fine_steps_per_timestep", (50,)),
        ("transport", "tcp,loopback", "l1_transport", ("tcp", "loopback")),
        ("deliver-once", "no,yes", "deliver_once", (False, True)),
        ("l1-activations", "0,2", "num_l1_activations", (0, 2)),
        ("num_l1_activations", "1", "num_l1_activations", (1,)),
    ):
        path.write_text(f"axis={axis}\nvalues={values_text}\n")
        plan = read_plan_file(str(path))
        assert (plan.axis, plan.values) == (field, values)


def test_read_plan_file_rejects_bad_input(tmp_path):
    path = tmp_path / "plan.txt"
    # Every error names the file, and the line when one line is at fault.
    for text, where, match in (
        ("values=1,2\n", "", "plan needs at least axis= and values="),
        ("axis=warp\nvalues=1\n", ":1", "cannot sweep 'warp'"),
        ("axis=ses\nvalues=1\nnot-an-option=3\n", ":3", "unknown option"),
        # A plan has no mode: every repetition runs in a child.
        ("axis=ses\nvalues=1\nmode=in-process\n", ":3", "unknown option 'mode'"),
        ("axis=ses\nvalues=1\nreps=two\n", ":3", "invalid literal"),
        ("axis=ses\nvalues=8,1.5\n", ":2", "invalid literal"),
        # An empty entry is a lost value, not a separator to skip.
        ("axis=ses\nvalues=10,,20,\n", ":2", "values= has an empty entry"),
        ("axis=ses\nvalues=8\nses=abc\n", ":3", "invalid literal"),
        ("axis=ses\nvalues=8\n\n# a comment\ndeliver-once=maybe\n", ":5", "bad boolean"),
        ("axis=ses\nvalues=8\nl1-schedule=1:0\n", ":3", "bad trigger"),
        ("axis=seed\nvalues=1,2\n", ":1", "cannot sweep 'seed'"),
        ("axis=l1-schedule\nvalues=1:0:1\n", ":1", "cannot sweep 'l1-schedule'"),
        ("axis=ses\nvalues=1\nreps=0\n", ":3", "reps must be >= 1"),
        # A repeated value would get the same sub-seeds: a copied row.
        ("axis=ses\nvalues=10,10\n", ":2", "value 10 is listed more than once"),
        # Checks that need the whole config still name the values= line.
        ("axis=lps\nvalues=1,0\n", ":2", "num_lps must be >= 1"),
        ("axis=l1-activations\nvalues=0,-1,-2\n", ":2", "activations must be >= 0"),
        # A key given twice is refused, not last-wins.
        ("axis=ses\nvalues=10\nvalues=20\n", ":3", "'values' is already given on line 2"),
        ("axis=ses\nvalues=10\nseed=1\n\nseed=2\n", ":5", "'seed' is already given on line 3"),
        # A check across the base settings' fields names the plan.
        ("axis=ses\nvalues=10,20\nlps=0\n", "", "num_lps must be >= 1"),
    ):
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"{path}{where}: ") + match):
            read_plan_file(str(path))


# -- CLI ------------------------------------------------------------------------------


def test_cli_simulate_writes_report(capsys):
    code = main(
        [
            "simulate",
            "--ses", "10",
            "--density", "1e-3",
            "--timesteps", "3",
            "--gen-prob", "0.2",
            "--seed", "2",
            "--out", "-",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    # stdout is the CSV and nothing else; the summary line goes to stderr.
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert [int(row["timestep"]) for row in rows] == [0, 1, 2]
    assert captured.err.startswith("ok ses=10 lps=1 steps=3 seed=2")


def test_cli_simulate_refuses_two_reports_on_stdout(capsys):
    assert main(["simulate", "--ses", "10", "--out", "-", "--json-metrics", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: --out - and --json-metrics -" in captured.err


def test_cli_simulate_json_metrics(capsys):
    code = main(
        [
            "simulate",
            "--ses", "10",
            "--density", "1e-3",
            "--timesteps", "3",
            "--seed", "2",
            "--json-metrics", "-",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    metrics = RunMetrics.from_json_obj(json.loads(out))
    assert metrics.config_echo["num_ses"] == 10
    assert metrics.counters["generated"] >= 0


def test_cli_rejects_bad_values(capsys):
    assert main(["simulate", "--ses", "abc"]) == 2
    assert main(["simulate", "--ses", "0"]) == 2
    assert main(["simulate", "--l1-schedule", "5:0:1", "--timesteps", "3"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--range", "nan", "interaction_range must be finite, not nan"),
        ("--threshold", "nan", "forwarding_threshold must be finite, not nan"),
        ("--density", "nan", "density must be finite, not nan"),
        ("--density", "1e-320", "world_side must be finite: density 1e-320 is too small"),
    ],
)
def test_cli_rejects_non_finite_values(capsys, flag, value, message):
    assert main(["simulate", "--ses", "50", "--timesteps", "3", flag, value]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("how", ["flag", "config", "plan"])
def test_bad_value_exits_2_naming_its_source(tmp_path, capsys, how):
    cfg, plan = tmp_path / "run.cfg", tmp_path / "run.plan"
    cfg.write_text("timesteps=3\ndeliver-once=maybe\n")
    plan.write_text("axis=ses\nvalues=8\ndeliver-once=maybe\n")
    argv, source = {
        "flag": (["simulate", "--timesteps", "3", "--deliver-once", "maybe"], "--deliver-once"),
        "config": (["simulate", "--config", str(cfg)], f"{cfg}:2"),
        "plan": (["sweep", str(plan), "--out", str(tmp_path / "rows.csv")], f"{plan}:3"),
    }[how]
    assert main(argv) == 2
    assert f"config error: {source}: bad boolean 'maybe'" in capsys.readouterr().err


def test_cross_field_error_in_config_file_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("timesteps=3\nlps=0\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert f"config error: {cfg}: num_lps must be >= 1" in capsys.readouterr().err
    # The fault may lie in a flag given over the file: both are named.
    cfg.write_text("timesteps=3\n")
    assert main(["simulate", "--config", str(cfg), "--lps", "0", "--seed", "2"]) == 2
    assert f"config error: {cfg} with --lps --seed: num_lps must be >= 1" in capsys.readouterr().err


def test_cli_simulate_with_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ses=10\ndensity=1e-3\ntimesteps=3\nseed=4\n")
    code = main(["simulate", "--config", str(cfg), "--seed", "9"])
    out = capsys.readouterr().out
    assert code == 0
    assert "seed=9" in out  # flag wins over the file


def test_cli_sweep_runs_plan(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text(
        "axis=ses\nvalues=8,12\nreps=1\n"
        "timesteps=3\ngen-prob=0.1\nseed=6\n"
    )
    out_csv = tmp_path / "rows.csv"
    code = main(["sweep", str(plan), "--out", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[:4] == ["num_ses", "8", "ok", "1"]
    assert lines[2].split(",")[:4] == ["num_ses", "12", "ok", "1"]


def _load_tracing(monkeypatch):
    """perfbench's tracer module, loaded from its file: perfbench is not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    return tracing


def test_every_name_the_benchmark_traces_resolves(monkeypatch):
    # perfbench wraps these by name from outside the package, and its own
    # tests are not part of this suite: a rename must fail here too.
    tracing = _load_tracing(monkeypatch)
    targets = tracing.targets()
    missing = [(name, attr) for name, owner, attr, _ in targets if attr not in vars(owner)]
    assert targets
    assert missing == []


def test_every_name_the_benchmark_traces_is_called(monkeypatch):
    # A name that still resolves but that the engine no longer calls would
    # make its per-layer metric read 0 on working code.
    tracing = _load_tracing(monkeypatch)
    cfg = SimConfig(
        num_ses=40,
        num_lps=2,
        total_timesteps=3,
        generation_prob=0.2,
        l1_schedule=(SpawnTrigger(1, 0, 2), SpawnTrigger(1, 1, 2)),
        l1_fine_steps_per_timestep=20,
        l1_transport="loopback",
        seed=5,
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = run_simulation(cfg)
    finally:
        tracer.uninstall()
    assert {log.lp_id for log in result.session_logs} == {0, 1}
    seen = {s.name for s in tracer.spans} | set(tracer.tallies())
    exempt = {
        "protocol.connect",  # TCP sessions only
        "protocol.serve",  # the session child's side, never the engine's
        "rng.unit_uniform",  # the scalar reference draw; the engine draws in arrays
        "bench.collect_metrics",  # called by perfbench's worker around the run
        "bench.measure_peak_memory",
    }
    names = {name for name, *_ in tracing.targets()}
    assert exempt <= names
    assert sorted(names - exempt - seen) == []
