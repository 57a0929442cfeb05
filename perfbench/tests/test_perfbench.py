"""Tests of the benchmark itself: workloads, digest, tracer, runner.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from iotsim import SimConfig
from iotsim.config import SpawnTrigger

import run as runner
import tracing
import worker
import workloads
from tracing import Span

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_builds_a_valid_config(name):
    workload = workloads.WORKLOADS[name]
    for seed in (0, 1, 12345):
        for index in range(workload.inputs):
            config = workload.config(workload.config_seed(seed, index))
            assert isinstance(config, SimConfig)
            assert config.seed == workloads.SEED_STRIDE * seed + index
    if config.l1_schedule:
        assert len(config.l1_schedule) == 30
    with pytest.raises(ValueError):
        workload.config_seed(1, workload.inputs)


def test_digest_is_identical_across_fresh_processes():
    script = (
        "import workloads\n"
        "from iotsim import SimConfig, run_simulation\n"
        "cfg = SimConfig(num_ses=120, total_timesteps=6, generation_prob=0.05, num_lps=2,\n"
        "                l1_transport='loopback', l1_schedule=((2, 1, 3),), seed=5)\n"
        "print(workloads.digest(run_simulation(cfg)))\n"
    )
    digests = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH))))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]
    assert len(digests[0]) == 64


def test_uninstall_restores_every_original():
    originals = [(owner, attr, vars(owner)[attr]) for _, owner, attr, _ in tracing.targets()]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not raw for owner, attr, raw in originals)
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is raw for owner, attr, raw in originals)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, "root", 0.0, 10.0, None, "t"),
        Span(2, "a", 1.0, 4.0, 1, "t"),
        Span(3, "b", 3.0, 6.0, 1, "t"),  # overlaps a: together they cover 1..6
        Span(4, "leaf", 2.0, 3.0, 2, "t"),
        Span(5, "c", 9.0, 12.0, 1, "u"),  # counted only inside its parent
        Span(6, "a", 20.0, 21.0, None, "t"),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({1: 10.0 - 5.0 - 1.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 3.0, 6: 1.0})
    by_name = tracing.summarize(spans)
    assert by_name["a"] == pytest.approx({"calls": 2, "s": 4.0, "self_s": 3.0})


def _traced(config):
    tracer = tracing.Tracer()
    _, result, metrics = worker.simulate(lambda: config, tracer)
    spans = tracing.attach_sessions(tracer.spans, result.session_logs, config.num_lps)
    return spans, tracing.layer_metrics(spans, tracer.tallies(), result, metrics), result


def test_tcp_client_time_plus_spawn_is_the_session_time(monkeypatch):
    # The session children are ``python -m iotsim l1-server``.
    monkeypatch.setenv("PYTHONPATH", runner.child_env()["PYTHONPATH"])
    config = SimConfig(num_ses=80, total_timesteps=4, generation_prob=0.02, num_lps=2,
                       l1_transport="tcp", l1_schedule=(SpawnTrigger(1, 0, 2), SpawnTrigger(1, 1, 2)),
                       seed=3)
    spans, layers, result = _traced(config)
    client = [layers[f"protocol.{part}.s"] for part in ("handshake", "step", "finish")]
    assert all(value > 0 for value in client)
    assert layers["protocol.spawn_s"] > 0
    assert sum(client) + layers["protocol.spawn_s"] == pytest.approx(
        sum(log.wct for log in result.session_logs), rel=1e-12
    )
    assert layers["protocol.bytes"] > 0
    # The fine level runs in the child, which this process cannot see.
    assert layers["level1.run_step.s"] == 0
    tracks = {s.track for s in spans}
    assert tracks == {"main", "lp0", "lp1", "session t1-lp0-0", "session t1-lp1-0"}
    sessions = {s.id for s in spans if s.name == "session"}
    for s in spans:
        if s.name in ("protocol.handshake", "protocol.step", "protocol.finish"):
            assert s.parent in sessions
    trace = tracing.chrome_trace(spans, {})
    names = [e["args"]["name"] for e in trace["traceEvents"] if e["ph"] == "M"]
    assert sorted(names) == sorted(tracks)


def test_loopback_server_work_hangs_under_its_session():
    config = SimConfig(num_ses=80, total_timesteps=3, generation_prob=0.02, num_lps=1,
                       l1_transport="loopback", l1_grid_side=6, l1_fine_steps_per_timestep=50,
                       l1_schedule=(SpawnTrigger(1, 0, 2),), seed=4)
    spans, layers, _ = _traced(config)
    by_id = {s.id: s for s in spans}
    (session,) = [s for s in spans if s.name == "session"]
    for s in spans:
        if s.name in ("protocol.serve", "protocol.step", "level1.grid_build", "level1.run_step"):
            node = s
            while node.parent is not None and node.id != session.id:
                node = by_id[node.parent]
            assert node.id == session.id, s.name
    assert layers["level1.grid_build.s"] > 0 and layers["level1.events_per_s"] > 0


def test_level0_wall_is_the_wall_without_sessions():
    config = SimConfig(num_ses=150, total_timesteps=5, generation_prob=0.05, num_lps=1, seed=2)
    spans, layers, result = _traced(config)
    assert layers["level0.wall_s"] == result.total_wct
    assert layers["protocol.spawn_s"] == 0
    assert layers["level0.receipts"] == layers["dissemination.relay_step.calls"]
    assert {s.track for s in spans} == {"lp0"}


def test_checker_fails_a_changed_or_unstable_digest():
    checker = runner.Checker("gossip")
    checker.pinned = {"1000": "a" * 64}
    assert checker.check({"config_seed": 1000, "digest": "a" * 64}) == "pinned"
    with pytest.raises(runner.RunFailed):
        checker.check({"config_seed": 1000, "digest": "b" * 64})
    assert checker.check({"config_seed": 1001, "digest": "c" * 64}) == "not pinned"
    with pytest.raises(runner.RunFailed):
        checker.check({"config_seed": 1001, "digest": "d" * 64})


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gossip", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == runner.END_TO_END
    traced = {"trace.wall_s": "s", "trace.overhead_s": "s"}
    assert per_layer == {**runner.PER_RUN_EXTRA, **runner.LAYER_UNITS, **traced}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
