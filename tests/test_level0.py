"""Coarse engine: partitioning, delivery, delegation, and failure paths."""

import csv
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from test_fingerprint_pin import PINS

import iotsim.cli as cli
import iotsim.level0 as level0
import iotsim.level1 as level1
import iotsim.protocol as protocol
from iotsim.config import SimConfig, SpawnTrigger
from iotsim.dissemination import MessageCache
from iotsim.level0 import (
    DeliveryAudit,
    SimEngine,
    SimulationError,
    partition,
    run_simulation,
    stripe_of,
)
from iotsim.model import Entity
from iotsim.protocol import EntityRecord, Init, ProtocolError, SessionClient, connect_tcp, decode
from iotsim.world import ToroidalWorld


def _entity(eid, x, y, kind="static"):
    return Entity(eid, x, y, kind, MessageCache(256))


# -- partitioning --------------------------------------------------------------


def test_partition_single_stripe_owns_everything():
    cfg = SimConfig(num_ses=4, num_lps=1)
    world = cfg.make_world()
    entities = [_entity(i, i * 10.0, 5.0) for i in range(4)]
    lps = partition(cfg, entities, world)
    assert len(lps) == 1
    assert set(lps[0].entities) == {0, 1, 2, 3}
    assert (lps[0].x0, lps[0].x1) == (0.0, world.width)


def test_partition_four_stripes_by_x():
    cfg = SimConfig(num_ses=8, num_lps=4, density=8e-4)  # world side 100
    world = cfg.make_world()
    assert world.width == pytest.approx(100.0)
    entities = [
        _entity(0, 0.0, 1.0),
        _entity(1, 24.9, 1.0),
        _entity(2, 25.0, 1.0),  # boundary goes to the right stripe
        _entity(3, 49.9, 1.0),
        _entity(4, 50.0, 1.0),
        _entity(5, 74.9, 1.0),
        _entity(6, 75.0, 1.0),
        _entity(7, 99.9, 1.0),
    ]
    lps = partition(cfg, entities, world)
    assert [sorted(lp.entities) for lp in lps] == [[0, 1], [2, 3], [4, 5], [6, 7]]
    assert [(lp.x0, lp.x1) for lp in lps] == [
        (0.0, 25.0),
        (25.0, 50.0),
        (50.0, 75.0),
        (75.0, 100.0),
    ]


@pytest.mark.parametrize("width, num_lps", [(100.0, 4), (100.0, 3), (73.1, 7), (1e6 / 3, 8), (0.3, 5)])
def test_stripe_of_is_the_scalar_formula_at_every_seam(width, num_lps):
    xs = [0.0, math.nextafter(width, 0.0)]
    for k in range(1, num_lps):
        # A stripe's x0, and the seam as a multiple of the stripe width.
        for seam in (k * width / num_lps, k * (width / num_lps)):
            xs += [math.nextafter(seam, 0.0), seam, math.nextafter(seam, math.inf)]
    want = [min(int(x / (width / num_lps)), num_lps - 1) for x in xs]
    got = stripe_of([SimpleNamespace(x=x) for x in xs], ToroidalWorld(width, width), num_lps)
    assert got.tolist() == want


# -- delivery timing -------------------------------------------------------------


def _tiny_config(**kw):
    base = dict(
        num_ses=2,
        density=2e-4,  # world side 100, everyone inside the 250 disc
        mobile_fraction=0.0,
        generation_prob=1.0,
        total_timesteps=3,
        l1_transport="loopback",
        seed=5,
    )
    base.update(kw)
    return SimConfig(**base)


def test_transmission_arrives_exactly_one_step_later():
    engine = SimEngine(_tiny_config())
    r0 = engine.advance_timestep(0)
    assert r0.generated == 2
    assert r0.delivered == 0
    r1 = engine.advance_timestep(1)
    assert r1.generated == 2
    assert r1.delivered == 2  # each receives the other's step-0 message
    # Threshold (200) exceeds any distance in a 100-unit world: no relays.
    assert r0.forwarded == r1.forwarded == 0
    assert r1.duplicates == 0


def test_delivery_crosses_stripe_boundaries():
    cfg = _tiny_config(num_ses=4, density=4e-4, num_lps=2, total_timesteps=2)
    result = run_simulation(cfg)
    totals = result.totals()
    assert totals["generated"] == 8
    # Step-0 messages land at step 1 on every other entity, wherever it lives.
    assert totals["delivered"] == 4 * 3
    assert totals["forwarded"] == 0


def test_fingerprint_is_reproducible_and_seed_sensitive():
    cfg = _tiny_config(mobile_fraction=0.5)
    a = run_simulation(cfg).fingerprint()
    b = run_simulation(cfg).fingerprint()
    assert a == b
    c = run_simulation(cfg.with_updates(seed=6)).fingerprint()
    assert a != c


@pytest.mark.parametrize("num_lps", [2, 4])
def test_stepwise_driver_matches_run_for_any_stripe_count(num_lps, tmp_path):
    cfg = SimConfig(
        num_ses=120,
        num_lps=num_lps,
        total_timesteps=6,
        generation_prob=0.05,
        # Every LP has a session at t=1, run one after another in LP order.
        l1_schedule=(*(SpawnTrigger(1, lp, 2) for lp in range(num_lps)), SpawnTrigger(3, 1, 3)),
        l1_fine_steps_per_timestep=50,
        l1_transport="loopback",
        seed=31,
    )
    engine = SimEngine(cfg)
    stepped = [engine.advance_timestep(t) for t in range(cfg.total_timesteps)]
    assert [len(r.lp_wct) for r in stepped] == [num_lps] * cfg.total_timesteps
    assert stepped[1].delegated == 2 * num_lps and len(engine.session_logs) == num_lps + 1
    # Everything but the timings.
    result = run_simulation(cfg)
    run = result.reports
    untimed = dict(deliver_wct=0.0, lp_wct=())
    assert [replace(r, **untimed) for r in stepped] == [replace(r, **untimed) for r in run]
    # The report CSV's step time is the world-wide deliver plus the slowest LP.
    out = tmp_path / "steps.csv"
    cli._write_report_csv(result, str(out))
    with out.open() as f:
        rows = list(csv.DictReader(f))
    assert [float(row["step_wct"]) for row in rows] == [
        pytest.approx(r.deliver_wct + max(r.lp_wct), abs=1e-6) for r in run
    ]


# -- delegation lifecycle ---------------------------------------------------------


def test_delegate_entities_picks_nearest_to_stripe_centroid():
    cfg = SimConfig(num_ses=5, density=5e-4, total_timesteps=5, generation_prob=0.0)
    engine = SimEngine(cfg)
    lp = engine.lps[0]
    coords = {0: (50.0, 50.0), 1: (60.0, 50.0), 2: (40.0, 50.0), 3: (90.0, 90.0), 4: (10.0, 10.0)}
    for eid, (x, y) in coords.items():
        lp.entities[eid].x = x
        lp.entities[eid].y = y
    chosen = engine.delegate_entities(lp, SpawnTrigger(0, 0, 2))
    # Centroid is (50, 50); ids 1 and 2 tie at distance 10, lower id wins.
    assert [e.id for e in chosen] == [0, 1]
    assert np.flatnonzero(engine.frozen).tolist() == [0, 1]
    assert all(engine.entities[e.id] is e for e in chosen)
    assert set(lp.entities) == {2, 3, 4}

    with pytest.raises(SimulationError):
        engine.delegate_entities(lp, SpawnTrigger(0, 0, 4))


def test_delegated_receivers_are_counted_as_drops():
    cfg = SimConfig(
        num_ses=10,
        density=1e-3,  # world side 100
        mobile_fraction=0.0,
        generation_prob=1.0,
        total_timesteps=3,
        l1_schedule=(SpawnTrigger(0, 0, 3),),
        l1_transport="loopback",
        seed=11,
    )
    result = run_simulation(cfg)
    by_step = {r.timestep: r for r in result.reports}
    assert by_step[0].delegated == 3
    assert all(type(r.delegated) is int for r in result.reports)  # a plain int, for JSON and CSV
    # While frozen, each of the ten step-0 discs covers all three absentees.
    assert by_step[1].dropped_delegated == 30
    assert by_step[1].delegated == 0  # reintegrated before its sessions phase
    assert by_step[2].dropped_delegated == 0
    assert result.totals()["dropped_delegated"] == 30
    # Frozen entities do not generate: three fewer messages at step 1.
    assert [r.generated for r in result.reports] == [10, 7, 10]
    # Exactly one session ran, touching three entities.
    (log,) = result.session_logs
    assert log.instance_id == "t0-lp0-0"
    assert len(log.entity_ids) == 3


def test_delegation_of_static_entities_leaves_positions_unchanged():
    base = SimConfig(
        num_ses=12,
        density=1.2e-3,
        mobile_fraction=0.0,
        generation_prob=0.0,
        total_timesteps=4,
        l1_transport="loopback",
        seed=21,
    )
    withdrawn = base.with_updates(l1_schedule=(SpawnTrigger(1, 0, 4),))
    plain = run_simulation(base)
    spawned = run_simulation(withdrawn)

    pos_plain = {e.id: (e.x, e.y) for e in plain.entities.values()}
    pos_spawned = {e.id: (e.x, e.y) for e in spawned.entities.values()}
    assert pos_plain.keys() == pos_spawned.keys()
    for eid, (x, y) in pos_plain.items():
        # Static entities sit still in the fine sim too; only 6-decimal wire
        # rounding may nudge the round trip.
        assert pos_spawned[eid][0] == pytest.approx(x, abs=1e-6)
        assert pos_spawned[eid][1] == pytest.approx(y, abs=1e-6)

    by_step = {r.timestep: r for r in spawned.reports}
    assert by_step[1].delegated == 4
    assert by_step[2].delegated == 0
    assert {r.timestep: r.delegated for r in plain.reports} == {0: 0, 1: 0, 2: 0, 3: 0}


@pytest.mark.parametrize("capacity", [4, 0])
def test_only_fresh_copies_are_gated(monkeypatch, capacity):
    # A duplicate is never forwarded, so the deliver gates fresh copies
    # alone; with a small cache, evicted ids come back fresh and are gated.
    cfg = SimConfig(
        num_ses=300, total_timesteps=6, generation_prob=0.05, num_lps=2, cache_capacity=capacity, seed=17
    )
    plain = run_simulation(cfg)
    gate = level0.forward_gates
    rows = []

    def counted(ttls, *rest):
        rows.append(len(ttls))
        return gate(ttls, *rest)

    monkeypatch.setattr(level0, "forward_gates", counted)
    gated = run_simulation(cfg)
    assert gated.fingerprint() == plain.fingerprint()
    totals = gated.totals()
    assert sum(rows) == sum(r.delivered for r in gated.reports) == totals["delivered"]
    assert totals["forwarded"] > 0
    if capacity:
        # Evicted ids were delivered again: more than a cache that never fills delivers.
        roomy = run_simulation(cfg.with_updates(cache_capacity=256)).totals()
        assert totals["duplicates"] > 0 and totals["delivered"] > roomy["delivered"]
    else:
        assert totals["duplicates"] == 0


def test_conservation_reported_every_step():
    cfg = SimConfig(
        num_ses=20,
        density=2e-3,
        total_timesteps=5,
        generation_prob=0.1,
        l1_schedule=(SpawnTrigger(1, 0, 2), SpawnTrigger(3, 0, 5)),
        l1_transport="loopback",
        seed=8,
    )
    result = run_simulation(cfg)
    for report in result.reports:
        assert report.active + report.delegated == 20
    assert len(result.session_logs) == 2


def test_session_logs_come_in_trigger_order():
    # Two sessions at t=2, one per LP; the logs keep the order (t, lp, index).
    config = PINS[-1][0].with_updates(l1_transport="loopback")
    for _ in range(5):
        result = run_simulation(config)
        ids = [log.instance_id for log in result.session_logs]
        assert ids == ["t2-lp0-0", "t2-lp1-0", "t5-lp0-0"]


@pytest.mark.parametrize("num_lps", [1, 2])
def test_session_time_is_within_its_lp_step_time(num_lps):
    cfg = SimConfig(
        num_ses=120,
        num_lps=num_lps,
        total_timesteps=4,
        generation_prob=0.05,
        l1_schedule=(SpawnTrigger(1, 0, 2), SpawnTrigger(1, num_lps - 1, 3), SpawnTrigger(2, 0, 2)),
        l1_fine_steps_per_timestep=200,
        l1_transport="loopback",
        seed=12,
    )
    result = run_simulation(cfg)
    assert len(result.session_logs) == 3
    for log in result.session_logs:
        assert 0 < log.wct <= result.reports[log.at_timestep].lp_wct[log.lp_id]


# -- failure paths ----------------------------------------------------------------


def test_session_failure_aborts_run_with_instance_name(monkeypatch):
    def broken(init):
        raise RuntimeError("instance refused to start")

    monkeypatch.setattr(level1, "make_handlers", broken)
    cfg = SimConfig(
        num_ses=6,
        density=6e-4,
        total_timesteps=2,
        generation_prob=0.0,
        l1_schedule=(SpawnTrigger(0, 0, 2),),
        l1_transport="loopback",
        seed=3,
    )
    with pytest.raises(SimulationError, match="t0-lp0-0"):
        run_simulation(cfg)


@pytest.mark.parametrize(
    "failing,culprit", [(("lp1",), "t2-lp1-0"), (("lp0", "lp1"), "t2-lp0-0")], ids=["lp1", "both"]
)
def test_concurrent_session_failure_waits_for_every_session(monkeypatch, failing, culprit):
    healthy = level1.make_handlers

    def flaky(init):
        if init.instance_id.split("-")[1] in failing:
            raise RuntimeError("instance refused to start")
        return healthy(init)

    monkeypatch.setattr(level1, "make_handlers", flaky)
    cfg = SimConfig(
        num_ses=120,
        num_lps=2,
        total_timesteps=4,
        generation_prob=0.05,
        l1_schedule=(SpawnTrigger(2, 0, 2), SpawnTrigger(2, 1, 2)),
        l1_fine_steps_per_timestep=200,
        l1_transport="loopback",
        seed=23,
    )
    # The lowest-numbered failing LP's error is raised, once all have joined.
    with pytest.raises(SimulationError, match=f"run aborted: L1 session {culprit} failed"):
        run_simulation(cfg)
    assert [th.name for th in threading.enumerate() if th.name.startswith(("lp", "l1-"))] == []


def _fake_session_engine(monkeypatch, finalize_records, at_timestep=0):
    """An engine for 2 steps with one loopback session whose FINAL is ``finalize_records(init)``."""
    from iotsim.protocol import Counters

    def fake_handlers(init):
        final = finalize_records(init)
        return SimpleNamespace(
            run_one_coarse_step=lambda t: (init.entities, Counters()),
            finalize=lambda: (final, Counters()),
        )

    monkeypatch.setattr(level1, "make_handlers", fake_handlers)
    cfg = SimConfig(
        num_ses=6,
        density=6e-4,
        total_timesteps=2,
        generation_prob=0.0,
        l1_schedule=(SpawnTrigger(at_timestep, 0, 2),),
        l1_transport="loopback",
        seed=3,
    )
    return SimEngine(cfg)


def test_unknown_entity_in_final_is_rejected(monkeypatch):
    def alien(init):
        return (EntityRecord(424242, 1.0, 1.0, "static"),)

    with pytest.raises(SimulationError):
        _fake_session_engine(monkeypatch, alien).run()


@pytest.mark.parametrize("at_timestep", [0, 1], ids=["mid-run", "last-step"])
def test_reintegration_outside_region_aborts_run(monkeypatch, at_timestep):
    # The positions are checked where the session ends, in its own step,
    # whether a later step or the end of the run reintegrates them.
    def far_away(init):
        return tuple(EntityRecord(r.id, 1e6, r.y, r.kind) for r in init.entities)

    engine = _fake_session_engine(monkeypatch, far_away, at_timestep)
    for t in range(at_timestep):
        engine.advance_timestep(t)
    with pytest.raises(SimulationError, match=f"t{at_timestep}-lp0-0.*region-violation"):
        engine.advance_timestep(at_timestep)


def test_final_repeating_an_id_aborts_run_with_instance_name(monkeypatch):
    def repeated(init):
        return init.entities + init.entities[:1]

    with pytest.raises(SimulationError, match="t0-lp0-0.*entity-mismatch"):
        _fake_session_engine(monkeypatch, repeated).run()


# -- the TCP session template ---------------------------------------------------------


def _watch_template(monkeypatch, prelude=None):
    """Record the run's session template and every child pid it reports.

    With ``prelude``, the template runs as ``python -c``: the prelude (which
    may patch ``level1``), then the template loop.
    """
    seen = {"templates": [], "pids": []}
    real_popen = subprocess.Popen
    real_start = level0.SessionTemplate.start

    def popen(cmd, **kwargs):
        if prelude is not None:
            cmd = [cmd[0], "-c", f"import iotsim.level1 as level1\n{prelude}\nlevel1.main()"]
        proc = real_popen(cmd, **kwargs)
        seen["templates"].append(proc)
        return proc

    def start(self, instance_id, conn):
        pid, reports = real_start(self, instance_id, conn)
        seen["pids"].append(pid)
        return pid, reports

    monkeypatch.setattr(subprocess, "Popen", popen)
    monkeypatch.setattr(level0.SessionTemplate, "start", start)
    return seen


def _gone(pid):
    """True once ``pid`` is neither running nor a zombie."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


_TCP_RUN = SimConfig(
    num_ses=6,
    density=6e-4,
    total_timesteps=2,
    generation_prob=0.0,
    l1_schedule=(SpawnTrigger(0, 0, 2),),
    l1_fine_steps_per_timestep=50,
    l1_transport="tcp",
    seed=3,
)

def test_tcp_sessions_start_their_template_only_inside_run(monkeypatch):
    seen = _watch_template(monkeypatch)
    engine = SimEngine(_TCP_RUN)
    assert seen["templates"] == []
    with pytest.raises(SimulationError, match="only inside run"):
        engine.advance_timestep(0)
    assert seen["templates"] == []


_REPEATED_ID = """
from types import SimpleNamespace
healthy = level1.make_handlers
def make_handlers(init):
    instance = healthy(init)
    def finalize():
        entities, counters = instance.finalize()
        return entities + entities[:1], counters
    return SimpleNamespace(run_one_coarse_step=instance.run_one_coarse_step, finalize=finalize)
level1.make_handlers = make_handlers
"""


@pytest.mark.parametrize("outcome", ["completes", "aborts"])
def test_nothing_outlives_a_tcp_run(monkeypatch, outcome):
    seen = _watch_template(monkeypatch, _REPEATED_ID if outcome == "aborts" else None)
    # Two LPs with sessions at the same step: concurrent requests to one template.
    cfg = replace(
        _TCP_RUN,
        num_ses=40,
        density=1e-3,
        num_lps=2,
        total_timesteps=3,
        l1_schedule=(SpawnTrigger(1, 0, 2), SpawnTrigger(1, 1, 2)),
    )
    started = time.perf_counter()
    if outcome == "completes":
        assert len(run_simulation(cfg).session_logs) == 2
    else:
        with pytest.raises(SimulationError, match="t1-lp0-0.*entity-mismatch"):
            run_simulation(cfg)
        assert time.perf_counter() - started < 5.0
    (template,) = seen["templates"]
    assert template.returncode is not None
    assert len(seen["pids"]) == 2 and all(_gone(pid) for pid in seen["pids"])


def test_an_over_long_step_result_aborts_the_run_and_nothing_outlives_it(monkeypatch):
    seen = _watch_template(monkeypatch)
    # Only the engine's reader is bounded: HELLO (30 bytes) fits, and the
    # child's STEP_RESULT, with two entities and its counters, does not.
    monkeypatch.setattr(protocol, "MAX_LINE", 64)
    started = time.perf_counter()
    with pytest.raises(SimulationError, match="t0-lp0-0.*line-too-long"):
        run_simulation(_TCP_RUN)
    assert time.perf_counter() - started < 5.0
    (template,) = seen["templates"]
    assert template.returncode is not None
    (pid,) = seen["pids"]
    assert _gone(pid)


def test_a_template_that_dies_at_boot_names_its_exit_status(monkeypatch):
    real_popen = subprocess.Popen

    def popen(cmd, **kwargs):
        return real_popen([cmd[0], "-S", "-c", "raise SystemExit(3)"], **kwargs)

    monkeypatch.setattr(subprocess, "Popen", popen)
    with pytest.raises(SimulationError, match="t0-lp0-0.*the session template exited with status 3$"):
        run_simulation(_TCP_RUN)


_PATHLESS_TCP_RUN = """
import sys
sys.path.insert(0, {root!r})
from iotsim import SimConfig, SpawnTrigger, run_simulation
cfg = SimConfig(
    num_ses=6,
    density=6e-4,
    total_timesteps=2,
    generation_prob=0.0,
    l1_schedule=(SpawnTrigger(0, 0, 2),),
    l1_fine_steps_per_timestep=50,
    l1_transport="tcp",
    seed=3,
)
print(len(run_simulation(cfg).session_logs))
"""


def test_tcp_sessions_run_when_iotsim_is_on_no_inherited_path(tmp_path):
    # The engine's process finds iotsim through sys.path alone: the template
    # it starts cannot inherit that, so it must be given the package's root.
    root = os.path.dirname(os.path.dirname(os.path.abspath(level0.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-c", _PATHLESS_TCP_RUN.format(root=root)],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1"]


def test_child_that_never_sends_hello_is_given_up(monkeypatch):
    seen = _watch_template(
        monkeypatch, "import time\nlevel1.serve_session = lambda *args: time.sleep(60)"
    )
    # The client's transport is made after the patch: it waits 0.5 s, not 30 s.
    monkeypatch.setattr(protocol, "DEFAULT_TIMEOUT", 0.5)
    started = time.perf_counter()
    with pytest.raises(SimulationError, match="t0-lp0-0.*timeout: timed out waiting for peer"):
        run_simulation(_TCP_RUN)
    assert time.perf_counter() - started < 5.0
    (template,) = seen["templates"]
    assert template.returncode is not None
    (pid,) = seen["pids"]
    assert _gone(pid)


def test_an_init_naming_an_entity_twice_is_refused_on_both_transports():
    twice = (EntityRecord(1, 0.0, 0.0, "mobile"), EntityRecord(1, 5.0, 5.0, "mobile"))
    init = Init("t0-lp0-0", 1, 4, 50, twice)
    with pytest.raises(ProtocolError, match="^bad-field: INIT names entity 1 more than once$"):
        level0._drive_loopback(init, 0, None)
    transport, conn = connect_tcp()
    template = level0.SessionTemplate()
    try:
        pid, reports = template.start(init.instance_id, conn)
        with reports:
            SessionClient(transport).handshake(init)
            refusal = decode(transport.recv_line())
            lines = list(level0._report_lines(reports, "did not exit"))
    finally:
        transport.close()
        template.close()
    assert (refusal.code, refusal.detail) == ("bad-field", "INIT names entity 1 more than once")
    assert lines[-1] == "EXIT=1"
    assert _gone(pid)


def test_session_child_refuses_an_init_for_another_instance():
    transport, conn = connect_tcp()
    template = level0.SessionTemplate()
    try:
        pid, reports = template.start("expected-id", conn)
        with reports:
            SessionClient(transport).handshake(Init("other-id", 1, 4, 50, ()))
            refusal = decode(transport.recv_line())
            lines = list(level0._report_lines(reports, "did not exit"))
    finally:
        transport.close()
        template.close()
    assert refusal.code == "instance-mismatch"
    assert refusal.detail == "serving 'expected-id' but INIT names 'other-id'"
    assert lines[-1] == "EXIT=1"
    assert _gone(pid)


_STUCK_AFTER_FINAL = """
import time
served = level1.serve_session
def serve_session(*args):
    served(*args)
    time.sleep(60)
level1.serve_session = serve_session
"""


def test_instance_that_does_not_exit_is_killed_and_reaped(monkeypatch):
    seen = _watch_template(monkeypatch, _STUCK_AFTER_FINAL)
    monkeypatch.setattr(protocol, "DEFAULT_TIMEOUT", 1.0)
    with pytest.raises(SimulationError, match="t0-lp0-0.*did not exit"):
        run_simulation(_TCP_RUN)
    # It would sleep for a minute: gone now means killed, and not a zombie means reaped.
    (pid,) = seen["pids"]
    assert _gone(pid)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("transport", ["loopback", "tcp"])
def test_a_session_run_leaks_no_descriptor(transport):
    cfg = replace(
        _TCP_RUN,
        num_ses=40,
        density=1e-3,
        num_lps=2,
        total_timesteps=3,
        l1_schedule=(SpawnTrigger(0, 0, 2), SpawnTrigger(1, 0, 2), SpawnTrigger(1, 1, 2)),
        l1_transport=transport,
    )
    before = len(os.listdir("/proc/self/fd"))
    assert len(run_simulation(cfg).session_logs) == 3
    assert len(os.listdir("/proc/self/fd")) == before


def test_loopback_instance_crash_names_its_cause(monkeypatch):
    def crash(self):
        raise KeyError("lost entity 42")

    monkeypatch.setattr(level1.L1Instance, "finalize", crash)
    with pytest.raises(SimulationError, match="t0-lp0-0.*instance crashed: KeyError: 'lost entity 42'"):
        run_simulation(replace(_TCP_RUN, l1_transport="loopback"))


def _record_thread_starts(monkeypatch) -> list[str]:
    """The name of every thread started from now on, in start order."""
    started = []
    start = threading.Thread.start

    def record_start(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", record_start)
    return started


def test_a_slow_loopback_session_completes_and_starts_no_thread(monkeypatch):
    # Slower than the timeout: an inline session has no peer to time out on.
    monkeypatch.setattr(protocol, "DEFAULT_TIMEOUT", 0.05)
    step = level1.L1Instance.run_one_coarse_step

    def slow_step(self, t):
        time.sleep(0.3)
        return step(self, t)

    monkeypatch.setattr(level1.L1Instance, "run_one_coarse_step", slow_step)
    started = _record_thread_starts(monkeypatch)
    result = run_simulation(replace(_TCP_RUN, l1_transport="loopback"))
    assert len(result.session_logs) == 1
    assert started == []


# Two LPs; sessions at t=1 on the LPs given.
def _two_lp_run(transport, *lps):
    return SimConfig(
        num_ses=80,
        num_lps=2,
        total_timesteps=3,
        generation_prob=0.02,
        l1_schedule=tuple(SpawnTrigger(1, lp, 2) for lp in lps),
        l1_fine_steps_per_timestep=50,
        l1_transport=transport,
        seed=3,
    )


def test_loopback_sessions_of_two_lps_start_no_thread(monkeypatch):
    # A loopback session holds the GIL throughout: a thread would overlap nothing.
    started = _record_thread_starts(monkeypatch)
    result = run_simulation(_two_lp_run("loopback", 0, 1))
    assert [log.instance_id for log in result.session_logs] == ["t1-lp0-0", "t1-lp1-0"]
    assert started == []


def test_tcp_sessions_of_one_busy_lp_start_no_lp_thread(monkeypatch):
    started = _record_thread_starts(monkeypatch)
    result = run_simulation(_two_lp_run("tcp", 1))
    assert [log.instance_id for log in result.session_logs] == ["t1-lp1-0"]
    assert [name for name in started if name.startswith("lp")] == []


def test_tcp_sessions_of_two_busy_lps_start_one_thread_each(monkeypatch):
    # Their children compute in parallel while the LP threads wait on them.
    started = _record_thread_starts(monkeypatch)
    result = run_simulation(_two_lp_run("tcp", 0, 1))
    assert [log.instance_id for log in result.session_logs] == ["t1-lp0-0", "t1-lp1-0"]
    assert sorted(started) == ["lp0", "lp1"]


_CRASH_IN_FINALIZE = """
def finalize(self):
    raise KeyError("lost entity 42")
level1.L1Instance.finalize = finalize
"""


def test_tcp_instance_crash_names_its_cause(monkeypatch):
    seen = _watch_template(monkeypatch, _CRASH_IN_FINALIZE)
    # The child's traceback, read from its report channel, ends the error.
    with pytest.raises(SimulationError, match="(?s)t0-lp0-0.*exited with 1:.*KeyError: 'lost entity 42'$"):
        run_simulation(_TCP_RUN)
    (pid,) = seen["pids"]
    assert _gone(pid)


def test_tcp_session_child_loads_no_numpy_and_no_coarse_engine(monkeypatch):
    templates = []

    class ImportTimed(subprocess.Popen):
        """The engine's template command under ``-X importtime``: it lists on
        stderr every module it imports, and its children are its forks."""

        def __init__(self, cmd, **kwargs):
            super().__init__([cmd[0], "-X", "importtime", *cmd[1:]], stderr=subprocess.PIPE, text=True, **kwargs)
            templates.append(self)

    monkeypatch.setattr(subprocess, "Popen", ImportTimed)
    cfg = SimConfig(
        num_ses=40,
        total_timesteps=2,
        generation_prob=0.0,
        l1_schedule=(SpawnTrigger(0, 0, 2),),
        l1_fine_steps_per_timestep=50,
        l1_transport="tcp",
        seed=4,
    )
    result = run_simulation(cfg)
    (template,) = templates
    assert template.returncode == 0
    assert result.session_logs[0].child_peak_rss > 0
    imports = {
        line.rsplit("|", 1)[1].strip()
        for line in template.stderr.read().splitlines()
        if line.startswith("import time:")
    }
    template.stderr.close()
    assert "iotsim.protocol" in imports  # the listing was read
    coarse = {"numpy", "iotsim.level0", "iotsim.bench", "iotsim.config", "iotsim.world", "iotsim.cli"}
    assert not coarse & imports
    # Nor the environment's start-up: ``site`` and what its .pth files import
    # would be on the first session's critical path.
    assert not {"site", "certifi"} & imports
    # Nor class-building machinery that the template has no use for at run time.
    assert not {"dataclasses", "typing", "inspect", "ast"} & imports


_LOADED_BY = """
import sys
sys.path.insert(0, {root!r})
watched = ("socket", "subprocess", "selectors", "signal", "csv")
before = set(sys.modules)
import iotsim.level0, iotsim.bench, iotsim.cli
from iotsim.config import SimConfig, SpawnTrigger
cfg = SimConfig(
    num_ses=40,
    total_timesteps=2,
    l1_schedule=(SpawnTrigger(0, 0, 2),),
    l1_fine_steps_per_timestep=50,
    l1_transport={transport!r},
    seed=4,
)
{action}
print(" ".join(sorted(m for m in watched if m in sys.modules and m not in before)))
"""


def _loaded_by(transport: str, action: str) -> set[str]:
    """The watched modules that importing iotsim and then ``action`` load, in a
    fresh interpreter: this one loaded them long ago."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(level0.__file__)))
    code = _LOADED_BY.format(root=root, transport=transport, action=action)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_loopback_run_loads_no_socket_subprocess_or_csv():
    assert _loaded_by("loopback", "assert iotsim.level0.run_simulation(cfg).session_logs") == set()


def test_tcp_engine_loads_socket_and_subprocess_when_built():
    # In set-up, not when the run starts its template: the cost stays out of the run's wall time.
    assert {"socket", "subprocess"} <= _loaded_by("tcp", "iotsim.level0.SimEngine(cfg)")


# -- stripe-count transparency (small here; the big run is an acceptance check) ---


def test_small_run_is_identical_for_any_stripe_count():
    base = SimConfig(
        num_ses=100,
        total_timesteps=10,
        generation_prob=0.05,
        seed=77,
    )
    prints = [
        run_simulation(base.with_updates(num_lps=k)).fingerprint() for k in (1, 2, 4)
    ]
    assert prints[0] == prints[1] == prints[2]


# -- audit arithmetic ---------------------------------------------------------------


def test_audit_tracks_extremes_and_duplicates():
    audit = DeliveryAudit(ttl=3, record_receipts=True)
    assert audit.max_trace_len == 0
    audit.record_many([(1, 0)], np.array([5]), 3)
    audit.record_many([(1, 0), (1, 0)], np.array([6, 7]), 2)
    audit.record_many([(1, 0)], np.array([6]), 2)
    audit.record_many([(2, 0)], np.array([5]), 1)
    assert audit.max_trace_len == 3
    assert audit.min_ttl_seen == 1
    assert audit.receiver_sets() == {(1, 0): frozenset({5, 6, 7}), (2, 0): frozenset({5})}
    assert audit.duplicate_deliveries() == 1


_CERTAIN_FLOOD = SimConfig(
    num_ses=300,
    total_timesteps=8,
    generation_prob=0.01,
    dissemination_prob=1.0,
    forwarding_threshold=0.0,
    ttl=4,
    seed=5,
)


@pytest.mark.parametrize("ttl", [1, 4])
def test_certain_flood_chain_is_the_hop_budget(ttl):
    # Every fresh receipt of a copy that can still travel is relayed, so the
    # longest chain spends the whole budget; with ttl 1 nobody relays.
    result = run_simulation(_CERTAIN_FLOOD.with_updates(ttl=ttl))
    assert result.audit.max_trace_len == ttl
    assert (result.totals()["forwarded"] > 0) == (ttl > 1)


def test_relayed_copies_spend_one_hop_per_step():
    # A copy delivered k steps after its message's first delivery has been
    # relayed k times, so it carries k hops fewer than the full budget.
    cfg = _CERTAIN_FLOOD
    engine = SimEngine(cfg)
    first_seen: dict = {}
    hop_counts = set()
    for t in range(cfg.total_timesteps):
        for msg_id, sender, ttl, _, _ in engine._staged:
            hops = t - first_seen.setdefault(msg_id, t)
            assert ttl == cfg.ttl - hops, (msg_id, sender, t)
            hop_counts.add(hops)
        engine.advance_timestep(t)
    assert hop_counts == set(range(cfg.ttl))


def test_tallied_receipts_equal_delivered_plus_duplicates():
    # Two stripes with a session on each: some receivers are frozen while
    # transmissions reach them.
    cfg = SimConfig(
        num_ses=120,
        num_lps=2,
        total_timesteps=6,
        generation_prob=0.05,
        l1_schedule=(SpawnTrigger(2, 0, 2), SpawnTrigger(5, 1, 2)),
        l1_fine_steps_per_timestep=50,
        l1_transport="loopback",
        seed=22,
    )
    result = run_simulation(cfg, record_receipts=True)
    totals = result.totals()
    tallied = sum(sum(t.values()) for t in result.audit.receipts.values())
    assert tallied > 0
    assert tallied == totals["delivered"] + totals["duplicates"]
    assert totals["dropped_delegated"] > 0


def test_counters_add_up_every_step():
    # Enough live receivers that a step's receipts span several join chunks,
    # and a session on each stripe, so some receivers are frozen.
    cfg = SimConfig(
        num_ses=1500,
        num_lps=2,
        total_timesteps=6,
        generation_prob=0.02,
        l1_schedule=(SpawnTrigger(1, 0, 20), SpawnTrigger(1, 1, 20), SpawnTrigger(3, 0, 20)),
        l1_fine_steps_per_timestep=50,
        l1_transport="loopback",
        seed=23,
    )
    engine = SimEngine(cfg, record_receipts=True)
    reports = []
    tallied = 0
    for t in range(cfg.total_timesteps):
        report = engine.advance_timestep(t)
        reports.append(report)
        assert report.active + report.delegated == cfg.num_ses
        before, tallied = tallied, sum(sum(tally.values()) for tally in engine.audit.receipts.values())
        assert tallied - before == report.delivered + report.duplicates, t
    assert tallied == sum(r.delivered + r.duplicates for r in reports)
    # More receipts in a step than one chunk's candidate budget: several chunks ran.
    assert max(r.delivered + r.duplicates for r in reports) > max(cfg.num_ses, level0.JOIN_CHUNK_FLOOR)
    assert sum(r.dropped_delegated for r in reports) > 0


def test_how_the_deliver_is_chunked_never_changes_a_result(monkeypatch):
    cfg = SimConfig(
        num_ses=300,
        num_lps=2,
        total_timesteps=8,
        generation_prob=0.05,
        l1_schedule=(SpawnTrigger(2, 0, 3), SpawnTrigger(2, 1, 3), SpawnTrigger(5, 1, 3)),
        l1_fine_steps_per_timestep=50,
        l1_transport="loopback",
        seed=24,
    )
    real_join = ToroidalWorld.join
    chunks = []

    def join(self, *args):
        for chunk in real_join(self, *args):
            chunks[-1] += 1
            yield chunk

    monkeypatch.setattr(ToroidalWorld, "join", join)
    results = []
    for floor in (1, level0.JOIN_CHUNK_FLOOR):
        monkeypatch.setattr(level0, "JOIN_CHUNK_FLOOR", floor)
        chunks.append(0)
        results.append(run_simulation(cfg, record_receipts=True))
    small, default = results
    # The floor decided the chunking.
    assert chunks[0] > chunks[1]
    untimed = [
        [replace(r, deliver_wct=0.0, lp_wct=()) for r in result.reports] for result in (small, default)
    ]
    assert untimed[0] == untimed[1]
    assert sum(r.dropped_delegated for r in default.reports) > 0
    assert small.fingerprint() == default.fingerprint()
    assert small.audit.receipts == default.audit.receipts
    assert small.audit.min_ttl_seen == default.audit.min_ttl_seen
