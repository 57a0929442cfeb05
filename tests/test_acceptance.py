"""Whole-system acceptance suite.

Each check prints one ``ACCEPTANCE Cnn name: PASS/FAIL/SKIP`` line with the
tolerance it enforces.  Unit tests cover the pieces; these pin the end-to-end
guarantees: oracle-exact dissemination, hop budgets, partition transparency,
entity conservation, protocol byte-stability, fine-grid discovery and
guidance, and the scalability trends of the runtime harness.
"""

import math
import os
import time
from collections import deque

import pytest
from socket_pair import socket_pair

import iotsim.bench as bench
from iotsim import rng
from iotsim.bench import (
    ExperimentPlan,
    measure_peak_memory,
    run_experiment,
    sequential_schedule,
)
from iotsim.config import SimConfig, SpawnTrigger
from iotsim.dissemination import generate_message, should_forward
from iotsim.level0 import SimEngine, run_simulation
from iotsim.level1 import GridScenario, L1Entity, L1Instance
from iotsim.protocol import (
    Counters,
    EntityRecord,
    Error,
    Hello,
    Init,
    ProtocolError,
    SessionClient,
    StepResult,
    decode,
    encode,
    serve_session,
)


def _verdict(verdicts: list, cid: str, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {cid} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    verdicts.append(line)
    assert ok, line


def _skip(verdicts: list, cid: str, name: str, reason: str) -> None:
    line = f"ACCEPTANCE {cid} {name}: SKIP ({reason})"
    print(line)
    verdicts.append(line)
    pytest.skip(reason)


def _bfs_ball(adj: dict[int, list[int]], origin: int, radius: int) -> frozenset:
    dist = {origin: 0}
    frontier = deque([origin])
    while frontier:
        n = frontier.popleft()
        if dist[n] == radius:
            continue
        for m in adj[n]:
            if m not in dist:
                dist[m] = dist[n] + 1
                frontier.append(m)
    return frozenset(n for n, d in dist.items() if d >= 1)


def test_c01_certain_flood_covers_exactly_the_hop_ball(verdicts):
    # prob=1, threshold=0, deliver-once: receivers of each message must equal
    # the graph ball of radius TTL around its origin, over 100 static worlds.
    t0 = time.monotonic()
    worlds = 100
    checked = 0
    mismatches = 0
    for seed in range(1, worlds + 1):
        cfg = SimConfig(
            num_ses=50,
            density=5e-5,
            mobile_fraction=0.0,
            dissemination_prob=1.0,
            forwarding_threshold=0.0,
            deliver_once=True,
            generation_prob=0.08,
            total_timesteps=6,
            seed=seed,
        )
        result = run_simulation(cfg, record_receipts=True)
        world = cfg.make_world()
        pos = {e.id: (e.x, e.y) for e in result.entities.values()}
        ids = sorted(pos)
        r2 = cfg.interaction_range * cfg.interaction_range
        adj: dict[int, list[int]] = {i: [] for i in ids}
        for i in ids:
            xi, yi = pos[i]
            for j in ids:
                if j <= i:
                    continue
                dx = abs(pos[j][0] - xi)
                dx = min(dx, world.width - dx)
                dy = abs(pos[j][1] - yi)
                dy = min(dy, world.height - dy)
                if dx * dx + dy * dy <= r2:
                    adj[i].append(j)
                    adj[j].append(i)

        # Replay the generation draws to learn each message's creation step.
        created: dict[tuple[int, int], int] = {}
        next_seq = dict.fromkeys(ids, 0)
        for t in range(cfg.total_timesteps):
            for eid in ids:
                if rng.unit_uniform(cfg.seed, rng.GENERATION, eid, t) < cfg.generation_prob:
                    created[(eid, next_seq[eid])] = t
                    next_seq[eid] += 1

        receiver_sets = result.audit.receiver_sets()
        horizon = cfg.total_timesteps - 1 - cfg.ttl
        for msg_id, t in created.items():
            if t > horizon:
                continue  # the run ends before this message finishes spreading
            ball = _bfs_ball(adj, msg_id[0], cfg.ttl)
            got = receiver_sets.get(msg_id, frozenset())
            # The origin hears its own relays back; those receipts are
            # duplicates by construction and not part of the coverage claim.
            if got - {msg_id[0]} != ball:
                mismatches += 1
            checked += 1
    elapsed = time.monotonic() - t0
    _verdict(
        verdicts,
        "C01",
        "flood-equals-hop-ball",
        mismatches == 0 and checked >= 100 and elapsed < 10.0,
        f"{worlds} worlds, {checked} messages, {mismatches} mismatches, {elapsed:.1f}s < 10s",
    )


def test_c02_forwarding_rate_tracks_probability(verdicts):
    cfg = SimConfig(dissemination_prob=0.6)
    _, ttl_remaining = generate_message(1, 0, cfg)
    n = 100_000
    forwards = 0
    for i in range(n):
        draw = rng.unit_uniform(cfg.seed, rng.FORWARD, i, 1, 0)
        if should_forward(
            ttl_remaining, cache_hit=False, sender_distance=300.0, random_draw=draw, config=cfg
        ):
            forwards += 1
    rate = forwards / n
    _verdict(
        verdicts,
        "C02",
        "forwarding-rate",
        abs(rate - 0.60) <= 0.01,
        f"rate {rate:.4f} within 0.60 +/- 0.01 over {n} eligible decisions",
    )


def test_c03_hop_budget_holds_in_reference_run(verdicts):
    cfg = SimConfig(num_ses=1000, total_timesteps=100, generation_prob=0.02, seed=42)
    result = run_simulation(cfg)
    audit = result.audit
    totals = result.totals()
    multi_hop = audit.max_trace_len >= 2  # the bound must actually be exercised
    ttl_floor = audit.min_ttl_seen is not None and audit.min_ttl_seen >= 1
    chain_ok = audit.max_trace_len <= cfg.ttl
    _verdict(
        verdicts,
        "C03",
        "ttl-bound",
        chain_ok and ttl_floor and multi_hop and totals["forwarded"] > 0,
        f"1000 SEs x 100 steps: longest chain {audit.max_trace_len} <= ttl {cfg.ttl}, "
        f"min ttl seen {audit.min_ttl_seen} >= 1, forwarded {totals['forwarded']}",
    )


def test_c04_cache_suppresses_duplicate_deliveries(verdicts):
    worse = 0
    dup_on_total = 0
    dup_off_total = 0
    for seed in range(1, 11):
        base = SimConfig(num_ses=300, total_timesteps=60, generation_prob=0.005, seed=seed)
        on = run_simulation(base.with_updates(cache_capacity=256), record_receipts=True)
        off = run_simulation(base.with_updates(cache_capacity=0), record_receipts=True)
        dup_on = on.audit.duplicate_deliveries()
        dup_off = off.audit.duplicate_deliveries()
        dup_on_total += dup_on
        dup_off_total += dup_off
        if dup_on > dup_off:
            worse += 1
    _verdict(
        verdicts,
        "C04",
        "lru-suppression",
        worse == 0 and dup_off_total > 0,
        f"10 seeds: duplicates with cache 256 <= without cache in all (totals "
        f"{dup_on_total} vs {dup_off_total})",
    )


def test_c05_results_do_not_depend_on_stripe_count(verdicts):
    t0 = time.monotonic()
    base = SimConfig(num_ses=1000, total_timesteps=100, generation_prob=0.01, seed=7)
    prints = [run_simulation(base.with_updates(num_lps=k)).fingerprint() for k in (1, 2, 4)]
    elapsed = time.monotonic() - t0
    _verdict(
        verdicts,
        "C05",
        "partition-transparency",
        prints[0] == prints[1] == prints[2] and elapsed < 120.0,
        f"1000 SEs x 100 steps, 1/2/4 LPs bit-identical, {elapsed:.1f}s < 120s",
    )


def test_c06_entities_are_conserved_across_eight_spawns(verdicts):
    schedule = (
        SpawnTrigger(2, 0, 3),
        SpawnTrigger(7, 1, 2),
        SpawnTrigger(12, 0, 1),
        SpawnTrigger(18, 1, 4),
        SpawnTrigger(24, 0, 2),
        SpawnTrigger(29, 1, 1),
        SpawnTrigger(33, 0, 5),
        SpawnTrigger(38, 1, 2),
    )
    cfg = SimConfig(
        num_ses=200,
        num_lps=2,
        total_timesteps=40,
        generation_prob=0.01,
        l1_schedule=schedule,
        l1_transport="loopback",
        seed=31,
    )
    result = run_simulation(cfg)
    broken = [r.timestep for r in result.reports if r.active + r.delegated != cfg.num_ses]
    whole = set(result.entities) == set(range(cfg.num_ses))
    _verdict(
        verdicts,
        "C06",
        "conservation",
        not broken and whole and len(result.session_logs) == 8 and len(result.reports) == 40,
        f"8 spawn triggers, active+delegated == {cfg.num_ses} at every one of 40 steps, exact",
    )


def test_c07_sessions_are_lock_step_and_transport_invariant(verdicts):
    base = SimConfig(
        num_ses=40,
        density=4e-4,
        total_timesteps=4,
        generation_prob=0.05,
        l1_schedule=(SpawnTrigger(1, 0, 2),),
        seed=9,
    )
    loop = SimEngine(base.with_updates(l1_transport="loopback"), keep_transcripts=True).run()
    tcp = SimEngine(base.with_updates(l1_transport="tcp"), keep_transcripts=True).run()
    t_loop = loop.session_logs[0].transcript
    t_tcp = tcp.session_logs[0].transcript
    same_bytes = t_loop == t_tcp

    shape = [(d, type(decode(line)).__name__) for d, line in t_loop]
    lock_step = shape == [
        ("recv", "Hello"),
        ("send", "Init"),
        ("send", "Continue"),
        ("recv", "StepResult"),
        ("send", "End"),
        ("recv", "Final"),
    ]

    # Ordering violations must be answered with ERROR, in both directions.
    client_t, server_t = socket_pair()
    client_t.send_line(encode(StepResult(0, (), Counters())))
    server_err = None
    try:
        serve_session(server_t, lambda init: None)
    except ProtocolError as exc:
        server_err = exc.code
    assert decode(client_t.recv_line()) == Hello()
    answered = decode(client_t.recv_line())

    client_t2, server_t2 = socket_pair()
    server_t2.send_line(encode(Hello()))
    server_t2.send_line(encode(StepResult(9, (), Counters())))
    client = SessionClient(client_t2)
    client.handshake(Init("x", 1, 4, 10, ()))
    client_err = None
    try:
        client.step(3)
    except ProtocolError as exc:
        client_err = exc.code
    violations_flagged = (
        server_err == "protocol-violation"
        and isinstance(answered, Error)
        and answered.code == "protocol-violation"
        and client_err == "protocol-violation"
    )
    for end in (client_t, server_t, client_t2, server_t2):
        end.close()

    _verdict(
        verdicts,
        "C07",
        "protocol-invariance",
        same_bytes and lock_step and violations_flagged,
        f"loopback and TCP transcripts byte-identical ({len(t_loop)} lines), "
        "strict lock-step order, out-of-order messages rejected with ERROR",
    )


def test_c08_discovered_routes_match_graph_distance_everywhere(verdicts):
    side = 10
    scenario = GridScenario.build(side, destination=0)
    n = side * side

    dist = [[-1] * n for _ in range(n)]
    for src in range(n):
        dist[src][src] = 0
        frontier = deque([src])
        while frontier:
            a = frontier.popleft()
            for b in scenario.neighbors[a]:
                if dist[src][b] < 0:
                    dist[src][b] = dist[src][a] + 1
                    frontier.append(b)

    # Through the path every session runs: one mobile entity on node src
    # floods from src and its four neighbours, so its reply carries
    # 1 + (dist(src, dst) - 1) hops.
    def entity_hops(grid: GridScenario, src: int) -> int:
        entity = L1Entity(1, *grid.node_pos(src), "mobile")
        (record,), _ = L1Instance(grid, [entity], fine_steps=60).run_one_coarse_step(0)
        return record.hops

    pairs = 0
    mismatches = 0
    for dst in range(n):
        grid = GridScenario.build(side, destination=dst)
        for src in range(n):
            if src == dst:
                continue
            pairs += 1
            if entity_hops(grid, src) != dist[src][dst]:
                mismatches += 1
    corner = entity_hops(GridScenario.build(side, destination=n - 1), 0)
    _verdict(
        verdicts,
        "C08",
        "grid-discovery",
        pairs == 9900 and mismatches == 0 and corner == 18,
        f"all {pairs} ordered pairs exact, corner-to-corner {corner} == 18",
    )


def test_c09_guided_walk_arrives_on_schedule(verdicts):
    seed = 424242
    side, fine = 10, 100
    start = (200.0, 200.0)
    init = Init(
        instance_id="c9",
        seed=seed,
        grid_side=side,
        fine_steps=fine,
        entities=(EntityRecord(7, start[0], start[1], "mobile"),),
    )
    inst = L1Instance.from_init(init)

    # Independent prediction from the published construction rules.
    dest = rng.substream(seed, rng.LEVEL1).randrange(side * side)
    half = (side - 1) * 20.0 / 2.0
    anchor = (start[0] - half, start[1] - half)
    dest_pos = (anchor[0] + (dest % side) * 20.0, anchor[1] + (dest // side) * 20.0)
    entries = [
        n for n in range(side * side) if math.dist(start, inst.scenario.node_pos(n)) <= 25.0
    ]
    assert inst.scenario.destination == dest and len(entries) == 4

    def hops_from(entry: int) -> int:
        d = {entry: 0}
        frontier = deque([entry])
        while frontier:
            a = frontier.popleft()
            for b in inst.scenario.neighbors[a]:
                if b not in d:
                    d[b] = d[a] + 1
                    frontier.append(b)
        return d[dest]

    route_hops = 1 + min(hops_from(n) for n in entries)
    d0 = math.dist(start, dest_pos)
    step_len = 1.4 / fine
    # Reply reaches the walker 2*route_hops ticks after its tick-10 query;
    # moves start one tick later, one per tick, arriving when within 1.0.
    moves_to_arrive = math.ceil((d0 - 1.0) / step_len) + 1
    arrival_tick = 10 + 2 * route_hops + moves_to_arrive
    expected_step = (arrival_tick - 10) // fine + 1

    arrived_at = None
    rec = None
    for i in range(expected_step + 5):
        records, _ = inst.run_one_coarse_step(i)
        rec = records[0]
        if rec.arrived:
            arrived_at = i + 1
            break
    _verdict(
        verdicts,
        "C09",
        "guidance-convergence",
        rec is not None
        and rec.hops == route_hops
        and arrived_at == expected_step
        and math.dist((rec.x, rec.y), dest_pos) <= 1.0 + 1e-9,
        f"route {route_hops} hops, walk {d0:.1f} units, arrival in coarse step "
        f"{arrived_at} == predicted {expected_step}, exact",
    )


def test_c10_activations_only_add_time(verdicts):
    t0 = time.monotonic()
    # Every activation delegates one mobile entity, whose walk costs one
    # loop step per fine step; beacons and duplicate route requests cost
    # nothing, so a static-only session would be almost free.  fine_steps is
    # sized so one session (~1s on a 2-CPU host) dwarfs seed-to-seed noise
    # in the coarse phase (~0.3s), keeping the trend strict at every gap.
    base = SimConfig(
        num_ses=1000,
        mobile_fraction=1.0,
        total_timesteps=100,
        num_lps=1,
        generation_prob=0.005,
        l1_fine_steps_per_timestep=3000000,
        l1_transport="loopback",
        seed=17,
    )
    plan = ExperimentPlan(
        axis="num_l1_activations", values=(0, 1, 2, 4, 8), repetitions=3, base=base
    )
    rows = run_experiment(plan)
    elapsed = time.monotonic() - t0

    all_ok = all(r["status"] == "ok" for r in rows)
    means = [r["total_wct_mean"] for r in rows]
    monotone = all(means[i] <= means[i + 1] for i in range(len(means) - 1))
    decomposed = all(r["total_wct_mean"] >= r["l0_only_wct_mean"] for r in rows)
    sessions = [r["n_l1_sessions"] for r in rows]
    _verdict(
        verdicts,
        "C10",
        "activation-cost",
        all_ok and monotone and decomposed and sessions == [0, 1, 2, 4, 8] and elapsed < 600.0,
        "mean WCT over 3 reps nondecreasing across 0/1/2/4/8 activations "
        f"({', '.join(f'{m:.2f}s' for m in means)}), total >= coarse-only, {elapsed:.0f}s < 600s",
    )


def test_c11_concurrent_sessions_beat_sequential_ones(verdicts):
    threads = os.cpu_count() or 1
    if threads < 8:
        _skip(verdicts, "C11", "concurrency-win", f"needs >= 8 hardware threads, found {threads}")
    common = dict(
        num_ses=1000,
        total_timesteps=100,
        generation_prob=0.005,
        l1_fine_steps_per_timestep=20000,
        l1_transport="tcp",
    )
    conc_wct = []
    seq_wct = []
    for rep in range(3):
        conc = SimConfig(
            num_lps=4,
            l1_schedule=tuple(SpawnTrigger(50, lp, 1) for lp in range(4)),
            seed=100 + rep,
            **common,
        )
        seq = SimConfig(
            num_lps=1, l1_schedule=sequential_schedule(4, 100), seed=100 + rep, **common
        )
        conc_wct.append(run_simulation(conc).total_wct)
        seq_wct.append(run_simulation(seq).total_wct)
    mean_conc = sum(conc_wct) / 3
    mean_seq = sum(seq_wct) / 3
    _verdict(
        verdicts,
        "C11",
        "concurrency-win",
        mean_conc < mean_seq,
        f"4 concurrent sessions {mean_conc:.2f}s < 4 sequential {mean_seq:.2f}s, 3 reps",
    )


def test_c12_memory_grows_with_population_not_with_sessions(verdicts):
    if measure_peak_memory() is None:
        _skip(verdicts, "C12", "memory-scaling", "no peak-RSS facility on this host")
    base = SimConfig(
        total_timesteps=60,
        generation_prob=0.003,
        l1_schedule=sequential_schedule(2, 60),
        l1_transport="tcp",
        seed=23,
    )
    values = (1000, 2000, 4000, 8000)
    metrics = [bench._run_in_subprocess(base.with_updates(num_ses=v)) for v in values]

    l0 = [m.peak_rss_l0 for m in metrics]
    l0_known = all(v is not None for v in l0)
    monotone = l0_known and all(l0[i] <= l0[i + 1] for i in range(len(l0) - 1))

    l1 = [r for m in metrics for r in m.peak_rss_per_l1 if r is not None]
    enough = len(l1) == 2 * len(values)
    spread = (max(l1) - min(l1)) / (sum(l1) / len(l1)) if enough else float("inf")
    _verdict(
        verdicts,
        "C12",
        "memory-scaling",
        monotone and enough and spread < 0.25,
        "coarse peak RSS nondecreasing over 1000/2000/4000/8000 SEs "
        f"({', '.join(str(v // (1 << 20)) + 'MiB' for v in l0)}), "
        f"per-session child RSS spread {spread:.1%} < 25%",
    )
