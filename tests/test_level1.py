"""Fine-grained engine: grid mesh, beacons, discovery, and walking."""

import hashlib
import math
import random
from collections import Counter, deque

import pytest
from reference_l1 import ReferenceSession

from iotsim import rng
from iotsim.level1 import (
    BEACON_INTERVAL,
    GRID_SPACING,
    QUERY_RETRY_LIMIT,
    RADIO_RANGE,
    WARMUP_TICKS,
    GridScenario,
    L1Entity,
    L1Instance,
    beacons_before,
)
from iotsim.protocol import EntityRecord, Final, Init, StepResult, encode


def _bfs_hops(scenario, src, dst):
    dist = {src: 0}
    frontier = deque([src])
    while frontier:
        n = frontier.popleft()
        if n == dst:
            return dist[n]
        for m in scenario.neighbors[n]:
            if m not in dist:
                dist[m] = dist[n] + 1
                frontier.append(m)
    raise AssertionError(f"no path {src} -> {dst}")


# -- grid mesh ----------------------------------------------------------------


@pytest.mark.parametrize("side", [3, 4, 7, 10])
def test_grid_links_are_four_adjacent(side):
    scenario = GridScenario.build(side, destination=0)
    degrees = sorted(len(ns) for ns in scenario.neighbors)
    # 4 corners of degree 2, 4(side-2) edge nodes of degree 3, rest degree 4.
    assert degrees.count(2) == 4
    assert degrees.count(3) == 4 * (side - 2)
    assert degrees.count(4) == side * side - 4 * side + 4
    for n, ns in enumerate(scenario.neighbors):
        for m in ns:
            assert math.dist(scenario.node_pos(n), scenario.node_pos(m)) == GRID_SPACING


@pytest.mark.parametrize(
    "anchor",
    [
        pytest.param((-313.7, 1024.25), id="ordinary"),
        pytest.param((0.0, 0.0), id="origin"),
        pytest.param((2.0**20, -(2.0**20)), id="anchor-bound"),
    ],
)
def test_grid_links_equal_the_all_pairs_scan(anchor):
    for side in range(2, 16):
        scenario = GridScenario.build(side, destination=0, anchor=anchor)
        pos = [scenario.node_pos(n) for n in range(side * side)]
        want = tuple(
            tuple(
                m for m in range(side * side) if m != n and math.dist(pos[n], pos[m]) <= RADIO_RANGE
            )
            for n in range(side * side)
        )
        assert scenario.neighbors == want


def test_grid_links_do_not_depend_on_rounding_far_from_the_origin():
    # x rounds to multiples of 16 here, so node distances are 16 or 32, not 20.
    far = GridScenario.build(10, destination=0, anchor=(1e17, -3.0))
    assert far.neighbors == GridScenario.build(10, destination=0).neighbors


def test_grid_shape_links_are_built_once():
    a = GridScenario.build(20, destination=0, anchor=(12.5, -3.0))
    b = GridScenario.build(20, destination=7, anchor=(-400.0, 99.75))
    assert a.neighbors is b.neighbors


def test_grid_positions_follow_anchor():
    scenario = GridScenario.build(3, destination=0, anchor=(100.0, -40.0))
    assert scenario.node_pos(0) == (100.0, -40.0)
    assert scenario.node_pos(4) == (120.0, -20.0)
    assert scenario.node_pos(8) == (140.0, 0.0)


def test_grid_rejects_destination_outside():
    with pytest.raises(ValueError):
        GridScenario.build(3, destination=9)


def _entry_scan(scenario, x, y):
    return [
        n
        for n in range(scenario.num_nodes)
        if math.dist((x, y), scenario.node_pos(n)) <= RADIO_RANGE
    ]


def test_entry_nodes_equal_the_full_scan():
    scenario = GridScenario.build(6, destination=0, anchor=(57.5, -20.0))
    inst = L1Instance(scenario, [], fine_steps=1)
    (x0, y0), (x1, y1) = scenario.node_pos(0), scenario.node_pos(35)
    draw = random.Random(11)
    points = [(draw.uniform(x0, x1), draw.uniform(y0, y1)) for _ in range(200)]  # inside
    points += [
        (draw.uniform(x0 - 150, x1 + 150), draw.uniform(y0 - 150, y1 + 150)) for _ in range(400)
    ]
    # Exactly on the range boundary of a corner, an edge and an inner node.
    r = RADIO_RANGE
    for nx, ny in (scenario.node_pos(0), scenario.node_pos(3), scenario.node_pos(14)):
        points += [(nx - r, ny), (nx + r, ny), (nx, ny - r), (nx, ny + r)]
    points += [(x0 - r - 1e-9, y0), (x1, y1 + r + 1e-9)]  # just outside
    points += [(1e12, y0), (x0, -1e300), (math.inf, y0), (math.nan, y0)]  # far off
    for x, y in points:
        assert inst._entry_nodes(x, y) == _entry_scan(scenario, x, y), (x, y)
    assert inst._entry_nodes(x0 - r, y0) == [0]


# -- beacons ------------------------------------------------------------------


def _beacons_by_enumeration(num_nodes, start, end):
    return sum(
        1
        for n in range(num_nodes)
        for tick in range(n % WARMUP_TICKS, end, BEACON_INTERVAL)
        if tick >= start
    )


def test_beacon_count_matches_enumeration():
    draw = random.Random(3)
    windows = [(0, WARMUP_TICKS), (0, 1), (0, 0), (WARMUP_TICKS, WARMUP_TICKS + 1)]
    windows += [(t, t + 1) for t in range(0, 3 * BEACON_INTERVAL)]
    windows += [(WARMUP_TICKS + 7, WARMUP_TICKS + 7 + BEACON_INTERVAL), (13, 1013), (37, 38)]
    windows += [(a, a + draw.randint(0, 300)) for a in (draw.randint(0, 500) for _ in range(60))]
    for num_nodes in [1, 4, 9, 10, 11, 25, 99, 400] + [draw.randint(1, 900) for _ in range(8)]:
        phases = [
            sum(1 for n in range(num_nodes) if n % WARMUP_TICKS == p) for p in range(WARMUP_TICKS)
        ]
        for start, end in windows:
            got = beacons_before(phases, end) - beacons_before(phases, start)
            assert got == _beacons_by_enumeration(num_nodes, start, end), (num_nodes, start, end)


def test_session_counts_each_beacon_in_the_window_it_falls_in():
    # A static-only session processes beacons alone: its count after each
    # step is every beacon tick before that step's end.
    side, fine_steps = 5, 37
    scenario = GridScenario.build(side, destination=0)
    inst = L1Instance(scenario, [L1Entity(1, 3.0, 3.0, "static")], fine_steps)
    assert inst.counters.events_processed == _beacons_by_enumeration(side * side, 0, WARMUP_TICKS)
    for t in range(4):
        _, counters = inst.run_one_coarse_step(t)
        end = WARMUP_TICKS + (t + 1) * fine_steps
        assert counters.events_processed == _beacons_by_enumeration(side * side, 0, end)


# -- full instances -----------------------------------------------------------


def _manual_instance(entity_xy, kind="mobile", side=3, destination=4, fine_steps=100):
    scenario = GridScenario.build(side, destination)
    entity = L1Entity(1, entity_xy[0], entity_xy[1], kind)
    return L1Instance(scenario, [entity], fine_steps)


def test_mobile_entity_discovers_route_and_walks():
    # Entity just off the center node of a 3x3 mesh; the center is the target.
    inst = _manual_instance((23.0, 20.0))
    records, counters = inst.run_one_coarse_step(0)
    (rec,) = records
    # One hop: the destination node is itself an entry node.
    assert rec.hops == 1
    assert not rec.arrived
    assert counters.rreq >= 1
    assert counters.rrep >= 1
    # Walked toward (20, 20), covering just under one coarse step of travel.
    assert rec.x < 23.0
    assert rec.y == pytest.approx(20.0)
    d1 = math.dist((rec.x, rec.y), (20.0, 20.0))
    assert d1 < 3.0

    records, counters = inst.run_one_coarse_step(1)
    (rec,) = records
    assert rec.arrived
    assert counters.arrivals == 1
    assert math.dist((rec.x, rec.y), (20.0, 20.0)) <= 1.0 + 1e-9

    # Arrival is terminal: nothing moves afterwards.
    records, counters = inst.run_one_coarse_step(2)
    assert records[0] == rec
    assert counters.arrivals == 1


def test_route_hops_match_entry_plus_mesh_distance():
    scenario = GridScenario.build(4, destination=15)
    entity = L1Entity(9, 3.0, 0.0, "mobile")  # near node 0, far corner target
    inst = L1Instance(scenario, [entity], fine_steps=200)
    records, _ = inst.run_one_coarse_step(0)
    entries = inst._entry_nodes(3.0, 0.0)
    assert entries  # sanity: the entity can reach the mesh
    want = 1 + min(_bfs_hops(scenario, n, 15) for n in entries)
    assert records[0].hops == want


def test_entity_routes_match_breadth_first_search():
    # An entity on node src enters the mesh at src and its four neighbours,
    # so its reply carries 1 + (dist(src, dst) - 1) hops; on dst itself, 1.
    side = 6
    pairs = [(0, 1), (0, 6), (0, 35), (3, 31), (12, 17), (5, 30), (20, 2), (14, 14)]
    for src, dst in pairs:
        scenario = GridScenario.build(side, destination=dst)
        entity = L1Entity(1, *scenario.node_pos(src), "mobile")
        records, _ = L1Instance(scenario, [entity], fine_steps=60).run_one_coarse_step(0)
        assert records[0].hops == max(_bfs_hops(scenario, src, dst), 1), (src, dst)


def test_static_entity_never_queries():
    inst = _manual_instance((23.0, 20.0), kind="static")
    records, counters = inst.run_one_coarse_step(0)
    (rec,) = records
    assert rec.hops is None
    assert not rec.arrived
    assert (rec.x, rec.y) == (23.0, 20.0)
    assert counters.rreq == 0
    assert counters.rrep == 0
    assert counters.events_processed > 0  # mesh housekeeping still ticks


def test_unreachable_mesh_retries_then_times_out():
    # Entity far outside radio range of every node: all queries go unanswered.
    inst = _manual_instance((500.0, 500.0), fine_steps=100)
    for t in range(6):
        records, counters = inst.run_one_coarse_step(t)
    (rec,) = records
    assert rec.hops is None
    assert not rec.arrived
    assert counters.rreq == QUERY_RETRY_LIMIT
    assert counters.rrep == 0


def test_from_init_seeds_destination_and_centers_grid():
    init = Init(
        instance_id="t3-lp1-0",
        seed=123456789,
        grid_side=10,
        fine_steps=100,
        entities=(
            EntityRecord(4, 100.0, 50.0, "mobile"),
            EntityRecord(9, 120.0, 70.0, "static"),
        ),
    )
    inst = L1Instance.from_init(init)
    want_dest = rng.substream(123456789, rng.LEVEL1).randrange(100)
    assert inst.scenario.destination == want_dest
    # Mesh centered on the cohort centroid (110, 60).
    assert inst.scenario.node_pos(0) == (110.0 - 90.0, 60.0 - 90.0)
    assert list(inst.entities) == [4, 9]


def test_from_init_without_entities():
    init = Init(instance_id="x", seed=5, grid_side=4, fine_steps=50, entities=())
    inst = L1Instance.from_init(init)
    assert inst.scenario.node_pos(0) == (0.0, 0.0)
    records, counters = inst.run_one_coarse_step(0)
    assert records == ()
    assert counters.rreq == 0 and counters.rrep == 0 and counters.arrivals == 0
    assert counters.events_processed > 0


def test_each_entity_runs_one_search_and_walks(monkeypatch):
    searches = []
    flood = L1Instance._flood

    def spy(self, entries):
        searches.append(entries)
        return flood(self, entries)

    monkeypatch.setattr(L1Instance, "_flood", spy)
    entities = tuple(EntityRecord(i, 60.0 + 7.0 * i, 50.0 - 3.0 * i, "mobile") for i in range(1, 6))
    init = Init("spy", seed=99, grid_side=8, fine_steps=400, entities=entities)
    inst = L1Instance.from_init(init)
    for t in range(6):
        records, _ = inst.run_one_coarse_step(t)
    # One breadth-first search per entity, however many times it floods.
    assert len(searches) == len(entities)
    # Every entity found its route and walked.
    assert all(r.hops is not None and (r.x, r.y) != (e.x, e.y) for r, e in zip(records, entities))


def test_identical_init_gives_identical_reports():
    init = Init(
        instance_id="t1-lp0-0",
        seed=777,
        grid_side=6,
        fine_steps=100,
        entities=(EntityRecord(2, 10.0, 10.0, "mobile"), EntityRecord(3, 14.0, 12.0, "mobile")),
    )
    a = L1Instance.from_init(init)
    b = L1Instance.from_init(init)
    for t in range(3):
        ra, ca = a.run_one_coarse_step(t)
        rb, cb = b.run_one_coarse_step(t)
        assert ra == rb
        assert ca == cb
    fa, fb = a.finalize(), b.finalize()
    assert fa == fb
    assert encode(Final(*fa)) == encode(Final(*fb))


# -- the copy-by-copy reference ---------------------------------------------------


def _reference_session_init(draw):
    """One seeded INIT for a grid of side 2-20: up to 5 entities around a
    random centre, some of them far enough off to reach no node."""
    side = draw.randint(2, 20)
    if draw.random() < 0.8:
        # Short windows: floods and replies cross window boundaries.
        fine_steps, coarse_steps = draw.randint(1, 7), draw.randint(1, 40)
    else:
        fine_steps, coarse_steps = draw.randint(8, 60), draw.randint(1, 12)
    seed = draw.getrandbits(63)
    centre = (draw.uniform(-2000.0, 2000.0), draw.uniform(-2000.0, 2000.0))
    half = (side - 1) * GRID_SPACING / 2.0 + 40.0
    entities = []
    for eid in draw.sample(range(10_000), draw.randint(0, 5)):
        kind = draw.choice(["mobile", "mobile", "static"])
        far = 300.0 if draw.random() < 0.15 else 0.0
        x = centre[0] + draw.uniform(-half, half) + far
        y = centre[1] + draw.uniform(-half, half) - far
        entities.append(EntityRecord(eid, x, y, kind))
    return Init(f"ref-{seed}", seed, side, fine_steps, tuple(entities)), coarse_steps


def _check_against_reference(inst, ref, coarse_steps):
    for t in range(coarse_steps):
        want = ref.step()
        assert inst.run_one_coarse_step(t) == want, t
    assert inst.finalize() == want


def test_sessions_match_the_copy_by_copy_reference():
    seen = Counter()
    sides, fine_steps = set(), set()
    for case in range(240):
        init, coarse_steps = _reference_session_init(random.Random(case))
        inst = L1Instance.from_init(init)
        ref = ReferenceSession(inst.scenario, list(init.entities), init.fine_steps)
        _check_against_reference(inst, ref, coarse_steps)
        seen.update(ref.seen)
        sides.add(init.grid_side)
        fine_steps.add(init.fine_steps)
    assert sides == set(range(2, 21))
    assert fine_steps >= set(range(1, 8))
    # Floods that cross windows, retries, floods that reach no node, replies.
    assert min(seen["crossing"], seen["retries"], seen["unreachable"], seen["replies"]) >= 20, seen


def test_a_reply_on_its_retry_tick_comes_after_the_retry():
    # From node 0 to node 139 is 25 hops, so the reply lands 50 ticks after
    # the query, on the tick of the retry queued first: the retry floods again.
    scenario = GridScenario.build(20, destination=139)
    x, y = scenario.node_pos(0)
    inst = L1Instance(scenario, [L1Entity(5, x, y, "mobile")], fine_steps=30)
    ref = ReferenceSession(scenario, [EntityRecord(5, x, y, "mobile")], fine_steps=30)
    _check_against_reference(inst, ref, 6)
    assert ref.seen["reply_on_retry_tick"] == 1
    assert ref.seen["retries"] == 1
    assert inst.entities[5].route_hops == 25


def test_a_reply_after_the_last_retry_still_lands():
    # From node 0 to the far corner of a side-105 grid is 208 hops: the
    # first reply lands at tick 10 + 2 * 208 = 426, after all eight floods
    # (ticks 10-360) and the query at 410 that ends the chain.
    scenario = GridScenario.build(105, destination=105 * 105 - 1)
    x, y = scenario.node_pos(0)
    inst = L1Instance(scenario, [L1Entity(5, x, y, "mobile")], fine_steps=100)
    ref = ReferenceSession(scenario, [EntityRecord(5, x, y, "mobile")], fine_steps=100)
    _check_against_reference(inst, ref, 5)
    assert ref.seen["reply_after_timeout"] == 1
    assert ref.seen["retries"] == QUERY_RETRY_LIMIT - 1
    assert inst.entities[5].route_hops == 208


# -- session bytes --------------------------------------------------------------


def _pinned_session_init(draw):
    """One seeded INIT: 0-6 entities around a random centre, some placed to
    walk 0-10 units to the destination node and arrive during the session."""
    side = draw.randint(3, 20)
    fine_steps = draw.choice([1, 2, 3, 7, draw.randint(1, 60), draw.randint(1, 3000)])
    seed = draw.getrandbits(63)
    centre = (draw.uniform(0.0, 3000.0), draw.uniform(0.0, 3000.0))
    half = (side - 1) * GRID_SPACING / 2.0
    kinds = [draw.choice(["mobile", "mobile", "static"]) for _ in range(draw.randint(0, 6))]
    xy = [
        (centre[0] + draw.uniform(-half - 40, half + 40), centre[1] + draw.uniform(-half - 40, half + 40))
        for _ in kinds
    ]
    # Walkers to land near the destination; at least one entity stays put, so
    # re-placing them converges onto the grid that their own centroid moves.
    arrivers = [i for i, k in enumerate(kinds[1:], 1) if k == "mobile" and draw.random() < 0.6]
    reach = [0.0, draw.uniform(0.0, 2.5), draw.uniform(0.0, 10.0)]
    offsets = {i: (draw.choice(reach), draw.uniform(0.0, 2 * math.pi)) for i in arrivers}
    dest = rng.substream(seed, rng.LEVEL1).randrange(side * side)
    for _ in range(200):
        cx = sum(x for x, _ in xy) / len(xy) if xy else 0.0
        cy = sum(y for _, y in xy) / len(xy) if xy else 0.0
        dx = round(cx - half, 6) + (dest % side) * GRID_SPACING
        dy = round(cy - half, 6) + (dest // side) * GRID_SPACING
        for i, (r, a) in offsets.items():
            xy[i] = (dx + r * math.cos(a), dy + r * math.sin(a))
    ids = draw.sample(range(1, 10_000), len(kinds))
    entities = tuple(EntityRecord(i, x, y, k) for i, (x, y), k in zip(ids, xy, kinds))
    return Init(f"pin-{seed}", seed, side, fine_steps, entities), draw.randint(1, 6)


def test_session_bytes_are_pinned():
    # sha256 over every encoded STEP_RESULT and FINAL of 60 seeded sessions,
    # recorded from the engine that queued one MOVE event per walker tick and
    # one RREQ event per flood copy (the copy-by-copy flood of
    # ``reference_l1``), and that linked each grid pair by distance.
    digest = hashlib.sha256()
    arrived_in_route_window = arrived_later = still_walking = 0
    for case in range(60):
        init, coarse_steps = _pinned_session_init(random.Random(case))
        inst = L1Instance.from_init(init)
        routed_at: dict[int, int] = {}
        arrived: set[int] = set()
        for t in range(coarse_steps):
            records, counters = inst.run_one_coarse_step(t)
            digest.update(encode(StepResult(t, records, counters)))
            for r in records:
                if r.hops is not None:
                    routed_at.setdefault(r.id, t)
                if r.arrived and r.id not in arrived:
                    arrived.add(r.id)
                    if routed_at[r.id] == t:
                        arrived_in_route_window += 1
                    else:
                        arrived_later += 1
        digest.update(encode(Final(*inst.finalize())))
        still_walking += sum(1 for r in records if r.hops is not None and not r.arrived)
    # The data covers walks that end in the window their reply came in,
    # walks that cross windows, and walks still under way at the end.
    assert min(arrived_in_route_window, arrived_later, still_walking) >= 5, (
        arrived_in_route_window,
        arrived_later,
        still_walking,
    )
    assert digest.hexdigest() == "6d9809aec6363a864cab720e80dba7ace32fb241162ec0159cd39b1ad197610a"
