"""A copy-by-copy level 1 to check the instance against: every event queued.

Each route flood travels as one heap event per RREQ copy a node hears,
handled in tick order and FIFO among equal ticks; a node acts on its first
copy of a flood and drops the rest on arrival.  Every node beacon and every
walker tick is a heap event too, so nothing is counted in closed form.  The
walk is the instance's expression evaluated one tick at a time, so
positions agree bit for bit.

The reference shares only setup with the instance (the ``GridScenario`` and
the module's constants); it never calls the instance's event loop, flood,
reply or walking code.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter

from iotsim.level1 import (
    ARRIVAL_RADIUS,
    BEACON_INTERVAL,
    QUERY_RETRY_LIMIT,
    QUERY_RETRY_TICKS,
    RADIO_RANGE,
    WALK_SPEED,
    WARMUP_TICKS,
)
from iotsim.protocol import Counters, EntityRecord


class ReferenceSession:
    """One session over ``scenario``; ``step()`` runs one coarse step.

    ``seen`` tallies what the session exercised: ``floods``, ``retries``
    (floods after an entity's first), ``unreachable`` (floods that reach no
    node), ``crossing`` (floods handled in more than one window), ``replies``,
    ``reply_on_retry_tick`` (a reply delivered on the tick its entity's
    next query runs, which then runs first) and ``reply_after_timeout`` (a
    reply delivered after its entity's retry chain ended at the limit).
    """

    def __init__(self, scenario, entities: list[EntityRecord], fine_steps: int) -> None:
        self.scenario = scenario
        self.fine_steps = fine_steps
        self.step_len = WALK_SPEED / fine_steps
        self.kinds = {r.id: r.kind for r in entities}
        # Per entity: x, y, arrived, hops.
        self.state = {r.id: [r.x, r.y, False, None] for r in entities}
        self.dest_pos: dict[int, tuple[float, float]] = {}
        self.queries: Counter = Counter()
        self.heap: list = []
        self.order = itertools.count()
        # (origin entity, query number, node) for every copy acted on.
        self.handled: set[tuple[int, int, int]] = set()
        # Per node: origin entity -> the hop its first copy came from.
        self.routes = [{} for _ in range(scenario.num_nodes)]
        self.rreq = self.rrep = self.arrivals = self.events = 0
        self.seen: Counter = Counter()
        # (origin entity, query number) -> the coarse steps its copies were handled in.
        self.windows: dict[tuple[int, int], set[int]] = {}
        self.window = 0
        # Entity -> the tick its last query ran.
        self.query_tick: dict[int, int] = {}
        # Entities whose retry chain ended at QUERY_RETRY_LIMIT floods.
        self.timed_out: set[int] = set()
        for node in range(scenario.num_nodes):
            self._queue(node % WARMUP_TICKS, ("beacon", node))
        self._run_until(WARMUP_TICKS)
        for r in entities:
            if r.kind == "mobile":
                self._queue(WARMUP_TICKS, ("query", r.id))

    def _queue(self, tick: int, event: tuple) -> None:
        heapq.heappush(self.heap, (tick, next(self.order), event))

    def _run_until(self, end_tick: int) -> None:
        while self.heap and self.heap[0][0] < end_tick:
            tick, _, event = heapq.heappop(self.heap)
            self.events += 1
            getattr(self, "_" + event[0])(tick, *event[1:])

    def step(self) -> tuple[tuple[EntityRecord, ...], Counters]:
        self.window += 1
        self._run_until(WARMUP_TICKS + self.window * self.fine_steps)
        self.seen["crossing"] = sum(len(w) > 1 for w in self.windows.values())
        records = tuple(
            EntityRecord(eid, x, y, self.kinds[eid], arrived, hops)
            for eid, (x, y, arrived, hops) in self.state.items()
        )
        return records, Counters(self.rreq, self.rrep, self.arrivals, self.events)

    def _beacon(self, tick: int, node: int) -> None:
        self._queue(tick + BEACON_INTERVAL, ("beacon", node))

    def _query(self, tick: int, eid: int) -> None:
        self.query_tick[eid] = tick
        if eid in self.dest_pos:
            return
        if self.queries[eid] >= QUERY_RETRY_LIMIT:
            self.timed_out.add(eid)
            return
        self.queries[eid] += 1
        seq = self.queries[eid]
        self.seen["floods"] += 1
        self.seen["retries"] += seq > 1
        xy = self.state[eid][:2]
        sc = self.scenario
        entries = [n for n in range(sc.num_nodes) if math.dist(xy, sc.node_pos(n)) <= RADIO_RANGE]
        self.seen["unreachable"] += not entries
        self.rreq += 1
        for node in entries:
            self._queue(tick + 1, ("rreq", node, eid, seq, 1, ~eid))
        self._queue(tick + QUERY_RETRY_TICKS, ("query", eid))

    def _rreq(self, tick: int, node: int, eid: int, seq: int, hops: int, prev: int) -> None:
        self.windows.setdefault((eid, seq), set()).add(self.window)
        if (eid, seq, node) in self.handled:
            return  # a later copy: dropped
        self.handled.add((eid, seq, node))
        self.routes[node][eid] = prev
        sc = self.scenario
        if node == sc.destination:
            self.rrep += 1
            self._queue(tick + 1, ("rrep", prev, eid, sc.node_pos(node), hops))
            return
        self.rreq += 1
        for m in sc.neighbors[node]:
            self._queue(tick + 1, ("rreq", m, eid, seq, hops + 1, node))

    def _rrep(self, tick: int, target: int, eid: int, dest_pos: tuple, hops: int) -> None:
        if target >= 0:
            self.rrep += 1
            self._queue(tick + 1, ("rrep", self.routes[target][eid], eid, dest_pos, hops))
            return
        if eid in self.dest_pos:
            return  # a later flood's reply
        self.seen["replies"] += 1
        self.seen["reply_on_retry_tick"] += self.query_tick[eid] == tick
        self.seen["reply_after_timeout"] += eid in self.timed_out
        self.dest_pos[eid] = dest_pos
        self.state[eid][3] = hops
        self._queue(tick + 1, ("move", eid))

    def _move(self, tick: int, eid: int) -> None:
        s = self.state[eid]
        tx, ty = self.dest_pos[eid]
        dx = tx - s[0]
        dy = ty - s[1]
        dist = math.hypot(dx, dy)
        if dist <= ARRIVAL_RADIUS:
            self.arrivals += 1
            s[2] = True
            return
        step = dist if dist < self.step_len else self.step_len
        s[0] += step * dx / dist
        s[1] += step * dy / dist
        self._queue(tick + 1, ("move", eid))
