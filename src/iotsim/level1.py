"""Fine-grained discrete-event simulator: a wireless grid plus walking entities.

One instance hosts a square grid of fixed nodes (a local device mesh) and the
entities delegated to it.  Every route is discovered from an entity: a
mobile entity broadcasts a route query to the nodes in its radio range, the
query floods the mesh hop by hop, and the destination node answers along the
reverse path with its position and the hop count.  The entity then walks
straight to that node at ``WALK_SPEED`` per coarse timestep until it is
within ``ARRIVAL_RADIUS``.  Time is an integer count of fine ticks;
``fine_steps`` ticks make up one coarse timestep of the driving simulation.

The event heap holds only route queries and the reply's hops.  A flood
takes one tick per hop, so it is a breadth-first search, computed whole
when its query runs and counted per tick as its copies would be handled;
beacons are counted in closed form and walkers step in a plain loop.

``python -S -m iotsim.level1`` is the session template the coarse engine starts
once per TCP run (see ``serve_forks``): it loads only this module, the
protocol and the scalar hash (no numpy, no coarse engine), then forks one
child per session, so a session pays for a fork, not an interpreter start.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import os
import signal
import socket
import sys
from collections import Counter
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

from . import rng
from .protocol import (
    Counters,
    EntityRecord,
    Init,
    ProtocolError,
    Transport,
    measure_peak_memory,
    serve_session,
)

GRID_SPACING = 20.0
# In [spacing, spacing*sqrt(2)): grid radio links are exactly 4-adjacent.
RADIO_RANGE = 25.0
WARMUP_TICKS = 10
BEACON_INTERVAL = 25
# Pedestrian pace, space units per coarse timestep.
WALK_SPEED = 1.4
ARRIVAL_RADIUS = 1.0
QUERY_RETRY_TICKS = 50
QUERY_RETRY_LIMIT = 8
QUEUE_LIMIT = 1_000_000
# Grids anchored within this of the origin, in both coordinates, take their
# links from the per-shape table (see ``_offset_links``).  A torus of 10**8
# SEs at the default density is 10**6 wide, so sessions of any run up to that
# size do.
ANCHOR_BOUND = 2.0**20


class SchedulingError(RuntimeError):
    pass


class EventQueueOverflow(RuntimeError):
    pass


class EventKind(IntEnum):
    QUERY = 2
    RREP = 4


class EventQueue:
    """Min-heap of (tick, insertion seq, event); FIFO among equal ticks."""

    __slots__ = ("_heap", "_counter", "now", "limit")

    def __init__(self, limit: int = QUEUE_LIMIT) -> None:
        self._heap: list[tuple[int, int, tuple]] = []
        self._counter = itertools.count()
        self.now = 0
        self.limit = limit

    def schedule(self, tick: int, event: tuple) -> None:
        if tick < self.now:
            raise SchedulingError(f"event at {tick} scheduled in the past (now {self.now})")
        if len(self._heap) >= self.limit:
            raise EventQueueOverflow(f"event queue exceeded {self.limit} entries")
        heapq.heappush(self._heap, (tick, next(self._counter), event))

    def pop(self) -> Optional[tuple[int, tuple]]:
        if not self._heap:
            return None
        tick, _, event = heapq.heappop(self._heap)
        self.now = tick
        return tick, event

    def pop_before(self, end_tick: int) -> Optional[tuple[int, tuple]]:
        if self._heap and self._heap[0][0] < end_tick:
            return self.pop()
        return None

    def __len__(self) -> int:
        return len(self._heap)


@dataclass(frozen=True)
class GridScenario:
    """Square mesh of fixed nodes with unit-disc radio links."""

    side: int
    spacing: float
    radio_range: float
    positions: tuple[tuple[float, float], ...]
    neighbors: tuple[tuple[int, ...], ...]
    destination: int

    @classmethod
    def build(
        cls,
        side: int,
        destination: int,
        anchor: tuple[float, float] = (0.0, 0.0),
        spacing: float = GRID_SPACING,
        radio_range: float = RADIO_RANGE,
    ) -> "GridScenario":
        if not 0 <= destination < side * side:
            raise ValueError("destination outside the grid")
        ax, ay = anchor
        positions = tuple(
            (ax + (n % side) * spacing, ay + (n // side) * spacing) for n in range(side * side)
        )
        neighbors = None
        if abs(ax) <= ANCHOR_BOUND and abs(ay) <= ANCHOR_BOUND:
            neighbors = _offset_links(side, spacing, radio_range)
        if neighbors is None:
            # Link by actual distance, not index math: the 4-adjacency shape is
            # a consequence of the chosen range, not an assumption.  Index math
            # only narrows the candidates to the nodes that could be in range.
            reach = _index_reach(spacing, radio_range)
            neighbors = tuple(
                tuple(
                    m
                    for m in _window(side, n % side, n // side, reach)
                    if m != n and math.dist(positions[n], positions[m]) <= radio_range
                )
                for n in range(side * side)
            )
        return cls(side, spacing, radio_range, positions, neighbors, destination)

    def node_pos(self, node: int) -> tuple[float, float]:
        return self.positions[node]

    @property
    def num_nodes(self) -> int:
        return self.side * self.side


def _index_reach(spacing: float, radio_range: float) -> int:
    """Index offset beyond which two grid points are farther apart than the range."""
    return math.floor(radio_range / spacing) + 1


@functools.lru_cache(maxsize=16)
def _offset_links(side: int, spacing: float, radio_range: float) -> Optional[tuple[tuple[int, ...], ...]]:
    """Each node's neighbours by index offset, the same for any anchor within
    ``ANCHOR_BOUND``; None when rounding could flip a link.

    A position coordinate is ``a + i * spacing`` rounded twice, so it is
    within 2**-52 * M of exact, M = ANCHOR_BOUND + (side - 1) * spacing.
    ``math.dist`` rounds the difference and the norm, and the nominal
    ``hypot`` below rounds too, so the per-pair distance ``build`` would test
    is within 2**-49 * (M + D) of the offset's nominal one, D < 2 * (range +
    spacing) inside the index window.  When some offset's nominal distance
    is within 512 times that of the range, a pair at that offset could
    compare either way, so there is no table and the caller tests every pair.
    """
    reach = _index_reach(spacing, radio_range)
    extent = ANCHOR_BOUND + (side - 1) * spacing
    margin = 2.0**-40 * (extent + 2 * (radio_range + spacing))
    offsets = []
    for dr in range(-reach, reach + 1):
        for dc in range(-reach, reach + 1):
            if dr == dc == 0:
                continue
            dist = math.hypot(dc * spacing, dr * spacing)
            if not abs(dist - radio_range) > margin:
                return None
            if dist < radio_range:
                offsets.append((dr, dc))
    return tuple(
        tuple(
            (row + dr) * side + col + dc
            for dr, dc in offsets
            if 0 <= row + dr < side and 0 <= col + dc < side
        )
        for row in range(side)
        for col in range(side)
    )


def _window(side: int, col: int, row: int, reach: int) -> list[int]:
    """Nodes within ``reach`` rows and columns of (col, row), in ascending order."""
    rows = range(max(0, row - reach), min(side, row + reach + 1))
    cols = range(max(0, col - reach), min(side, col + reach + 1))
    return [r * side + c for r in rows for c in cols]


def beacons_before(phase_counts: list[int], tick: int) -> int:
    """Beacons sent at ticks < ``tick`` by nodes that first beacon at their phase.

    ``phase_counts[p]`` nodes beacon at ``p + k * BEACON_INTERVAL``, k >= 0.
    """
    return sum(
        count * ((tick - 1 - phase) // BEACON_INTERVAL + 1)
        for phase, count in enumerate(phase_counts)
        if phase < tick
    )


@dataclass(slots=True)
class L1Entity:
    id: int
    x: float
    y: float
    kind: str
    dest_pos: Optional[tuple[float, float]] = None
    route_hops: Optional[int] = None
    arrived: bool = False
    query_seq: int = 0


@dataclass(slots=True)
class _Counters:
    rreq: int = 0
    rrep: int = 0
    arrivals: int = 0
    events_processed: int = 0

    def snapshot(self) -> Counters:
        return Counters(self.rreq, self.rrep, self.arrivals, self.events_processed)


class L1Instance:
    """One fine-grained session; strictly single-threaded and deterministic.

    Construction runs the warm-up (grid housekeeping only) and queues each
    mobile entity's first route query, so the first coarse step starts
    entity behaviour at ``WARMUP_TICKS``.
    """

    def __init__(self, scenario: GridScenario, entities: list[L1Entity], fine_steps: int) -> None:
        self.scenario = scenario
        self.entities = {e.id: e for e in entities}
        self.fine_steps = fine_steps
        self.step_len = WALK_SPEED / fine_steps
        self.queue = EventQueue()
        self.counters = _Counters()
        self.session_step = 0
        self.last_tick = 0
        # Every node beacons from tick n % WARMUP_TICKS on, every
        # BEACON_INTERVAL ticks.  A beacon changes nothing but the event
        # count, so beacons are counted per window instead of queued.
        nodes = scenario.num_nodes
        self.beacon_phases = [
            nodes // WARMUP_TICKS + (phase < nodes % WARMUP_TICKS) for phase in range(WARMUP_TICKS)
        ]
        self.beacons_sent = 0
        # Hop keys are ints: grid node n as n >= 0, entity e as ~e < 0.
        # Per flood origin, per node: the hop its first copy came from, or None.
        self.routes: dict[int, list[Optional[int]]] = {}
        # Counts of the flood copies due at ticks not yet run: tick -> [events, rreq, rrep].
        self.flood_counts: dict[int, list[int]] = {}
        # Entities walking to their destination -> the next tick they step.
        self.walkers: dict[int, int] = {}
        self._run_until(WARMUP_TICKS)
        for entity in self.entities.values():
            if entity.kind == "mobile":
                self.queue.schedule(WARMUP_TICKS, (EventKind.QUERY, entity.id))

    @classmethod
    def from_init(cls, init: Init) -> "L1Instance":
        """Build one from an INIT payload; an id named twice is a ``bad-field``.

        The wire carries no region geometry, so the grid is centered on the
        delegated cohort itself; with no entities it sits at the local origin.
        The destination node is drawn from the session seed.
        """
        repeated = [eid for eid, count in Counter(r.id for r in init.entities).items() if count > 1]
        if repeated:
            raise ProtocolError("bad-field", f"INIT names entity {repeated[0]} more than once")
        stream = rng.substream(init.seed, rng.LEVEL1)
        destination = stream.randrange(init.grid_side * init.grid_side)
        half = (init.grid_side - 1) * GRID_SPACING / 2.0
        if init.entities:
            cx = sum(r.x for r in init.entities) / len(init.entities)
            cy = sum(r.y for r in init.entities) / len(init.entities)
            anchor = (round(cx - half, 6), round(cy - half, 6))
        else:
            anchor = (0.0, 0.0)
        scenario = GridScenario.build(init.grid_side, destination, anchor=anchor)
        entities = [L1Entity(r.id, r.x, r.y, r.kind) for r in init.entities]
        return cls(scenario, entities, init.fine_steps)

    # -- event loop ---------------------------------------------------------

    def _run_until(self, end_tick: int) -> None:
        counters = self.counters
        sent = beacons_before(self.beacon_phases, end_tick)
        counters.events_processed += sent - self.beacons_sent
        self.beacons_sent = sent
        while True:
            item = self.queue.pop_before(end_tick)
            if item is None:
                break
            tick, event = item
            if tick < self.last_tick:
                raise SchedulingError("event causality violated")
            self.last_tick = tick
            counters.events_processed += 1
            self._dispatch(tick, event)
        for tick in [t for t in self.flood_counts if t < end_tick]:
            events, rreq, rrep = self.flood_counts.pop(tick)
            counters.events_processed += events
            counters.rreq += rreq
            counters.rrep += rrep
        self._walk_until(end_tick)

    def _walk_until(self, end_tick: int) -> None:
        """Step every walker through the ticks before ``end_tick``, one event each.

        A walk reads and writes only its own entity, and no event reads a
        walker's position (``_on_query`` stops once a destination is known),
        so walkers step after the window's events, in a plain loop.
        """
        counters = self.counters
        step_len = self.step_len
        for eid, tick in list(self.walkers.items()):
            entity = self.entities[eid]
            tx, ty = entity.dest_pos
            x, y = entity.x, entity.y
            start = tick
            while tick < end_tick:
                tick += 1
                dx = tx - x
                dy = ty - y
                dist = math.hypot(dx, dy)
                if dist <= ARRIVAL_RADIUS:
                    entity.arrived = True
                    counters.arrivals += 1
                    del self.walkers[eid]
                    break
                step = dist if dist < step_len else step_len
                x += step * dx / dist
                y += step * dy / dist
            else:
                self.walkers[eid] = tick
            counters.events_processed += tick - start
            entity.x, entity.y = x, y

    def _dispatch(self, tick: int, event: tuple) -> None:
        kind = event[0]
        if kind == EventKind.QUERY:
            self._on_query(tick, event[1])
        elif kind == EventKind.RREP:
            self._on_rrep(tick, *event[1:])
        else:
            raise SchedulingError(f"unknown event kind {kind}")

    def _entry_nodes(self, x: float, y: float) -> list[int]:
        """Nodes whose radio reaches (x, y), in ascending order."""
        sc = self.scenario
        reach = _index_reach(sc.spacing, sc.radio_range)
        ax, ay = sc.positions[0]
        # Cell coordinates of the point; NaN and far-off points fail here.
        cx = (x - ax) / sc.spacing
        cy = (y - ay) / sc.spacing
        if not (-reach <= cx <= sc.side - 1 + reach and -reach <= cy <= sc.side - 1 + reach):
            return []
        return [
            n
            for n in _window(sc.side, math.floor(cx), math.floor(cy), reach)
            if math.dist((x, y), sc.positions[n]) <= sc.radio_range
        ]

    def _on_query(self, tick: int, eid: int) -> None:
        entity = self.entities[eid]
        if entity.dest_pos is not None:
            return  # stale retry
        if entity.query_seq >= QUERY_RETRY_LIMIT:
            return  # discovery timeout, left as hops=null; the retry chain ends here
        entity.query_seq += 1
        self._flood(tick, ~eid, self._entry_nodes(entity.x, entity.y))
        self.queue.schedule(tick + QUERY_RETRY_TICKS, (EventKind.QUERY, eid))

    def _flood(self, tick: int, origin: int, entries: list[int]) -> None:
        """The route request ``origin`` broadcasts at ``tick`` to ``entries``, in one pass.

        Every RREQ hop takes one tick and copies due on the same tick are
        handled in the order they were sent, so the flood is a breadth-first
        search from ``entries``: the nodes at depth d handle their first copy
        at ``tick + d`` and each rebroadcasts once (the destination answers
        instead), and the later copies a node would drop arrive a tick after
        their senders'.  None of that changes anything but the counters and
        the routes, so the search runs now; its counts wait per tick in
        ``flood_counts`` for ``_run_until``, and only the reply is queued,
        for the tick after the destination hears the request.
        """
        self.counters.rreq += 1
        sc = self.scenario
        destination = sc.destination
        neighbors = sc.neighbors
        counts = self.flood_counts
        parent: list[Optional[int]] = [None] * len(neighbors)
        for node in entries:
            parent[node] = origin
        frontier = entries
        reply_tick = None
        t = tick
        while frontier:
            t += 1
            heard = []
            sent = 0
            for node in frontier:
                if node == destination:
                    reply_tick = t
                    continue
                links = neighbors[node]
                sent += len(links)
                for m in links:
                    if parent[m] is None:
                        parent[m] = node
                        heard.append(m)
            answered = reply_tick == t
            row = counts.setdefault(t, [0, 0, 0])
            row[0] += len(frontier)
            row[1] += len(frontier) - answered
            row[2] += answered
            # Every copy sent that claimed no node is dropped on arrival.
            if sent > len(heard):
                counts.setdefault(t + 1, [0, 0, 0])[0] += sent - len(heard)
            frontier = heard
        # A retry floods from where its entity still stands, so replacing the
        # map leaves the path of an earlier flood's reply as it was.
        self.routes[origin] = parent
        if reply_tick is not None:
            hops = reply_tick - tick
            reply = (EventKind.RREP, parent[destination], origin, sc.node_pos(destination), hops)
            self.queue.schedule(reply_tick + 1, reply)

    def _on_rrep(self, tick: int, target: int, origin: int, dest_pos: tuple, route_hops: int) -> None:
        if target == origin:
            self._deliver_rrep(tick, origin, dest_pos, route_hops)
            return
        self.counters.rrep += 1
        prev = self.routes[origin][target]
        self.queue.schedule(tick + 1, (EventKind.RREP, prev, origin, dest_pos, route_hops))

    def _deliver_rrep(self, tick: int, origin: int, dest_pos: tuple, route_hops: int) -> None:
        ident = ~origin
        entity = self.entities[ident]
        if entity.dest_pos is not None:
            return  # duplicate reply
        entity.dest_pos = (dest_pos[0], dest_pos[1])
        entity.route_hops = route_hops
        self.walkers[ident] = tick + 1

    # -- session surface ----------------------------------------------------

    def run_one_coarse_step(self, timestep: int) -> tuple[tuple[EntityRecord, ...], Counters]:
        del timestep  # the caller's index; echoed by the protocol layer
        self.session_step += 1
        self._run_until(WARMUP_TICKS + self.session_step * self.fine_steps)
        return self.status_records(), self.counters.snapshot()

    def finalize(self) -> tuple[tuple[EntityRecord, ...], Counters]:
        return self.status_records(), self.counters.snapshot()

    def status_records(self) -> tuple[EntityRecord, ...]:
        return tuple(
            EntityRecord(
                id=e.id,
                x=e.x,
                y=e.y,
                kind=e.kind,
                arrived=e.arrived,
                hops=e.route_hops,
            )
            for e in self.entities.values()
        )


def make_handlers(init: Init) -> L1Instance:
    """The instance ``protocol.InstanceSession`` drives for one session."""
    return L1Instance.from_init(init)


# -- the session template ------------------------------------------------------


def serve_forks(control: socket.socket) -> None:
    """The session template: fork one child per request on ``control``.

    A request is one message on a SOCK_SEQPACKET socket: the instance id,
    carrying two file descriptors, the child's report channel and the server
    end of the TCP connection the engine made for the session.  The child
    writes ``PID=<pid>`` on the channel, serves the session on the
    connection with the channel as its stdout and stderr (error text,
    ``VMHWM=``), writes ``EXIT=<status>`` last and ends with ``os._exit``.
    At EOF on ``control`` (the engine closed it, or died) every child still
    running is killed, and all are reaped before this returns.  Call it from
    a process with one thread: it forks.
    """
    children: set[int] = set()
    try:
        while True:
            request, fds, _, _ = socket.recv_fds(control, 1024, 2)
            if not request:
                return
            channel, conn = fds
            # Reap finished children, so zombies never pile up over a long run.
            children -= {pid for pid in children if os.waitpid(pid, os.WNOHANG)[0]}
            try:
                pid = os.fork()
            except OSError as exc:
                os.write(channel, f"fork failed: {exc}\n".encode())
                pid = None
            if pid == 0:
                status = 1
                try:
                    control.close()
                    status = _serve_child(channel, conn, request.decode())
                finally:
                    # Never unwind into this loop: the child is not a template.
                    os._exit(status)
            # Only the child keeps the connection: when it dies, the engine sees EOF.
            os.close(channel)
            os.close(conn)
            if pid is not None:
                children.add(pid)
    finally:
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in children:
            os.waitpid(pid, 0)


def _serve_child(channel: int, conn: int, instance_id: str) -> int:
    """One forked child's session on ``conn``, reported on ``channel``; returns its exit status."""
    os.dup2(channel, 1)
    os.dup2(channel, 2)
    os.close(channel)
    print(f"PID={os.getpid()}", flush=True)

    def make_checked(init: Init) -> L1Instance:
        if init.instance_id != instance_id:
            raise ProtocolError(
                "instance-mismatch",
                f"serving {instance_id!r} but INIT names {init.instance_id!r}",
            )
        return make_handlers(init)

    status = 1
    transport = Transport(socket.socket(fileno=conn))
    try:
        serve_session(transport, make_checked)
        status = 0
    except ProtocolError as exc:
        print(f"session failed: {exc}", file=sys.stderr)
    except Exception:  # noqa: BLE001 - reported to the engine on the channel
        import traceback

        traceback.print_exc()
    finally:
        transport.close()
    peak = measure_peak_memory()
    if peak is not None:
        print(f"VMHWM={peak}")
    # EXIT= is the last line: the engine stops reading at it.
    sys.stderr.flush()
    print(f"EXIT={status}", flush=True)
    return status


def main() -> None:
    """The template's entry: the engine hands over the control socket as stdin."""
    # An ignored SIGCHLD, inherited across exec, would reap children behind our back.
    signal.signal(signal.SIGCHLD, signal.SIG_DFL)
    serve_forks(socket.socket(fileno=sys.stdin.fileno()))
    # Every child is reaped and nothing is buffered; interpreter teardown would
    # only make the engine wait.
    os._exit(0)


if __name__ == "__main__":
    main()
