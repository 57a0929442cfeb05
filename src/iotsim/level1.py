"""Fine-grained simulator: a wireless grid plus walking entities.

One instance hosts a square grid of fixed nodes (a local device mesh) and the
entities delegated to it.  The grid is a function of the module's constants:
nodes ``GRID_SPACING`` apart, each linked to every node within ``RADIO_RANGE``
on the mesh, so its links depend only on its side.  Every route is discovered
from an entity: a mobile entity broadcasts a route query to the nodes in its
radio range, the query floods the mesh hop by hop, and the destination node
answers along the reverse path with its position and the hop count.  The
entity then walks straight to that node at ``WALK_SPEED`` per coarse timestep
until it is within ``ARRIVAL_RADIUS``.  Time is an integer count of fine
ticks; ``fine_steps`` ticks make up one coarse timestep of the driving
simulation.

There is no event queue.  Each event is counted at the tick it would be
handled: beacons in closed form, an entity's whole route discovery (its
queries, their floods and replies) once, when the instance is built, and
walker ticks in a plain loop.

``python -S -m iotsim.level1`` is the session template the coarse engine starts
once per TCP run (see ``serve_forks``): it loads only this module, the
protocol and the scalar hash (no numpy, no coarse engine), then forks one
child per session, so a session pays for a fork, not an interpreter start.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from collections import Counter

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
# Index offset beyond which two nodes, or a point and a node, are out of range.
REACH = math.floor(RADIO_RANGE / GRID_SPACING) + 1
WARMUP_TICKS = 10
BEACON_INTERVAL = 25
# Pedestrian pace, space units per coarse timestep.
WALK_SPEED = 1.4
ARRIVAL_RADIUS = 1.0
QUERY_RETRY_TICKS = 50
QUERY_RETRY_LIMIT = 8


class GridScenario:
    """Square mesh of ``side`` x ``side`` fixed nodes, ``GRID_SPACING`` apart
    from ``anchor`` (node 0) in row-major order; its links are ``_links(side)``."""

    __slots__ = ("side", "anchor", "neighbors", "destination")

    def __init__(
        self, side: int, anchor: tuple[float, float], neighbors: tuple[tuple[int, ...], ...], destination: int
    ) -> None:
        self.side = side
        self.anchor = anchor
        self.neighbors = neighbors
        self.destination = destination

    @classmethod
    def build(cls, side: int, destination: int, anchor: tuple[float, float] = (0.0, 0.0)) -> "GridScenario":
        if not 0 <= destination < side * side:
            raise ValueError("destination outside the grid")
        return cls(side, anchor, _links(side), destination)

    def node_pos(self, node: int) -> tuple[float, float]:
        ax, ay = self.anchor
        return ax + (node % self.side) * GRID_SPACING, ay + (node // self.side) * GRID_SPACING

    @property
    def num_nodes(self) -> int:
        return self.side * self.side


@functools.lru_cache(maxsize=16)
def _links(side: int) -> tuple[tuple[int, ...], ...]:
    """Each node's neighbours, in ascending order: the nodes at an index
    offset whose length on the mesh is at most ``RADIO_RANGE``.

    The links are the mesh's shape, wherever it lies: they do not depend on
    how node positions round far from the origin.
    """
    offsets = [
        (dr, dc)
        for dr in range(-REACH, REACH + 1)
        for dc in range(-REACH, REACH + 1)
        if (dr, dc) != (0, 0) and math.hypot(dc * GRID_SPACING, dr * GRID_SPACING) <= RADIO_RANGE
    ]
    return tuple(
        tuple(
            (row + dr) * side + col + dc
            for dr, dc in offsets
            if 0 <= row + dr < side and 0 <= col + dc < side
        )
        for row in range(side)
        for col in range(side)
    )


def beacons_before(phase_counts: list[int], tick: int) -> int:
    """Beacons sent at ticks < ``tick`` by nodes that first beacon at their phase.

    ``phase_counts[p]`` nodes beacon at ``p + k * BEACON_INTERVAL``, k >= 0.
    """
    return sum(
        count * ((tick - 1 - phase) // BEACON_INTERVAL + 1)
        for phase, count in enumerate(phase_counts)
        if phase < tick
    )


class L1Entity:
    __slots__ = ("id", "x", "y", "kind", "route_hops", "arrived")

    def __init__(self, id: int, x: float, y: float, kind: str) -> None:
        self.id = id
        self.x = x
        self.y = y
        self.kind = kind
        self.route_hops: int | None = None
        self.arrived = False


class _Counters:
    __slots__ = ("rreq", "rrep", "arrivals", "events_processed")

    def __init__(self) -> None:
        self.rreq = self.rrep = self.arrivals = self.events_processed = 0

    def snapshot(self) -> Counters:
        return Counters(self.rreq, self.rrep, self.arrivals, self.events_processed)


class L1Instance:
    """One fine-grained session; strictly single-threaded and deterministic.

    Construction runs the warm-up (grid housekeeping only) and counts each
    mobile entity's route discovery, which starts at ``WARMUP_TICKS``, so
    the first coarse step starts entity behaviour there.
    """

    def __init__(self, scenario: GridScenario, entities: list[L1Entity], fine_steps: int) -> None:
        self.scenario = scenario
        self.entities = {e.id: e for e in entities}
        self.fine_steps = fine_steps
        self.step_len = WALK_SPEED / fine_steps
        self.counters = _Counters()
        self.session_step = 0
        # Every node beacons from tick n % WARMUP_TICKS on, every
        # BEACON_INTERVAL ticks.  A beacon changes nothing but the event
        # count, so beacons are counted per window.
        nodes = scenario.num_nodes
        self.beacon_phases = [
            nodes // WARMUP_TICKS + (phase < nodes % WARMUP_TICKS) for phase in range(WARMUP_TICKS)
        ]
        self.beacons_sent = 0
        # Counts of the discovery events due at ticks not yet run: tick -> [events, rreq, rrep].
        self.counts: dict[int, list[int]] = {}
        # Entities whose first reply has not landed yet -> (the tick it lands, its hops).
        self.replies: dict[int, tuple[int, int]] = {}
        # Entities walking to their destination -> the next tick they step.
        self.walkers: dict[int, int] = {}
        self._run_until(WARMUP_TICKS)
        for entity in self.entities.values():
            if entity.kind == "mobile":
                self._discover(entity)

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

    # -- time ---------------------------------------------------------------

    def _run_until(self, end_tick: int) -> None:
        counters = self.counters
        sent = beacons_before(self.beacon_phases, end_tick)
        counters.events_processed += sent - self.beacons_sent
        self.beacons_sent = sent
        for tick in [t for t in self.counts if t < end_tick]:
            events, rreq, rrep = self.counts.pop(tick)
            counters.events_processed += events
            counters.rreq += rreq
            counters.rrep += rrep
        for eid, (tick, hops) in list(self.replies.items()):
            if tick < end_tick:
                del self.replies[eid]
                self.entities[eid].route_hops = hops
                self.walkers[eid] = tick + 1
        self._walk_until(end_tick)

    def _walk_until(self, end_tick: int) -> None:
        """Step every walker through the ticks before ``end_tick``, one event each.

        A walk reads and writes only its own entity, and nothing else reads
        a walker's position (an entity's queries flood only before its reply
        lands, see ``_discover``), so walkers step after the window's
        counts, in a plain loop.
        """
        counters = self.counters
        step_len = self.step_len
        # Every walker heads for the destination node.
        tx, ty = self.scenario.node_pos(self.scenario.destination)
        for eid, tick in list(self.walkers.items()):
            entity = self.entities[eid]
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

    def _entry_nodes(self, x: float, y: float) -> list[int]:
        """Nodes whose radio reaches (x, y), in ascending order."""
        sc = self.scenario
        ax, ay = sc.anchor
        # Cell coordinates of the point; NaN and far-off points fail here.
        cx = (x - ax) / GRID_SPACING
        cy = (y - ay) / GRID_SPACING
        if not (-REACH <= cx <= sc.side - 1 + REACH and -REACH <= cy <= sc.side - 1 + REACH):
            return []
        col, row = math.floor(cx), math.floor(cy)
        window = (
            r * sc.side + c
            for r in range(max(0, row - REACH), min(sc.side, row + REACH + 1))
            for c in range(max(0, col - REACH), min(sc.side, col + REACH + 1))
        )
        # An entity is anywhere, so its range is a real distance, not an offset.
        return [n for n in window if math.dist((x, y), sc.node_pos(n)) <= RADIO_RANGE]

    # -- route discovery ------------------------------------------------------

    def _discover(self, entity: L1Entity) -> None:
        """Count ``entity``'s whole route discovery into ``counts``, and note its reply.

        The entity queries at ``WARMUP_TICKS`` and every ``QUERY_RETRY_TICKS``
        after, one event each.  A query floods unless the reply has landed or
        ``QUERY_RETRY_LIMIT`` floods have run; the first one that does not
        ends the chain.  A reply goes back one hop per tick: ``hops - 1``
        RREP sends, then its delivery, ``2 * hops`` ticks after its query.
        A query on the tick the reply lands runs first, so it floods again;
        a later flood's reply is counted alike and changes nothing else.
        The entity stands still until its reply lands, so every flood is the
        same search, shifted in time, and the search runs once.
        """
        trip, hops = self._flood(self._entry_nodes(entity.x, entity.y))
        lands = None
        if hops is not None:
            lands = WARMUP_TICKS + 2 * hops
            self.replies[entity.id] = (lands, hops)
            trip += [[0, 0, 0] for _ in range(2 * hops + 1 - len(trip))]
            for row in trip[hops + 1 : 2 * hops]:
                row[0] += 1
                row[2] += 1
            trip[2 * hops][0] += 1
        counts = self.counts
        for query in range(QUERY_RETRY_LIMIT + 1):
            tick = WARMUP_TICKS + query * QUERY_RETRY_TICKS
            counts.setdefault(tick, [0, 0, 0])[0] += 1
            if query == QUERY_RETRY_LIMIT or (lands is not None and lands < tick):
                break  # timed out, or the route is known: the chain ends here
            for t, (events, rreq, rrep) in enumerate(trip, tick):
                row = counts.setdefault(t, [0, 0, 0])
                row[0] += events
                row[1] += rreq
                row[2] += rrep

    def _flood(self, entries: list[int]) -> tuple[list[list[int]], int | None]:
        """The route request an entity broadcasts to ``entries``, in one pass.

        Every RREQ hop takes one tick and copies due on the same tick are
        handled in the order they were sent, so the flood is a breadth-first
        search from ``entries``: the nodes at depth d handle their first copy
        d ticks after the broadcast and each rebroadcasts once (the
        destination answers instead), and the later copies a node would drop
        arrive a tick after their senders'.  Returns the counts ``[events,
        rreq, rrep]`` per tick from the broadcast on, and the destination's
        depth, the reply's hop count (None if the flood misses it).
        """
        destination = self.scenario.destination
        neighbors = self.scenario.neighbors
        reached = [False] * len(neighbors)
        for node in entries:
            reached[node] = True
        rows = [[0, 1, 0]]
        hops = None
        dropped = 0
        frontier = entries
        while frontier:
            heard = []
            sent = 0
            for node in frontier:
                if node == destination:
                    hops = len(rows)
                    continue
                links = neighbors[node]
                sent += len(links)
                for m in links:
                    if not reached[m]:
                        reached[m] = True
                        heard.append(m)
            answered = int(hops == len(rows))
            rows.append([len(frontier) + dropped, len(frontier) - answered, answered])
            # Every copy sent that claimed no node is dropped on arrival.
            dropped = sent - len(heard)
            frontier = heard
        if dropped:
            rows.append([dropped, 0, 0])
        return rows, hops

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
            [EntityRecord(e.id, e.x, e.y, e.kind, e.arrived, e.route_hops) for e in self.entities.values()]
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
    import signal
    import socket

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
    import socket

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
    # Imported here, not at the top: a loopback session loads this module too.
    import signal
    import socket

    # An ignored SIGCHLD, inherited across exec, would reap children behind our back.
    signal.signal(signal.SIGCHLD, signal.SIG_DFL)
    serve_forks(socket.socket(fileno=sys.stdin.fileno()))
    # Every child is reaped and nothing is buffered; interpreter teardown would
    # only make the engine wait.
    os._exit(0)


if __name__ == "__main__":
    main()
