"""Coarse time-stepped engine: logical processes over world stripes.

The world is split into equal vertical stripes, one logical process (LP) per
stripe.  An LP owns the entities in its stripe: it moves them, hands them to
its neighbours when they cross a seam, and delegates some of them to
fine-grained sessions.  Delivery does not care about stripes.  Each timestep
runs in fixed phases:

  (1) deliver, once for the whole world: every transmission staged last step
      is received exactly one step after it was emitted, by every live
      entity in its disc, in one canonical order.  One cell-list join of
      the step's transmissions with every entity gives the pairs in that
      order; they are received in chunks of O(live entities), each with
      its forward coins drawn at once.  Then live entities generate.
      Relayed copies and fresh messages are staged for the next step,
  (2) for each LP in id order: step mobility, apply pending reintegrations,
      then stage for migration the entities whose position crossed a stripe
      boundary,
  (3) hand each migrating entity to the LP of its new stripe,
  (4) process this step's spawn triggers: delegate entities and drive each
      fine-grained session to completion.  A session's FINAL is checked
      where the session ends: its ids by the session client, its positions
      against the LP's stripe here; the entities stay frozen where they were
      until the next step reintegrates them.  With more than one LP, each LP
      with triggers runs its sessions on a thread of its own, so sessions of
      different LPs overlap; all are joined before the step ends.  A
      loopback session runs its instance inline and waits for nothing;
      every wait on a TCP session is bounded by ``protocol.DEFAULT_TIMEOUT``,
      read when the wait is set up.

Determinism does not depend on the partitioning: in-loop random decisions are
stateless hashes of (seed, purpose, ids), and every receiver consumes its
receipts in the order of (message id, sender).
"""

from __future__ import annotations

import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter as TallyCounter
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import attrgetter, itemgetter
from typing import Optional, TextIO

import numpy as np

from . import protocol, rng
from .config import SimConfig, SpawnTrigger
from .dissemination import MsgId, generate_message, relay_step
from .mobility import rwp_step
from .model import Entity, make_entities
from .protocol import (
    Counters,
    EntityRecord,
    Init,
    InstanceSession,
    ProtocolError,
    SessionClient,
    Transport,
    TransportClosed,
    connect_tcp,
    serve_session,  # unused here: until ROADMAP item 1, perfbench's tracer wraps it by this name
)
from .world import ToroidalWorld

# Slack for 6-decimal wire rounding when validating reintegrated positions.
REGION_TOL = 1e-5
# Fewest join candidates per deliver chunk: below it, a small world pays each
# chunk's fixed numpy calls many times over for few receipts.
JOIN_CHUNK_FLOOR = 4096
# The directory holding this ``iotsim`` package: the session template's only import path.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class SimulationError(RuntimeError):
    pass


@dataclass(slots=True)
class LogicalProcess:
    """One vertical stripe of the world and the entities it owns."""

    lp_id: int
    x0: float
    x1: float
    entities: dict[int, Entity] = field(default_factory=dict)
    delegated: dict[int, Entity] = field(default_factory=dict)
    # Entities back from this step's sessions, with their checked world positions.
    pending_reint: list[tuple[Entity, float, float]] = field(default_factory=list)


def stripe_of(entities: list[Entity], world: ToroidalWorld, num_lps: int) -> np.ndarray:
    """The stripe holding each entity's x, of ``num_lps`` equal-width ones.

    Positions are wrapped, so x >= 0 and truncating the float64 quotient is
    its floor; an x whose quotient rounds up to ``num_lps`` is in the last
    stripe.  This is the only stripe formula: seeding and both migration
    phases use it.
    """
    xs = np.fromiter((e.x for e in entities), dtype=np.float64, count=len(entities))
    return np.minimum((xs / (world.width / num_lps)).astype(np.int64), num_lps - 1)


def partition(config: SimConfig, entities: list[Entity], world: ToroidalWorld) -> list[LogicalProcess]:
    """Equal-width stripes; each entity goes to the stripe holding its x."""
    n = config.num_lps
    lps = [LogicalProcess(i, i * world.width / n, (i + 1) * world.width / n) for i in range(n)]
    for e, stripe in zip(entities, stripe_of(entities, world, n).tolist()):
        lps[stripe].entities[e.id] = e
    return lps


@dataclass(frozen=True, slots=True)
class TimestepReport:
    timestep: int
    generated: int
    forwarded: int
    delivered: int
    duplicates: int
    dropped_delegated: int
    active: int
    delegated: int
    # The step's one world-wide deliver, in seconds.
    deliver_wct: float
    # Each LP's own work in the step (mobility, migration out, its sessions),
    # in seconds; no wait on another LP is included.
    lp_wct: tuple[float, ...]


@dataclass(slots=True)
class SessionLog:
    instance_id: str
    lp_id: int
    at_timestep: int
    entity_ids: tuple[int, ...]
    wct_start: float
    wct_end: float
    counters: Counters
    child_peak_rss: Optional[int]
    transcript: Optional[list[tuple[str, bytes]]]

    @property
    def wct(self) -> float:
        return self.wct_end - self.wct_start


class DeliveryAudit:
    """Receipt-level bookkeeping: hop-budget extremes, optional full tallies."""

    def __init__(self, ttl: int, record_receipts: bool = False) -> None:
        self.ttl = ttl
        self.record_receipts = record_receipts
        self.min_ttl_seen: Optional[int] = None
        self.receipts: dict[MsgId, TallyCounter] = {}

    @property
    def max_trace_len(self) -> int:
        """Most transmitters behind a received copy, origin included: each relay spends one hop."""
        return 0 if self.min_ttl_seen is None else self.ttl - self.min_ttl_seen + 1

    def record_many(self, msg_ids: list[MsgId], receiver_ids: np.ndarray, min_ttl: int) -> None:
        """Receipts in order: ``receiver_ids[k]`` got a copy of ``msg_ids[k]``;
        the fewest hops left on any of them is ``min_ttl``."""
        if self.min_ttl_seen is None or min_ttl < self.min_ttl_seen:
            self.min_ttl_seen = min_ttl
        if self.record_receipts:
            for msg_id, rid in zip(msg_ids, receiver_ids.tolist()):
                self.receipts.setdefault(msg_id, TallyCounter())[rid] += 1

    def receiver_sets(self) -> dict[MsgId, frozenset[int]]:
        return {m: frozenset(t) for m, t in self.receipts.items()}

    def duplicate_deliveries(self) -> int:
        """Receipts beyond the first per (message, receiver) pair."""
        return sum(sum(t.values()) - len(t) for t in self.receipts.values())


@dataclass(slots=True)
class RunResult:
    config: SimConfig
    entities: dict[int, Entity]
    reports: list[TimestepReport]
    session_logs: list[SessionLog]
    audit: DeliveryAudit
    total_wct: float

    def totals(self) -> dict[str, int]:
        out = {"generated": 0, "forwarded": 0, "delivered": 0, "duplicates": 0, "dropped_delegated": 0}
        for r in self.reports:
            out["generated"] += r.generated
            out["forwarded"] += r.forwarded
            out["delivered"] += r.delivered
            out["duplicates"] += r.duplicates
            out["dropped_delegated"] += r.dropped_delegated
        return out

    def fingerprint(self) -> tuple:
        """Order-independent digest of the end state, for equality checks."""
        totals = self.totals()
        per_step = tuple(
            (r.timestep, r.generated, r.forwarded, r.delivered, r.duplicates) for r in self.reports
        )
        positions = tuple(
            (e.id, round(e.x, 9), round(e.y, 9)) for e in sorted(self.entities.values(), key=lambda e: e.id)
        )
        return (tuple(sorted(totals.items())), per_step, positions)


# One transmission in flight: message id, sender, hops left, where it was sent from.
_Tx = tuple[MsgId, int, int, float, float]
# Canonical delivery order; the sort is stable, so ties keep staging order.
_tx_order = itemgetter(0, 1)


class SimEngine:
    """Builds the world, runs the step loop, owns all cross-LP plumbing."""

    def __init__(
        self,
        config: SimConfig,
        record_receipts: bool = False,
        keep_transcripts: bool = False,
    ) -> None:
        self.config = config
        self.world = config.make_world()
        self.keep_transcripts = keep_transcripts
        entities = make_entities(config, self.world)
        self.lps = partition(config, entities, self.world)
        self.triggers: dict[tuple[int, int], list[SpawnTrigger]] = {}
        for trig in config.l1_schedule:
            self.triggers.setdefault((trig.at_timestep, trig.lp_id), []).append(trig)

        # Transmissions staged for the next deliver, and entities leaving their stripe.
        self._staged: list[_Tx] = []
        self._migrating: list[Entity] = []
        self.audit = DeliveryAudit(config.ttl, record_receipts)
        self.session_logs: list[SessionLog] = []
        # The TCP session template; run() owns it.
        self._template: Optional[SessionTemplate] = None

    # -- step phases ----------------------------------------------------------

    def _phase_deliver(self, t: int, part: dict) -> None:
        """Step ``t``'s one deliver: receive last step's transmissions, then
        generate; relayed copies and fresh messages are staged for step ``t + 1``.

        The join hands its pairs over in chunks of at most
        ``max(n_live, JOIN_CHUNK_FLOOR)`` candidates (one sender's may be
        more); how the pairs are chunked never changes a result."""
        cfg = self.config
        # Canonical order: every receiver's cache sees the same sequence no
        # matter who staged each transmission.
        txs = sorted(self._staged, key=_tx_order)
        self._staged = outgoing = []
        # Live receivers first; frozen ones after.
        live = [e for lp in self.lps for e in lp.entities.values()]
        receivers = live + [e for lp in self.lps for e in lp.delegated.values()]
        n_live = len(live)
        ids = np.fromiter((e.id for e in receivers), dtype=np.int64, count=len(receivers))
        live_ids = ids[:n_live]
        if txs:
            xs = np.fromiter((e.x for e in receivers), dtype=np.float64, count=len(receivers))
            ys = np.fromiter((e.y for e in receivers), dtype=np.float64, count=len(receivers))
            msg_ids, senders, ttls, sxs, sys_ = zip(*txs)
            origins, seqs = np.array(msg_ids, dtype=np.int64).T
            senders = np.array(senders, dtype=np.int64)
            caches = [e.cache for e in live]
            # One cell-list join; its pairs arrive in receipt order, in chunks
            # of O(n_live) candidates.  Coins do not depend on cache state, so
            # drawing a chunk's coins at once changes nothing.
            budget = max(n_live, JOIN_CHUNK_FLOOR)
            chunks = self.world.join(np.array(sxs), np.array(sys_), xs, ys, cfg.interaction_range, budget)
            for tx, rx, dx, dy in chunks:
                live_rx = rx < n_live
                # Frozen receivers get nothing; the drop is still accounted.
                part["dropped_delegated"] += len(rx) - int(np.count_nonzero(live_rx))
                keep = np.flatnonzero(live_rx & (ids[rx] != senders[tx]))
                if not len(keep):
                    continue
                tx, rx = tx[keep], rx[keep]
                rids = ids[rx]
                coins = rng.unit_uniforms((cfg.seed, rng.FORWARD), rids, origins[tx], seqs[tx])
                txl, rxl = tx.tolist(), rx.tolist()
                rx_msgs = list(map(msg_ids.__getitem__, txl))
                rx_ttls = list(map(ttls.__getitem__, txl))
                dists = map(math.hypot, dx[keep].tolist(), dy[keep].tolist())
                outcomes = list(
                    map(
                        relay_step,
                        map(caches.__getitem__, rxl),
                        rx_msgs,
                        rx_ttls,
                        dists,
                        coins.tolist(),
                        repeat(cfg),
                    )
                )
                # relay_step answers (True, False) for a duplicate and (False, True) for a forward.
                duplicates = outcomes.count((True, False))
                part["duplicates"] += duplicates
                part["delivered"] += len(outcomes) - duplicates
                forwards = list(compress(range(len(outcomes)), map(itemgetter(1), outcomes)))
                part["forwarded"] += len(forwards)
                for k in forwards:
                    entity = live[rxl[k]]
                    outgoing.append((rx_msgs[k], entity.id, rx_ttls[k] - 1, entity.x, entity.y))
                self.audit.record_many(rx_msgs, rids, min(rx_ttls))

        # Fresh traffic, in id order so staging order is reproducible.
        if cfg.generation_prob > 0:
            coins = rng.unit_uniforms((cfg.seed, rng.GENERATION), live_ids, t)
            winners = np.flatnonzero(coins < cfg.generation_prob).tolist()
            for entity in sorted((live[i] for i in winners), key=attrgetter("id")):
                msg_id, ttl = generate_message(entity.id, entity.next_seq, cfg)
                entity.next_seq += 1
                entity.cache.touch(msg_id)  # never re-deliver to self
                part["generated"] += 1
                outgoing.append((msg_id, entity.id, ttl, entity.x, entity.y))

    def _phase_mobility(self, lp: LogicalProcess) -> None:
        cfg = self.config
        for entity in lp.entities.values():
            if entity.kind == "mobile":
                entity.x, entity.y = rwp_step(
                    self.world,
                    entity.x,
                    entity.y,
                    entity.mobility,
                    cfg.speed_min,
                    cfg.speed_max,
                    entity.mob_rng,
                )

    def _reintegrate(self, lp: LogicalProcess) -> None:
        """Return the entities of last step's sessions to ``lp``."""
        for entity, x, y in lp.pending_reint:
            entity.x, entity.y = x, y
            del lp.delegated[entity.id]
            lp.entities[entity.id] = entity
        lp.pending_reint.clear()

    def _phase_migrate_out(self, lp: LogicalProcess) -> None:
        # Reintegrations from last step's sessions re-enter here, then the
        # normal stripe sweep re-homes whoever moved.
        self._reintegrate(lp)
        entities = list(lp.entities.values())
        stripes = stripe_of(entities, self.world, self.config.num_lps)
        for k in np.flatnonzero(stripes != lp.lp_id).tolist():
            self._migrating.append(lp.entities.pop(entities[k].id))

    def _phase_migrate_in(self) -> None:
        """Hand every migrating entity to the LP of its new stripe."""
        stripes = stripe_of(self._migrating, self.world, self.config.num_lps).tolist()
        for entity, stripe in zip(self._migrating, stripes):
            self.lps[stripe].entities[entity.id] = entity
        self._migrating.clear()

    # -- delegation and sessions ----------------------------------------------

    def delegate_entities(self, lp: LogicalProcess, trigger: SpawnTrigger) -> list[Entity]:
        """Pick and freeze the entities nearest the stripe centroid."""
        if len(lp.entities) < trigger.entity_count:
            raise SimulationError(
                f"trigger at t={trigger.at_timestep} lp={trigger.lp_id} wants "
                f"{trigger.entity_count} entities, LP owns {len(lp.entities)}"
            )
        cx = (lp.x0 + lp.x1) / 2.0
        cy = self.world.height / 2.0
        chosen = sorted(
            lp.entities.values(), key=lambda e: ((e.x - cx) ** 2 + (e.y - cy) ** 2, e.id)
        )[: trigger.entity_count]
        for entity in chosen:
            del lp.entities[entity.id]
            lp.delegated[entity.id] = entity
        return chosen

    def _session_init(
        self, lp: LogicalProcess, chosen: list[Entity], instance_id: str, t: int, index: int
    ) -> Init:
        records = tuple(
            EntityRecord(id=e.id, x=e.x - lp.x0, y=e.y, kind=e.kind)
            for e in sorted(chosen, key=lambda e: e.id)
        )
        seed = rng.mix(self.config.seed, rng.LEVEL1, t, lp.lp_id, index)
        return Init(
            instance_id=instance_id,
            seed=seed,
            grid_side=self.config.l1_grid_side,
            fine_steps=self.config.l1_fine_steps_per_timestep,
            entities=records,
        )

    def _run_session(
        self, lp: LogicalProcess, trigger: SpawnTrigger, t: int, index: int
    ) -> SessionLog:
        instance_id = f"t{t}-lp{lp.lp_id}-{index}"
        chosen = self.delegate_entities(lp, trigger)
        init = self._session_init(lp, chosen, instance_id, t, index)
        transcript: Optional[list] = [] if self.keep_transcripts else None
        started = time.perf_counter()
        try:
            if self.config.l1_transport == "loopback":
                final, child_rss = _drive_loopback(init, t, transcript)
            elif self._template is None:
                raise SimulationError("TCP sessions run only inside run(), which starts their template")
            else:
                final, child_rss = _drive_subprocess(init, t, transcript, self._template)
            # The client checked the ids against INIT; the positions are checked
            # here, and applied at the next reintegration (frozen until then).
            for r in final.entities:
                if not (-REGION_TOL <= r.x <= lp.x1 - lp.x0 + REGION_TOL) or not (
                    -REGION_TOL <= r.y <= self.world.height + REGION_TOL
                ):
                    raise ProtocolError(
                        "region-violation",
                        f"entity {r.id} returned at local ({r.x}, {r.y}), outside its region",
                    )
                lp.pending_reint.append((lp.delegated[r.id], *self.world.wrap(lp.x0 + r.x, r.y)))
        except Exception as exc:
            raise SimulationError(f"L1 session {instance_id} failed: {exc}") from exc
        ended = time.perf_counter()
        return SessionLog(
            instance_id=instance_id,
            lp_id=lp.lp_id,
            at_timestep=t,
            entity_ids=tuple(r.id for r in init.entities),
            wct_start=started,
            wct_end=ended,
            counters=final.counters,
            child_peak_rss=child_rss,
            transcript=transcript,
        )

    def _phase_sessions(self, lp: LogicalProcess, t: int) -> list[SessionLog]:
        return [
            self._run_session(lp, trigger, t, index)
            for index, trigger in enumerate(self.triggers[(t, lp.lp_id)])
        ]

    # -- step driver ------------------------------------------------------------

    def _lp_step(self, lp: LogicalProcess) -> None:
        """One LP's mobility and migration out."""
        self._phase_mobility(lp)
        self._phase_migrate_out(lp)

    def _step_sessions(self, t: int, lp_wct: list[float]) -> None:
        """Run step ``t``'s sessions: here for one LP, else on one thread per busy LP."""
        busy = [lp for lp in self.lps if (t, lp.lp_id) in self.triggers]
        outcomes: dict[int, object] = {}

        def sessions(lp: LogicalProcess) -> None:
            start = time.perf_counter()
            try:
                outcomes[lp.lp_id] = self._phase_sessions(lp, t)
            except BaseException as exc:  # noqa: BLE001 - re-raised after the join
                outcomes[lp.lp_id] = exc
            lp_wct[lp.lp_id] += time.perf_counter() - start

        if self.config.num_lps == 1:
            for lp in busy:
                sessions(lp)
        else:
            threads = [
                threading.Thread(target=sessions, args=(lp,), name=f"lp{lp.lp_id}") for lp in busy
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
        # Logs in trigger order (t, lp, index), not in the order sessions
        # finished; the lowest-numbered failing LP's error wins.
        for lp in busy:
            outcome = outcomes[lp.lp_id]
            if isinstance(outcome, BaseException):
                raise outcome
            self.session_logs.extend(outcome)

    def advance_timestep(self, t: int) -> TimestepReport:
        """Run step ``t`` on every LP and return its report."""
        counts = ("generated", "forwarded", "delivered", "duplicates", "dropped_delegated")
        part = dict.fromkeys(counts, 0)
        start = time.perf_counter()
        self._phase_deliver(t, part)
        deliver_wct = time.perf_counter() - start
        lp_wct = [0.0] * len(self.lps)
        for lp in self.lps:
            start = time.perf_counter()
            self._lp_step(lp)
            lp_wct[lp.lp_id] = time.perf_counter() - start
        self._phase_migrate_in()
        self._step_sessions(t, lp_wct)

        report = TimestepReport(
            timestep=t,
            **part,
            active=sum(len(lp.entities) for lp in self.lps),
            delegated=sum(len(lp.delegated) for lp in self.lps),
            deliver_wct=deliver_wct,
            lp_wct=tuple(lp_wct),
        )
        if report.active + report.delegated != self.config.num_ses:
            raise SimulationError(
                f"conservation broken at t={t}: {report.active} active "
                f"+ {report.delegated} delegated != {self.config.num_ses}"
            )
        return report

    def run(self) -> RunResult:
        start = time.perf_counter()
        try:
            # Here, not in __init__: an engine that never runs starts no process.
            if self.config.l1_transport == "tcp" and self.triggers:
                self._template = SessionTemplate()
            reports = [self.advance_timestep(t) for t in range(self.config.total_timesteps)]
            # A trigger on the last step leaves reintegrations pending; apply
            # them so the final state is whole (the sessions did complete).
            for lp in self.lps:
                self._reintegrate(lp)
        except Exception as exc:
            raise SimulationError(f"run aborted: {exc}") from exc
        finally:
            if self._template is not None:
                self._template.close()
                self._template = None

        entities: dict[int, Entity] = {}
        for lp in self.lps:
            entities.update(lp.entities)
            entities.update(lp.delegated)
        return RunResult(
            config=self.config,
            entities=entities,
            reports=reports,
            session_logs=self.session_logs,
            audit=self.audit,
            total_wct=time.perf_counter() - start,
        )


def run_simulation(
    config: SimConfig, record_receipts: bool = False, keep_transcripts: bool = False
) -> RunResult:
    return SimEngine(config, record_receipts, keep_transcripts).run()


# -- session transports -------------------------------------------------------


def _drive_session(transport: Transport, init: Init, t: int):
    client = SessionClient(transport)
    client.handshake(init)
    client.step(t)
    return client.finish()


def _drive_loopback(init: Init, t: int, transcript):
    """The session inline, in this thread: the instance is the client's transport."""
    from .level1 import make_handlers

    session = InstanceSession(make_handlers, transcript)
    try:
        return _drive_session(session, init, t), None
    except ProtocolError:
        crash = session.failure  # on the wire it is only ``instance-failed``
        if crash is not None and not isinstance(crash, ProtocolError):
            raise SimulationError(f"instance crashed: {type(crash).__name__}: {crash}") from crash
        raise


class SessionTemplate:
    """The run's ``python -S -m iotsim.level1``: it forks one child per TCP session.

    The template imports the fine level once, so a session costs a fork, not
    an interpreter start.  It skips ``site`` (the fine level needs only the
    standard library), and its ``PYTHONPATH`` is the directory holding this
    ``iotsim`` package, whatever path the engine's process was given.
    Requests go over a SOCK_SEQPACKET socket pair whose other end is the
    template's stdin; each carries the server end of the session's TCP
    connection, which the engine made, and one end of a fresh socket pair,
    on which the child reports (see ``level1.serve_forks``).  The engine
    itself never forks: it holds threads and numpy.
    """

    def __init__(self) -> None:
        self._control, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self.proc = subprocess.Popen(
                [sys.executable, "-S", "-m", "iotsim.level1"],
                stdin=theirs,
                stdout=subprocess.DEVNULL,
                env={**os.environ, "PYTHONPATH": _PACKAGE_ROOT},
            )

    def start(self, instance_id: str, conn: socket.socket) -> tuple[int, TextIO]:
        """Fork a child to serve ``instance_id`` on ``conn``, the server end of
        its TCP connection, and wait for its pid.

        ``conn`` is closed here, so the child holds the only server end: the
        engine's end reads EOF once the child is gone.  Returns the child's pid
        and the reader of its remaining report lines.
        """
        ours, theirs = socket.socketpair()
        with conn, theirs:
            try:
                socket.send_fds(self._control, [instance_id.encode()], [theirs.fileno(), conn.fileno()])
            except OSError as exc:
                ours.close()
                raise self._gone(f"the session template is gone: {exc}") from None
        ours.settimeout(protocol.DEFAULT_TIMEOUT)
        reports = ours.makefile("r", encoding="utf-8", errors="replace")
        ours.close()  # the reader keeps the socket open
        try:
            first = next(_report_lines(reports, "did not start"), "")
            if not first:
                # No child, not even a fork failure's line: the template may have died.
                raise self._gone("instance did not start: its report channel closed")
            if not first.startswith("PID="):
                raise SimulationError(f"instance did not start: {first}")
        except BaseException:
            reports.close()
            raise
        return int(first[4:]), reports

    def _gone(self, cause: str) -> SimulationError:
        """The error for a request the template did not serve: its exit status, if it died."""
        try:
            # Its descriptors close just before it can be reaped; allow for that gap.
            status = self.proc.wait(timeout=1.0)
        except subprocess.TimeoutExpired:
            return SimulationError(cause)
        return SimulationError(f"the session template exited with status {status}")

    def close(self) -> None:
        """EOF on the control socket: the template kills and reaps what is left, then exits."""
        self._control.close()
        try:
            self.proc.wait(timeout=protocol.DEFAULT_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _report_lines(reports: TextIO, waiting_for: str):
    """A session child's report lines, up to its ``EXIT=`` line (or EOF, if it
    died first); silence for DEFAULT_TIMEOUT raises.  Not reading to EOF
    spares the wait for the child's teardown: the template reaps it."""
    while True:
        try:
            line = reports.readline()
        except socket.timeout:
            raise SimulationError(f"instance {waiting_for} within {protocol.DEFAULT_TIMEOUT:g} s") from None
        if not line:
            return
        yield line.rstrip("\n")
        if line.startswith("EXIT="):
            return


def _kill(pid: Optional[int]) -> None:
    """SIGKILL a session child; its parent, the template, reaps it."""
    if pid is not None:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _drive_subprocess(init: Init, t: int, transcript, template: SessionTemplate):
    transport, conn = connect_tcp(transcript=transcript)
    pid: Optional[int] = None
    reports: Optional[TextIO] = None
    closed: Optional[ProtocolError] = None
    try:
        pid, reports = template.start(init.instance_id, conn)
        try:
            final = _drive_session(transport, init, t)
        except ProtocolError as exc:
            if not isinstance(exc, TransportClosed) and exc.code != "instance-failed":
                raise
            closed = exc  # the child crashed or hung up: its report lines say why
        lines = list(_report_lines(reports, "did not exit after its session"))
    except BaseException:
        _kill(pid)
        raise
    finally:
        transport.close()
        if reports is not None:
            reports.close()
    status, child_rss, text = None, None, []
    for line in lines:
        key, _, value = line.partition("=")
        if key == "EXIT":
            status = value
        elif key == "VMHWM":
            child_rss = int(value)
        else:
            text.append(line)
    if closed is not None or status != "0":
        cause = f"{closed}; " if closed is not None else ""
        raise SimulationError(
            f"{cause}instance exited with {status or 'no status'}: " + "\n".join(text)
        ) from closed
    return final, child_rss
