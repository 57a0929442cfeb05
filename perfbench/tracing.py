"""Outside-in tracing of one simulation run.

Program code is not edited: the tracer replaces functions of the ``iotsim``
modules with timing wrappers for the length of one run and puts the
originals back afterwards.  Calls at layer boundaries that happen a handful
of times per step become spans (name, start, end, parent, thread), kept in
memory.  Calls on the per-receipt hot path happen hundreds of thousands of
times per run, so they are only tallied (calls, seconds, and for the message
cache the number of hits).

Session spans are not wrapped but rebuilt from ``SessionLog`` afterwards,
on the same clock, and the spans their LP thread (or their loopback server
thread) recorded inside the session's window are re-parented under them.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator, Optional

from iotsim.bench import _union_span

SPAN = "span"
COUNT = "count"
HITS = "hits"  # a tally that also counts truthy return values


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: str
    track: str = ""

    @property
    def dur(self) -> float:
        return self.end - self.start


def targets() -> list[tuple[str, object, str, str]]:
    """(span name, owner, attribute, kind) for every function the trace wraps.

    ``level0`` binds ``relay_step``, ``rwp_step``, ``generate_message``,
    ``make_entities``, ``connect_tcp`` and ``serve_session`` by name at
    import, so those are replaced in its namespace; ``make_handlers`` is
    imported lazily from ``level1`` on every loopback session.
    """
    from iotsim import bench, dissemination, level0, level1, protocol, rng

    engine = level0.SimEngine
    return [
        ("level0.engine_init", engine, "__init__", SPAN),
        ("level0.make_entities", level0, "make_entities", SPAN),
        ("level0.partition", level0, "partition", SPAN),
        ("level0.run", engine, "run", SPAN),
        ("level0.step", engine, "_lp_step", SPAN),
        ("level0.deliver", engine, "_phase_deliver", SPAN),
        ("level0.mobility", engine, "_phase_mobility", SPAN),
        ("level0.migrate_out", engine, "_phase_migrate_out", SPAN),
        ("level0.migrate_in", engine, "_phase_migrate_in", SPAN),
        ("level0.sessions", engine, "_phase_sessions", SPAN),
        ("level0.delegate", engine, "delegate_entities", SPAN),
        ("rng.unit_uniform", rng, "unit_uniform", COUNT),
        ("dissemination.relay_step", level0, "relay_step", COUNT),
        ("dissemination.generate", level0, "generate_message", COUNT),
        ("dissemination.cache_touch", dissemination.MessageCache, "touch", HITS),
        ("mobility.rwp_step", level0, "rwp_step", COUNT),
        ("level1.make_handlers", level1, "make_handlers", SPAN),
        ("level1.grid_build", level1.GridScenario, "build", SPAN),
        ("level1.run_step", level1.L1Instance, "run_one_coarse_step", SPAN),
        ("level1.finalize", level1.L1Instance, "finalize", SPAN),
        ("protocol.connect", level0, "connect_tcp", SPAN),
        ("protocol.serve", level0, "serve_session", SPAN),
        ("protocol.handshake", protocol.SessionClient, "handshake", SPAN),
        ("protocol.step", protocol.SessionClient, "step", SPAN),
        ("protocol.finish", protocol.SessionClient, "finish", SPAN),
        ("protocol.encode", protocol, "encode", SPAN),
        ("protocol.decode", protocol, "decode", SPAN),
        ("bench.collect_metrics", bench, "collect_metrics", SPAN),
        ("bench.measure_peak_memory", bench, "measure_peak_memory", SPAN),
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._tally_maps: list[dict[str, list]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tally(self, name: str) -> list:
        # One map per thread: LP threads tally concurrently, and += on a
        # shared list would lose updates.
        tallies = getattr(self._local, "tallies", None)
        if tallies is None:
            tallies = self._local.tallies = {}
            self._tally_maps.append(tallies)
        tally = tallies.get(name)
        if tally is None:
            tally = tallies[name] = [0, 0.0, 0]
        return tally

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, threading.current_thread().name))

    def wrap(self, name: str, fn: Callable, kind: str) -> Callable:
        if kind == SPAN:

            @functools.wraps(fn)
            def spanned(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)

            return spanned
        count_hits = kind == HITS

        @functools.wraps(fn)
        def tallied(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            tally = self._tally(name)
            tally[0] += 1
            tally[1] += perf_counter() - start
            if count_hits and result:
                tally[2] += 1
            return result

        return tallied

    def tallies(self) -> dict[str, dict[str, float]]:
        merged: dict[str, dict[str, float]] = {}
        for tallies in self._tally_maps:
            for name, (calls, seconds, hits) in tallies.items():
                entry = merged.setdefault(name, {"calls": 0, "s": 0.0, "hits": 0})
                entry["calls"] += calls
                entry["s"] += seconds
                entry["hits"] += hits
        return merged

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, owner, attr, kind in targets():
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(name, raw.__func__, kind))
            else:
                patched = self.wrap(name, raw, kind)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


# -- the span tree -------------------------------------------------------------


def lp_thread_name(lp_id: int, num_lps: int) -> str:
    """``SimEngine.run`` drives a single LP on the calling thread."""
    return "MainThread" if num_lps == 1 else f"lp{lp_id}"


def attach_sessions(spans: list[Span], session_logs, num_lps: int) -> list[Span]:
    """Add one span per L1 session, link threads, and put every span on a track.

    The step loop of each LP thread hangs under the ``SimEngine.run`` span of
    the thread that started it.  A session span is the parent of what its LP
    thread did inside the session's window (connect, handshake, step,
    finish) and of the root span of its loopback server thread
    ``l1-<instance id>``.  Spans under a session go on that session's track,
    the rest on their thread's track.
    """
    by_id = {s.id: s for s in spans}
    lp_threads = {lp_thread_name(lp, num_lps) for lp in range(num_lps)} - {"MainThread"}
    for s in spans:
        if s.parent is None and s.thread in lp_threads:
            owner = _innermost(spans, "MainThread", s)
            s.parent = owner.id if owner is not None else None

    next_id = max(by_id, default=0) + 1
    sessions: dict[int, Span] = {}
    for log in sorted(session_logs, key=lambda log: log.wct_start):
        thread = lp_thread_name(log.lp_id, num_lps)
        session = Span(next_id, "session", log.wct_start, log.wct_end, None, thread,
                       track=f"session {log.instance_id}")
        next_id += 1
        owner = _innermost(spans, thread, session)
        session.parent = owner.id if owner is not None else None
        server_thread = f"l1-{log.instance_id}"
        for s in spans:
            if s.thread == thread and _within(s, session):
                if s.parent is None or not _within(by_id[s.parent], session):
                    s.parent = session.id
            elif s.thread == server_thread and s.parent is None:
                s.parent = session.id
        sessions[session.id] = session
        by_id[session.id] = session

    out = spans + list(sessions.values())
    for s in out:
        if not s.track:
            s.track = _track(s, by_id, sessions, num_lps)
    return out


def _innermost(spans: list[Span], thread: str, window: Span) -> Optional[Span]:
    enclosing = [
        s for s in spans
        if s.thread == thread and s is not window and s.start <= window.start and s.end >= window.end
    ]
    return max(enclosing, key=lambda s: s.start, default=None)


def _within(inner: Span, window: Span) -> bool:
    return inner.start >= window.start and inner.end <= window.end


def _track(span: Span, by_id: dict[int, Span], sessions: dict[int, Span], num_lps: int) -> str:
    node: Optional[Span] = span
    while node is not None:
        if node.id in sessions:
            return node.track
        node = by_id.get(node.parent) if node.parent is not None else None
    if span.thread == "MainThread":
        return "lp0" if num_lps == 1 else "main"
    return span.thread


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            parent = by_id[s.parent]
            clipped = (max(s.start, parent.start), min(s.end, parent.end))
            if clipped[1] > clipped[0]:
                children.setdefault(s.parent, []).append(clipped)
    return {s.id: s.dur - _union_span(children.get(s.id, [])) for s in spans}


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """calls, inclusive seconds and self seconds per span name."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        entry = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += s.dur
        entry["self_s"] += own[s.id]
    return out


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(spans: list[Span], tallies: dict, result, run_metrics) -> dict[str, float]:
    """The per-layer numbers of one traced run (spans already attached)."""
    by_name = summarize(spans)

    def total(name: str, key: str = "s") -> float:
        return by_name.get(name, {}).get(key, 0.0)

    def tally(name: str, key: str) -> float:
        return tallies.get(name, {}).get(key, 0)

    reports = result.reports
    totals = result.totals()
    receipts = totals["delivered"] + totals["duplicates"]
    logs = result.session_logs
    session_sum = sum(log.wct for log in logs)
    events = sum(log.counters.events_processed for log in logs)
    l1_loop = total("level1.make_handlers") - total("level1.grid_build") + total("level1.run_step")
    client = total("protocol.handshake") + total("protocol.step") + total("protocol.finish")
    touches = tally("dissemination.cache_touch", "calls")
    transcript_bytes = sum(len(line) for log in logs for _, line in (log.transcript or ()))
    return {
        "level0.wall_s": run_metrics.l0_only_wct,
        "level0.step_p50_ms": 1000.0 * statistics.median(max(r.lp_wct) for r in reports),
        "level0.lp_imbalance_s": sum(max(r.lp_wct) - min(r.lp_wct) for r in reports),
        "level0.barrier_wait_s": total("level0.step", "self_s"),
        "level0.deliver.s": total("level0.deliver"),
        "level0.receipts": receipts,
        "level0.forwarded": totals["forwarded"],
        "level0.generated": totals["generated"],
        "level0.duplicate_ratio": totals["duplicates"] / receipts if receipts else 0.0,
        "rng.unit_uniform.calls": tally("rng.unit_uniform", "calls"),
        "rng.unit_uniform.s": tally("rng.unit_uniform", "s"),
        "dissemination.relay_step.calls": tally("dissemination.relay_step", "calls"),
        "dissemination.relay_step.s": tally("dissemination.relay_step", "s"),
        "dissemination.cache_hit_ratio": (
            tally("dissemination.cache_touch", "hits") / touches if touches else 0.0
        ),
        "mobility.rwp_step.calls": tally("mobility.rwp_step", "calls"),
        "mobility.rwp_step.s": tally("mobility.rwp_step", "s"),
        "level1.grid_build.s": total("level1.grid_build"),
        "level1.run_step.s": total("level1.run_step"),
        "level1.events": events,
        "level1.events_per_s": events / l1_loop if l1_loop > 0 else 0.0,
        "protocol.encode.s": total("protocol.encode"),
        "protocol.decode.s": total("protocol.decode"),
        "protocol.bytes": transcript_bytes,
        "protocol.handshake.s": total("protocol.handshake"),
        "protocol.step.s": total("protocol.step"),
        "protocol.finish.s": total("protocol.finish"),
        "protocol.spawn_s": session_sum - client if logs else 0.0,
    }


# -- Chrome trace export -----------------------------------------------------------


def chrome_trace(spans: list[Span], other: dict) -> dict:
    """Trace Event Format: one complete ("X") event per span, one tid per track."""
    origin = min((s.start for s in spans), default=0.0)
    tids: dict[str, int] = {}
    for s in sorted(spans, key=lambda s: s.start):
        tids.setdefault(s.track, len(tids) + 1)
    events: list[dict] = [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "args": {"name": track}}
        for track, tid in tids.items()
    ]
    for s in sorted(spans, key=lambda s: (s.start, -s.end)):
        events.append({
            "name": s.name,
            "cat": s.name.split(".", 1)[0],
            "ph": "X",
            "pid": 1,
            "tid": tids[s.track],
            "ts": round((s.start - origin) * 1e6, 3),
            "dur": round(s.dur * 1e6, 3),
            "args": {"thread": s.thread},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}


def write_chrome_trace(path, spans: list[Span], other: dict) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(spans, other), handle)
