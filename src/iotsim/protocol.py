"""Coordination protocol between the coarse engine and fine-grained instances.

One session per instance, strict request/response over a byte stream:

    L1 -> L0   HELLO        {"type":"HELLO","version":1}
    L0 -> L1   INIT         {"type":"INIT","instance_id":...,"seed":...,
                             "grid_side":...,"fine_steps":...,"entities":[...]}
    L0 -> L1   CONTINUE     {"type":"CONTINUE","timestep":t}
    L1 -> L0   STEP_RESULT  {"type":"STEP_RESULT","timestep":t,"entities":[...],
                             "counters":{...}}
    L0 -> L1   END          {"type":"END"}
    L1 -> L0   FINAL        {"type":"FINAL","entities":[...],"counters":{...}}
    either     ERROR        {"type":"ERROR","code":...,"detail":...}

Every message is one minified JSON object per line, LF-terminated, fixed key
order.  The instance side of a session is one state machine with no I/O,
``InstanceSession``.  A TCP session runs it in a child, over a byte-line
``Transport`` on a loopback TCP connection; a loopback session runs it
inline, as the engine's transport, with no socket.  Either way every line is
encoded, decoded and logged, so identical sessions produce byte-identical
transcripts.  Entity records carry {"id","x","y","kind"} in INIT and
additionally {"arrived","hops"} in status reports; coordinates are finite
and written with at most 6 fractional digits, and counters are non-negative.
Over TCP either side waits at most ``DEFAULT_TIMEOUT`` for each line, the
value when its transport was made: the only timeout of a session.
"""

from __future__ import annotations

import json
import math
import socket
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

PROTOCOL_VERSION = 1
# Read where a transport or wait is set up, never bound at import: patch it here.
DEFAULT_TIMEOUT = 30.0

_JSON_OPTS = {"separators": (",", ":")}


class ProtocolError(Exception):
    """Violation of the wire grammar or the session state machine."""

    def __init__(self, code: str, detail: str) -> None:
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


class TransportClosed(ProtocolError):
    def __init__(self, detail: str = "peer closed the connection") -> None:
        super().__init__("transport-closed", detail)


class TransportTimeout(ProtocolError):
    def __init__(self, detail: str = "timed out waiting for peer") -> None:
        super().__init__("timeout", detail)


# ---------------------------------------------------------------------------
# Messages


@dataclass(frozen=True, slots=True)
class EntityRecord:
    id: int
    x: float
    y: float
    kind: str
    arrived: bool = False
    hops: Optional[int] = None

    def __post_init__(self) -> None:
        # The wire carries at most 6 fractional digits; rounding here keeps
        # encode/decode a true round-trip.
        try:
            x, y = round(float(self.x), 6), round(float(self.y), 6)
        except OverflowError:  # an int too large for a float
            x = y = math.inf
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ProtocolError("bad-field", f"entity {self.id} has a non-finite coordinate")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if self.kind not in ("static", "mobile"):
            raise ProtocolError("bad-field", f"unknown entity kind {self.kind!r}")
        # The fine level keys an entity's hops by ~id, which must not meet a node index.
        if self.id < 0:
            raise ProtocolError("bad-field", f"negative entity id {self.id}")


@dataclass(frozen=True, slots=True)
class Hello:
    version: int = PROTOCOL_VERSION


@dataclass(frozen=True, slots=True)
class Init:
    instance_id: str
    seed: int
    grid_side: int
    fine_steps: int
    entities: tuple[EntityRecord, ...]


@dataclass(frozen=True, slots=True)
class Continue:
    timestep: int


@dataclass(frozen=True, slots=True)
class Counters:
    rreq: int = 0
    rrep: int = 0
    arrivals: int = 0
    events_processed: int = 0


@dataclass(frozen=True, slots=True)
class StepResult:
    timestep: int
    entities: tuple[EntityRecord, ...]
    counters: Counters


@dataclass(frozen=True, slots=True)
class End:
    pass


@dataclass(frozen=True, slots=True)
class Final:
    entities: tuple[EntityRecord, ...]
    counters: Counters


@dataclass(frozen=True, slots=True)
class Error:
    code: str
    detail: str


CoordMessage = Union[Hello, Init, Continue, StepResult, End, Final, Error]


def _init_record_obj(r: EntityRecord) -> dict:
    return {"id": r.id, "x": r.x, "y": r.y, "kind": r.kind}


def _status_record_obj(r: EntityRecord) -> dict:
    return {"id": r.id, "x": r.x, "y": r.y, "kind": r.kind, "arrived": r.arrived, "hops": r.hops}


def _counters_obj(c: Counters) -> dict:
    return {
        "rreq": c.rreq,
        "rrep": c.rrep,
        "arrivals": c.arrivals,
        "events_processed": c.events_processed,
    }


def encode(msg: CoordMessage) -> bytes:
    """One LF-terminated line of minified JSON with a fixed key order."""
    if isinstance(msg, Hello):
        obj = {"type": "HELLO", "version": msg.version}
    elif isinstance(msg, Init):
        obj = {
            "type": "INIT",
            "instance_id": msg.instance_id,
            "seed": msg.seed,
            "grid_side": msg.grid_side,
            "fine_steps": msg.fine_steps,
            "entities": [_init_record_obj(r) for r in msg.entities],
        }
    elif isinstance(msg, Continue):
        obj = {"type": "CONTINUE", "timestep": msg.timestep}
    elif isinstance(msg, StepResult):
        obj = {
            "type": "STEP_RESULT",
            "timestep": msg.timestep,
            "entities": [_status_record_obj(r) for r in msg.entities],
            "counters": _counters_obj(msg.counters),
        }
    elif isinstance(msg, End):
        obj = {"type": "END"}
    elif isinstance(msg, Final):
        obj = {
            "type": "FINAL",
            "entities": [_status_record_obj(r) for r in msg.entities],
            "counters": _counters_obj(msg.counters),
        }
    elif isinstance(msg, Error):
        obj = {"type": "ERROR", "code": msg.code, "detail": msg.detail}
    else:
        raise ProtocolError("bad-message", f"cannot encode {type(msg).__name__}")
    return (json.dumps(obj, **_JSON_OPTS) + "\n").encode("utf-8")


def _require(obj: dict, key: str, kinds) -> object:
    if key not in obj:
        raise ProtocolError("bad-field", f"missing {key!r}")
    value = obj[key]
    # bool is an int subclass; only accept it where bool is asked for.
    if not isinstance(value, kinds) or (kinds is not bool and isinstance(value, bool)):
        raise ProtocolError("bad-field", f"{key!r} has wrong type")
    return value


def _require_at_least(obj: dict, key: str, low: int) -> int:
    value = _require(obj, key, int)
    if value < low:
        raise ProtocolError("bad-field", f"{key!r} is {value}, below {low}")
    return value


def _decode_record(obj: dict, with_status: bool) -> EntityRecord:
    if not isinstance(obj, dict):
        raise ProtocolError("bad-field", "entity record is not an object")
    rid = _require(obj, "id", int)
    x = _require(obj, "x", (int, float))
    y = _require(obj, "y", (int, float))
    kind = _require(obj, "kind", str)
    if with_status:
        arrived = _require(obj, "arrived", bool)
        hops = obj.get("hops")
        if hops is not None and (not isinstance(hops, int) or isinstance(hops, bool)):
            raise ProtocolError("bad-field", "'hops' must be an integer or null")
        return EntityRecord(rid, x, y, kind, arrived, hops)
    return EntityRecord(rid, x, y, kind)


def _decode_counters(obj: object) -> Counters:
    if not isinstance(obj, dict):
        raise ProtocolError("bad-field", "'counters' is not an object")
    return Counters(
        rreq=_require_at_least(obj, "rreq", 0),
        rrep=_require_at_least(obj, "rrep", 0),
        arrivals=_require_at_least(obj, "arrivals", 0),
        events_processed=_require_at_least(obj, "events_processed", 0),
    )


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key is an error, not last-one-wins."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise ValueError(f"repeated key {repeated!r}")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def decode(line: bytes) -> CoordMessage:
    try:
        obj = _DECODER.decode(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also an int past the digit limit, or deep nesting
        raise ProtocolError("bad-json", str(exc)) from None
    if not isinstance(obj, dict):
        raise ProtocolError("bad-message", "line is not a JSON object")
    mtype = obj.get("type")
    try:
        if mtype == "HELLO":
            return Hello(version=_require(obj, "version", int))
        if mtype == "INIT":
            entities = _require(obj, "entities", list)
            return Init(
                instance_id=_require(obj, "instance_id", str),
                seed=_require(obj, "seed", int),
                # SimConfig's bounds: a smaller grid or step count breaks the instance.
                grid_side=_require_at_least(obj, "grid_side", 2),
                fine_steps=_require_at_least(obj, "fine_steps", 1),
                entities=tuple(_decode_record(r, with_status=False) for r in entities),
            )
        if mtype == "CONTINUE":
            return Continue(timestep=_require(obj, "timestep", int))
        if mtype == "STEP_RESULT":
            entities = _require(obj, "entities", list)
            return StepResult(
                timestep=_require(obj, "timestep", int),
                entities=tuple(_decode_record(r, with_status=True) for r in entities),
                counters=_decode_counters(obj.get("counters")),
            )
        if mtype == "END":
            return End()
        if mtype == "FINAL":
            entities = _require(obj, "entities", list)
            return Final(
                entities=tuple(_decode_record(r, with_status=True) for r in entities),
                counters=_decode_counters(obj.get("counters")),
            )
        if mtype == "ERROR":
            return Error(code=_require(obj, "code", str), detail=_require(obj, "detail", str))
    except ProtocolError as exc:
        # Every field error, nested records and counters included, names its message.
        raise ProtocolError(exc.code, f"{exc.detail} in {mtype}") from None
    raise ProtocolError("bad-message", f"unknown message type {mtype!r}")


# ---------------------------------------------------------------------------
# Transport


class Transport:
    """Byte-line transport over a connected stream socket.

    Every send and read on it waits at most ``DEFAULT_TIMEOUT``, as it was
    when the transport was made.  When ``transcript`` is set every line is
    logged.  A read that timed out leaves the reader unusable; every timeout
    ends the session anyway.
    """

    def __init__(self, sock: socket.socket, transcript: Optional[list[tuple[str, bytes]]] = None) -> None:
        self.transcript = transcript
        sock.settimeout(DEFAULT_TIMEOUT)
        self._sock = sock
        self._reader = sock.makefile("rb")

    def send_line(self, data: bytes) -> None:
        if self.transcript is not None:
            self.transcript.append(("send", data))
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise TransportClosed(f"send failed: {exc}") from None

    def recv_line(self) -> bytes:
        try:
            line = self._reader.readline()
        except socket.timeout:
            raise TransportTimeout() from None
        except OSError as exc:
            raise TransportClosed(f"recv failed: {exc}") from None
        if not line:
            raise TransportClosed()
        if self.transcript is not None:
            self.transcript.append(("recv", line))
        return line

    def close(self) -> None:
        try:
            self._reader.close()
            self._sock.close()
        except OSError:
            pass


def connect_tcp(transcript=None) -> tuple[Transport, socket.socket]:
    """A fresh TCP connection on 127.0.0.1: the engine's transport, and the
    server's end for the caller to hand to the instance that serves it."""
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=DEFAULT_TIMEOUT)
        except OSError as exc:
            raise TransportClosed(f"could not connect to 127.0.0.1:{port}: {exc}") from None
        server, peer = listener.accept()
    if peer != sock.getsockname():  # anyone on the host may connect to the port first
        server.close()
        sock.close()
        raise TransportClosed(f"a stranger at {peer} connected to 127.0.0.1:{port} first")
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return Transport(sock, transcript), server


# ---------------------------------------------------------------------------
# Session endpoints


def _recv_message(transport: Transport) -> CoordMessage:
    """The peer's next message; a peer's ERROR is raised as ProtocolError."""
    msg = decode(transport.recv_line())
    if isinstance(msg, Error):
        raise ProtocolError(msg.code, msg.detail)
    return msg


def _fail(transport: Transport, code: str, detail: str) -> ProtocolError:
    """Tell the peer before giving up, best effort; returns the error to raise."""
    try:
        transport.send_line(encode(Error(code, detail)))
    except ProtocolError:
        pass
    return ProtocolError(code, detail)


class SessionClient:
    """Coarse-engine side of one instance session (strict lock-step)."""

    def __init__(self, transport: Union[Transport, InstanceSession]) -> None:
        self.transport = transport
        self._init_ids: Optional[list[int]] = None
        self._done = False

    def _send(self, msg: CoordMessage) -> None:
        """Send ``msg``; a peer that already answered with ERROR and hung up
        fails the send, so its buffered ERROR is raised instead."""
        try:
            self.transport.send_line(encode(msg))
        except TransportClosed:
            _recv_message(self.transport)
            raise

    def handshake(self, init: Init) -> None:
        msg = _recv_message(self.transport)
        if not isinstance(msg, Hello):
            raise _fail(self.transport, "protocol-violation", f"expected HELLO, got {type(msg).__name__}")
        if msg.version != PROTOCOL_VERSION:
            raise _fail(self.transport, "version-mismatch", f"peer speaks version {msg.version}")
        self._init_ids = sorted(r.id for r in init.entities)
        self._send(init)

    def step(self, timestep: int) -> StepResult:
        if self._init_ids is None or self._done:
            raise ProtocolError("protocol-violation", "CONTINUE outside an open session")
        self._send(Continue(timestep))
        msg = _recv_message(self.transport)
        if not isinstance(msg, StepResult):
            detail = f"expected STEP_RESULT, got {type(msg).__name__}"
            raise _fail(self.transport, "protocol-violation", detail)
        if msg.timestep != timestep:
            detail = f"STEP_RESULT for {msg.timestep}, wanted {timestep}"
            raise _fail(self.transport, "protocol-violation", detail)
        if sorted(r.id for r in msg.entities) != self._init_ids:
            raise _fail(self.transport, "entity-mismatch", "STEP_RESULT entity ids differ from INIT")
        return msg

    def finish(self) -> Final:
        if self._init_ids is None or self._done:
            raise ProtocolError("protocol-violation", "END outside an open session")
        self._send(End())
        msg = _recv_message(self.transport)
        if not isinstance(msg, Final):
            raise _fail(self.transport, "protocol-violation", f"expected FINAL, got {type(msg).__name__}")
        # A multiset compare: a repeated id is a mismatch too.
        if sorted(r.id for r in msg.entities) != self._init_ids:
            raise _fail(self.transport, "entity-mismatch", "FINAL entity ids differ from INIT")
        self._done = True
        return msg


class InstanceSession:
    """Instance side of one session, HELLO through FINAL, with no I/O.

    ``make_instance(init)`` returns the fine-grained instance (in practice
    an ``L1Instance``); each CONTINUE calls its ``run_one_coarse_step(t)``
    and END its ``finalize()``, both returning ``(entity records, Counters)``.
    ``receive(line)`` returns the reply line; INIT and a peer's ERROR get
    None.  A failure sets ``done`` and ``failure`` and is answered with
    ERROR: a grammar or ordering violation, or a ``ProtocolError`` from
    ``make_instance``, with its own code; anything else ``make_instance``
    raises with ``init-failed``; an exception from the running instance with
    ``instance-failed <Type>: <text>``, kept as itself in ``failure``.

    It is also an in-process transport: ``send_line`` feeds the machine and
    ``recv_line`` pops its replies, HELLO first; both log to ``transcript``.
    """

    def __init__(self, make_instance: Callable[[Init], Any], transcript: Optional[list] = None) -> None:
        self.transcript = transcript
        self.done = False
        self.failure: Optional[Exception] = None
        self._make_instance: Optional[Callable[[Init], Any]] = make_instance  # None once INIT came
        self._instance: Any = None
        self._replies = [encode(Hello())]

    def receive(self, line: bytes) -> Optional[bytes]:
        try:
            msg = decode(line)
            if isinstance(msg, Error):
                self.done, self.failure = True, ProtocolError(msg.code, msg.detail)
                return None
            if self._make_instance is not None:
                if not isinstance(msg, Init):
                    raise ProtocolError("protocol-violation", f"expected INIT, got {type(msg).__name__}")
                make, self._make_instance = self._make_instance, None
                try:
                    self._instance = make(msg)
                except ProtocolError:
                    raise
                except Exception as exc:
                    raise ProtocolError("init-failed", str(exc)) from exc
                return None
            if not isinstance(msg, (Continue, End)):
                raise ProtocolError("protocol-violation", f"expected CONTINUE or END, got {type(msg).__name__}")
        except ProtocolError as exc:
            return self._fail(exc, exc.code, exc.detail)
        try:
            if isinstance(msg, Continue):
                return encode(StepResult(msg.timestep, *self._instance.run_one_coarse_step(msg.timestep)))
            self.done = True
            return encode(Final(*self._instance.finalize()))
        except Exception as exc:
            return self._fail(exc, "instance-failed", f"{type(exc).__name__}: {exc}")

    def _fail(self, failure: Exception, code: str, detail: str) -> bytes:
        self.done, self.failure = True, failure
        return encode(Error(code, detail))

    def send_line(self, data: bytes) -> None:
        if self.done:
            raise TransportClosed("the instance ended its session")
        if self.transcript is not None:
            self.transcript.append(("send", data))
        reply = self.receive(data)
        if reply is not None:
            self._replies.append(reply)

    def recv_line(self) -> bytes:
        if not self._replies:
            raise TransportClosed("the instance has no reply pending")
        line = self._replies.pop(0)
        if self.transcript is not None:
            self.transcript.append(("recv", line))
        return line


def serve_session(transport: Transport, make_instance: Callable[[Init], Any]) -> None:
    """Run an ``InstanceSession`` over ``transport`` and raise its ``failure``,
    once its ERROR was sent, best effort.  The caller owns the transport."""
    session = InstanceSession(make_instance)
    transport.send_line(session.recv_line())  # HELLO
    while not session.done:
        reply = session.receive(transport.recv_line())
        if reply is not None:
            try:
                transport.send_line(reply)
            except ProtocolError:
                if session.failure is None:
                    raise
    if session.failure is not None:
        raise session.failure


def measure_peak_memory() -> Optional[int]:
    """This process's peak resident set size in bytes, None when the facility is missing."""
    try:
        with open("/proc/self/status") as status:
            text = status.read()
    except OSError:
        try:
            import resource

            # Linux reports kilobytes.
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        except Exception:
            return None
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024
    return None
