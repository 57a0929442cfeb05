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
order, so identical sessions produce byte-identical transcripts on any
transport.  Entity records carry {"id","x","y","kind"} in INIT and
additionally {"arrived","hops"} in status reports; coordinates are written
with at most 6 fractional digits.
"""

from __future__ import annotations

import json
import queue
import socket
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional, Union

PROTOCOL_VERSION = 1
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
        object.__setattr__(self, "x", round(float(self.x), 6))
        object.__setattr__(self, "y", round(float(self.y), 6))
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
        raise ProtocolError("bad-field", f"missing {key!r} in {obj.get('type')}")
    value = obj[key]
    # bool is an int subclass; only accept it where bool is asked for.
    if not isinstance(value, kinds) or (kinds is not bool and isinstance(value, bool)):
        raise ProtocolError("bad-field", f"{key!r} has wrong type in {obj.get('type')}")
    return value


def _require_at_least(obj: dict, key: str, low: int) -> int:
    value = _require(obj, key, int)
    if value < low:
        raise ProtocolError("bad-field", f"{key!r} is {value}, below {low}, in {obj.get('type')}")
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
        rreq=_require(obj, "rreq", int),
        rrep=_require(obj, "rrep", int),
        arrivals=_require(obj, "arrivals", int),
        events_processed=_require(obj, "events_processed", int),
    )


def decode(line: bytes) -> CoordMessage:
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("bad-json", str(exc)) from None
    if not isinstance(obj, dict):
        raise ProtocolError("bad-message", "line is not a JSON object")
    mtype = obj.get("type")
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
    raise ProtocolError("bad-message", f"unknown message type {mtype!r}")


# ---------------------------------------------------------------------------
# Transports


class Transport:
    """Byte-line transport; when ``transcript`` is set every line is logged."""

    def __init__(self, transcript: Optional[list[tuple[str, bytes]]] = None) -> None:
        self.transcript = transcript

    def send_line(self, data: bytes) -> None:
        if self.transcript is not None:
            self.transcript.append(("send", data))
        self._send(data)

    def recv_line(self, timeout: float = DEFAULT_TIMEOUT) -> bytes:
        data = self._recv(timeout)
        if self.transcript is not None:
            self.transcript.append(("recv", data))
        return data

    def _send(self, data: bytes) -> None:
        raise NotImplementedError

    def _recv(self, timeout: float) -> bytes:
        raise NotImplementedError

    def close(self) -> None:
        pass


class TcpTransport(Transport):
    def __init__(self, sock: socket.socket, transcript=None) -> None:
        super().__init__(transcript)
        self._sock = sock
        self._reader = sock.makefile("rb")

    def _send(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise TransportClosed(f"send failed: {exc}") from None

    def _recv(self, timeout: float) -> bytes:
        self._sock.settimeout(timeout)
        try:
            line = self._reader.readline()
        except socket.timeout:
            raise TransportTimeout() from None
        except OSError as exc:
            raise TransportClosed(f"recv failed: {exc}") from None
        if not line:
            raise TransportClosed()
        return line

    def close(self) -> None:
        try:
            self._reader.close()
            self._sock.close()
        except OSError:
            pass


class LoopbackTransport(Transport):
    """In-process byte-line pipe; carries the same bytes as a socket would."""

    def __init__(self, inbox: "queue.SimpleQueue", outbox: "queue.SimpleQueue", transcript=None) -> None:
        super().__init__(transcript)
        self._inbox = inbox
        self._outbox = outbox
        self._closed = False

    def _send(self, data: bytes) -> None:
        if self._closed:
            raise TransportClosed("loopback closed")
        self._outbox.put(data)

    def _recv(self, timeout: float) -> bytes:
        try:
            data = self._inbox.get(timeout=timeout)
        except queue.Empty:
            raise TransportTimeout() from None
        if data is None:
            raise TransportClosed()
        return data

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._outbox.put(None)


def loopback_pair(
    transcript_a=None, transcript_b=None
) -> tuple[LoopbackTransport, LoopbackTransport]:
    q_ab: queue.SimpleQueue = queue.SimpleQueue()
    q_ba: queue.SimpleQueue = queue.SimpleQueue()
    a = LoopbackTransport(inbox=q_ba, outbox=q_ab, transcript=transcript_a)
    b = LoopbackTransport(inbox=q_ab, outbox=q_ba, transcript=transcript_b)
    return a, b


def connect_tcp(port: int, host: str = "127.0.0.1", deadline: float = 10.0, transcript=None) -> TcpTransport:
    """Connect to an instance server, retrying briefly while it starts up."""
    t0 = time.monotonic()
    last: Optional[OSError] = None
    while time.monotonic() - t0 < deadline:
        try:
            sock = socket.create_connection((host, port), timeout=deadline)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return TcpTransport(sock, transcript=transcript)
        except OSError as exc:
            last = exc
            time.sleep(0.02)
    raise TransportClosed(f"could not connect to {host}:{port}: {last}")


# ---------------------------------------------------------------------------
# Session endpoints


class SessionClient:
    """Coarse-engine side of one instance session (strict lock-step)."""

    def __init__(self, transport: Transport, timeout: float = DEFAULT_TIMEOUT) -> None:
        self.transport = transport
        self.timeout = timeout
        self._init_ids: Optional[list[int]] = None
        self._done = False

    def _recv(self) -> CoordMessage:
        msg = decode(self.transport.recv_line(self.timeout))
        if isinstance(msg, Error):
            raise ProtocolError(msg.code, msg.detail)
        return msg

    def _fail(self, code: str, detail: str) -> ProtocolError:
        # Tell the peer before giving up, best effort.
        try:
            self.transport.send_line(encode(Error(code, detail)))
        except ProtocolError:
            pass
        return ProtocolError(code, detail)

    def handshake(self, init: Init) -> None:
        msg = self._recv()
        if not isinstance(msg, Hello):
            raise self._fail("protocol-violation", f"expected HELLO, got {type(msg).__name__}")
        if msg.version != PROTOCOL_VERSION:
            raise self._fail("version-mismatch", f"peer speaks version {msg.version}")
        self._init_ids = sorted(r.id for r in init.entities)
        self.transport.send_line(encode(init))

    def step(self, timestep: int) -> StepResult:
        if self._init_ids is None or self._done:
            raise ProtocolError("protocol-violation", "CONTINUE outside an open session")
        self.transport.send_line(encode(Continue(timestep)))
        msg = self._recv()
        if not isinstance(msg, StepResult):
            raise self._fail("protocol-violation", f"expected STEP_RESULT, got {type(msg).__name__}")
        if msg.timestep != timestep:
            raise self._fail("protocol-violation", f"STEP_RESULT for {msg.timestep}, wanted {timestep}")
        if sorted(r.id for r in msg.entities) != self._init_ids:
            raise self._fail("entity-mismatch", "STEP_RESULT entity ids differ from INIT")
        return msg

    def finish(self) -> Final:
        if self._init_ids is None or self._done:
            raise ProtocolError("protocol-violation", "END outside an open session")
        self.transport.send_line(encode(End()))
        msg = self._recv()
        if not isinstance(msg, Final):
            raise self._fail("protocol-violation", f"expected FINAL, got {type(msg).__name__}")
        # A multiset compare: a repeated id is a mismatch too.
        if sorted(r.id for r in msg.entities) != self._init_ids:
            raise self._fail("entity-mismatch", "FINAL entity ids differ from INIT")
        self._done = True
        return msg


class InstanceHandlers:
    """What serve_session needs from a fine-grained instance."""

    def __init__(
        self,
        run_step: Callable[[int], tuple[tuple[EntityRecord, ...], Counters]],
        finalize: Callable[[], tuple[tuple[EntityRecord, ...], Counters]],
    ) -> None:
        self.run_step = run_step
        self.finalize = finalize


def serve_session(
    transport: Transport,
    make_instance: Callable[[Init], InstanceHandlers],
    timeout: float = DEFAULT_TIMEOUT,
) -> None:
    """Instance side: one full session, HELLO through FINAL.

    Any grammar or ordering violation is answered with ERROR and raised; so
    is an exception from the instance (``instance-failed <Type>: <text>``),
    which is raised as itself.  The caller owns the transport and decides
    process exit.
    """

    def fail(code: str, detail: str) -> ProtocolError:
        try:
            transport.send_line(encode(Error(code, detail)))
        except ProtocolError:
            pass
        return ProtocolError(code, detail)

    def answer(handler: Callable[[], tuple[tuple[EntityRecord, ...], Counters]]):
        try:
            return handler()
        except Exception as exc:
            fail("instance-failed", f"{type(exc).__name__}: {exc}")
            raise

    transport.send_line(encode(Hello()))
    msg = decode(transport.recv_line(timeout))
    if isinstance(msg, Error):
        raise ProtocolError(msg.code, msg.detail)
    if not isinstance(msg, Init):
        raise fail("protocol-violation", f"expected INIT, got {type(msg).__name__}")
    try:
        handlers = make_instance(msg)
    except Exception as exc:
        raise fail("init-failed", str(exc)) from exc

    while True:
        msg = decode(transport.recv_line(timeout))
        if isinstance(msg, Error):
            raise ProtocolError(msg.code, msg.detail)
        if isinstance(msg, Continue):
            entities, counters = answer(lambda: handlers.run_step(msg.timestep))
            transport.send_line(encode(StepResult(msg.timestep, entities, counters)))
        elif isinstance(msg, End):
            entities, counters = answer(handlers.finalize)
            transport.send_line(encode(Final(entities, counters)))
            return
        else:
            raise fail("protocol-violation", f"expected CONTINUE or END, got {type(msg).__name__}")


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


def serve_tcp(
    make_instance: Callable[[Init], InstanceHandlers],
    port: int,
    instance_id: Optional[str],
    accept_timeout: float,
) -> int:
    """Instance side over TCP: accept one connection, serve one session.

    Prints ``PORT=<port>`` once listening (the spawner reads it to learn an
    ephemeral port) and ``VMHWM=<bytes>`` after the session.  An INIT naming
    another instance than ``instance_id`` is refused.  Returns the exit status.
    """

    def make_checked(init: Init) -> InstanceHandlers:
        if instance_id is not None and init.instance_id != instance_id:
            raise ProtocolError(
                "instance-mismatch",
                f"serving {instance_id!r} but INIT names {init.instance_id!r}",
            )
        return make_instance(init)

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.bind(("127.0.0.1", port))
        listener.listen(1)
        print(f"PORT={listener.getsockname()[1]}", flush=True)
        listener.settimeout(accept_timeout)
        try:
            conn, _ = listener.accept()
        except socket.timeout:
            print("no connection arrived", file=sys.stderr)
            return 1
    finally:
        listener.close()

    transport = TcpTransport(conn)
    try:
        serve_session(transport, make_checked)
    except ProtocolError as exc:
        print(f"session failed: {exc}", file=sys.stderr)
        return 1
    finally:
        transport.close()
        peak = measure_peak_memory()
        if peak is not None:
            print(f"VMHWM={peak}", flush=True)
    return 0
