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
order.  The table of message classes below is the one place the grammar is
stated: each type's keys in wire order and each field's check, which the
constructor and ``decode`` apply alike; ``encode`` and ``decode`` walk it.
Entity records carry {"id","x","y","kind"} in INIT and
additionally {"arrived","hops"} in status reports; coordinates are finite
and written with at most 6 fractional digits, and counters are non-negative.

The instance side of a session is one state machine with no I/O,
``InstanceSession``.  A TCP session runs it in a child, over a byte-line
``Transport`` on a loopback TCP connection; a loopback session runs it
inline, as the engine's transport, with no socket.  Either way every line is
encoded, decoded and logged, so identical sessions produce byte-identical
transcripts.  Over TCP either side waits at most ``DEFAULT_TIMEOUT`` for
each line, the value when its transport was made: the only timeout of a
session; and a line longer than ``MAX_LINE`` bytes ends the session as
``line-too-long``.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable

PROTOCOL_VERSION = 1
# Read where a transport or wait is set up, never bound at import: patch it here.
DEFAULT_TIMEOUT = 30.0
# The longest line a transport reads, LF included; read at each read, like
# DEFAULT_TIMEOUT.  A status record takes at most about 110 bytes while its
# coordinates stay below 1e7, so this holds the FINAL of 500k entities.
MAX_LINE = 64 * 1024 * 1024


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
#
# The table of ``_message`` calls below is the wire grammar: each message
# class with the "type" tag of its line (None for a record that travels
# inside one) and its fields in wire key order, each with the one check that
# both the constructor and ``decode`` apply, and a default if it may be left
# out.  A check takes a field's key and value and returns the value to keep,
# or raises ``bad-field``.

_ABSENT = object()  # a key a JSON object lacks, or a field the constructor was not given


def _bad_field(key: str, value: object, why: str = "has wrong type") -> ProtocolError:
    return ProtocolError("bad-field", f"missing {key!r}" if value is _ABSENT else f"{key!r} {why}")


def _of(kind: type, low: int | None = None) -> Callable:
    """Check: a ``kind`` (int, str or bool), at least ``low``; a bool is no int here."""

    def check(key: str, value: object) -> object:
        if type(value) is not kind and (not isinstance(value, kind) or isinstance(value, bool)):
            raise _bad_field(key, value)
        if low is not None and value < low:
            raise _bad_field(key, value, f"is {value}, below {low}")
        return value

    return check


_int = _of(int)


def _one_of(*choices: str) -> Callable:
    def check(key: str, value: object) -> str:
        if not isinstance(value, str):
            raise _bad_field(key, value)
        if value not in choices:
            raise _bad_field(key, value, f"is {value!r}, not one of {choices}")
        return value

    return check


def _int_or_null(key: str, value: object) -> int | None:
    return None if value is None or value is _ABSENT else _int(key, value)


def _coord(key: str, value: object) -> float:
    """Check: a finite number, rounded to the 6 fractional digits the wire
    carries, so that encode and decode round-trip."""
    if type(value) is float:
        value = round(value, 6)
    elif not isinstance(value, (int, float)) or isinstance(value, bool):
        raise _bad_field(key, value)
    else:
        try:
            value = round(float(value), 6)
        except OverflowError:  # an int too large for a float
            value = math.inf
    if not math.isfinite(value):
        raise _bad_field(key, value, "is non-finite")
    return value


class _Nested:
    """Check: a ``cls`` message, or with ``many`` a list of them kept as a
    tuple, each given as itself or as its JSON object.  That object holds its
    first ``width`` fields (all by default); the rest take their defaults."""

    def __init__(self, cls: type, width: int | None = None, many: bool = False) -> None:
        self.cls, self.width, self.many = cls, width, many
        self.keys = cls._keys[:width]

    def __call__(self, key: str, value: object) -> object:
        cls = self.cls
        if not self.many:
            return value if type(value) is cls else self._object(key, value, "is not an object")
        if not isinstance(value, (list, tuple)):
            raise _bad_field(key, value)
        return tuple([item if type(item) is cls else self._object(key, item, "holds a non-object") for item in value])

    def _object(self, key: str, value: object, why: str) -> _Message:
        if not isinstance(value, dict):
            raise _bad_field(key, value, why)
        return self.cls._read(value, self.width)

    def write(self, value: object) -> object:
        """``value`` as JSON: an object, or a list of them."""
        if not self.many:
            return dict(zip(self.keys, value._values))
        return [dict(zip(self.keys, item._values)) for item in value]


class _Message:
    """A message, equal only to a message of its own class; its fields are
    read-only properties over ``_values``."""

    __slots__ = ("_values",)

    def __init__(self, *args: object, **kwargs: object) -> None:
        if len(args) < len(self._keys):
            rest = zip(self._keys[len(args) :], self._defaults[len(args) :])
            args = (*args, *[kwargs.pop(key, default) for key, default in rest])
        if kwargs or len(args) != len(self._keys):
            raise TypeError(f"{type(self).__name__} takes {self._keys}, not {args} and {kwargs}")
        self._values = tuple([check(key, value) for key, check, value in zip(self._keys, self._checks, args)])

    @classmethod
    def _read(cls, obj: dict, width: int | None = None) -> _Message:
        """The message from its JSON object's first ``width`` fields, each checked once."""
        values = [check(key, obj.get(key, _ABSENT)) for key, check in zip(cls._keys[:width], cls._checks)]
        msg = object.__new__(cls)
        msg._values = (*values, *cls._defaults[len(values) :])
        return msg

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other._values == self._values

    def __hash__(self) -> int:
        return hash((type(self), self._values))

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={value!r}" for key, value in zip(self._keys, self._values))
        return f"{type(self).__name__}({fields})"


def _message(name: str, tag: str | None, *fields: tuple) -> type:
    """A message class; each field is (key, check) or (key, check, default)."""
    keys = tuple(field[0] for field in fields)
    checks = tuple(field[1] for field in fields)
    defaults = tuple(field[2] if len(field) == 3 else _ABSENT for field in fields)
    namespace = {key: property(lambda self, index=index: self._values[index]) for index, key in enumerate(keys)}
    namespace.update(__slots__=(), TYPE=tag, _keys=keys, _checks=checks, _defaults=defaults)
    return type(name, (_Message,), namespace)


EntityRecord = _message(
    "EntityRecord",
    None,
    # The fine level keys an entity's hops by ~id, which must not meet a node index.
    ("id", _of(int, 0)),
    ("x", _coord),
    ("y", _coord),
    ("kind", _one_of("static", "mobile")),
    ("arrived", _of(bool), False),
    ("hops", _int_or_null, None),
)
Counters = _message(
    "Counters", None, *((key, _of(int, 0), 0) for key in ("rreq", "rrep", "arrivals", "events_processed"))
)
_STATUS_FIELDS = (("entities", _Nested(EntityRecord, many=True)), ("counters", _Nested(Counters)))
Hello = _message("Hello", "HELLO", ("version", _int, PROTOCOL_VERSION))
Init = _message(
    "Init",
    "INIT",
    ("instance_id", _of(str)),
    ("seed", _int),
    # SimConfig's bounds: a smaller grid or step count breaks the instance.
    ("grid_side", _of(int, 2)),
    ("fine_steps", _of(int, 1)),
    ("entities", _Nested(EntityRecord, 4, many=True)),
)
Continue = _message("Continue", "CONTINUE", ("timestep", _int))
StepResult = _message("StepResult", "STEP_RESULT", ("timestep", _int), *_STATUS_FIELDS)
End = _message("End", "END")
Final = _message("Final", "FINAL", *_STATUS_FIELDS)
Error = _message("Error", "ERROR", ("code", _of(str)), ("detail", _of(str)))

_BY_TYPE = {cls.TYPE: cls for cls in (Hello, Init, Continue, StepResult, End, Final, Error)}
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def encode(msg: _Message) -> bytes:
    """One LF-terminated line of minified JSON, its keys in table order."""
    if getattr(msg, "TYPE", None) is None:
        raise ProtocolError("bad-message", f"cannot encode {type(msg).__name__}")
    obj = {"type": msg.TYPE}
    for key, check, value in zip(msg._keys, msg._checks, msg._values):
        obj[key] = check.write(value) if type(check) is _Nested else value
    return (_ENCODER.encode(obj) + "\n").encode("utf-8")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key is an error, not last-one-wins."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise ValueError(f"repeated key {repeated!r}")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def decode(line: bytes) -> _Message:
    try:
        obj = _DECODER.decode(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also an int past the digit limit, or deep nesting
        raise ProtocolError("bad-json", str(exc)) from None
    if not isinstance(obj, dict):
        raise ProtocolError("bad-message", "line is not a JSON object")
    mtype = obj.get("type")
    cls = _BY_TYPE.get(mtype) if isinstance(mtype, str) else None
    if cls is None:
        raise ProtocolError("bad-message", f"unknown message type {mtype!r}")
    try:
        return cls._read(obj)
    except ProtocolError as exc:
        # Every field error, nested records and counters included, names its message.
        raise ProtocolError(exc.code, f"{exc.detail} in {mtype}") from None


# ---------------------------------------------------------------------------
# Transport


class Transport:
    """Byte-line transport over a connected stream socket.

    Every send and read on it waits at most ``DEFAULT_TIMEOUT``, as it was
    when the transport was made.  When ``transcript`` is set every line is
    logged.  A line longer than ``MAX_LINE`` is refused as ``line-too-long``
    once its first ``MAX_LINE + 1`` bytes are read.  A read that timed out
    or was refused leaves the reader unusable; either ends the session
    anyway.
    """

    def __init__(self, sock: socket.socket, transcript: list[tuple[str, bytes]] | None = None) -> None:
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
        limit = MAX_LINE
        try:
            line = self._reader.readline(limit + 1)
        except TimeoutError:
            raise TransportTimeout() from None
        except OSError as exc:
            raise TransportClosed(f"recv failed: {exc}") from None
        if not line:
            raise TransportClosed()
        if len(line) > limit:
            raise ProtocolError("line-too-long", f"a line longer than {limit} bytes")
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
    import socket  # here, not at the top: only TCP runs load it

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


def _recv_message(transport: Transport) -> _Message:
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

    def __init__(self, transport: Transport | InstanceSession) -> None:
        self.transport = transport
        self._init_ids: list[int] | None = None
        self._done = False

    def _send(self, msg: _Message) -> None:
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

    def __init__(self, make_instance: Callable[[Init], object], transcript: list | None = None) -> None:
        self.transcript = transcript
        self.done = False
        self.failure: Exception | None = None
        self._make_instance: Callable[[Init], object] | None = make_instance  # None once INIT came
        self._instance: object = None
        self._replies = [encode(Hello())]

    def receive(self, line: bytes) -> bytes | None:
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


def serve_session(transport: Transport, make_instance: Callable[[Init], object]) -> None:
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


def measure_peak_memory() -> int | None:
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
