"""Wire grammar, transports, and the lock-step session state machine."""

import json
import socket
import threading
import time
from types import SimpleNamespace

import pytest
from socket_pair import socket_pair

from iotsim import level1, protocol
from iotsim.protocol import (
    Continue,
    Counters,
    End,
    EntityRecord,
    Error,
    Final,
    Hello,
    Init,
    InstanceSession,
    ProtocolError,
    SessionClient,
    StepResult,
    Transport,
    TransportClosed,
    TransportTimeout,
    connect_tcp,
    decode,
    encode,
    serve_session,
)


def _rec(eid=1, x=0.0, y=0.0, kind="mobile", **kw):
    return EntityRecord(eid, x, y, kind, **kw)


# -- encoding -----------------------------------------------------------------


def test_exact_bytes_for_fixed_messages():
    assert encode(Hello()) == b'{"type":"HELLO","version":1}\n'
    assert encode(Continue(7)) == b'{"type":"CONTINUE","timestep":7}\n'
    assert encode(End()) == b'{"type":"END"}\n'
    assert encode(Error("oops", "said so")) == b'{"type":"ERROR","code":"oops","detail":"said so"}\n'


def test_exact_bytes_for_step_result():
    msg = StepResult(
        timestep=2,
        entities=(_rec(3, 1.5, -2.25, "mobile"),),
        counters=Counters(rreq=1, rrep=0, arrivals=0, events_processed=9),
    )
    assert encode(msg) == (
        b'{"type":"STEP_RESULT","timestep":2,'
        b'"entities":[{"id":3,"x":1.5,"y":-2.25,"kind":"mobile","arrived":false,"hops":null}],'
        b'"counters":{"rreq":1,"rrep":0,"arrivals":0,"events_processed":9}}\n'
    )


def test_exact_bytes_for_init():
    msg = Init("t0-lp1-0", 42, 10, 100, (_rec(5, 10.0, 20.5, "static"),))
    assert encode(msg) == (
        b'{"type":"INIT","instance_id":"t0-lp1-0","seed":42,"grid_side":10,"fine_steps":100,'
        b'"entities":[{"id":5,"x":10.0,"y":20.5,"kind":"static"}]}\n'
    )


def test_round_trip_every_message_type():
    messages = [
        Hello(),
        Init("a", 2**63 + 5, 10, 100, (_rec(1, 0.125, 3.0, "static"), _rec(2, 9.5, 1e-06, "mobile"))),
        Continue(0),
        StepResult(4, (_rec(1, arrived=True, hops=3), _rec(2, hops=None)), Counters(5, 4, 1, 999)),
        End(),
        Final((_rec(1, arrived=False, hops=18),), Counters()),
        Error("code-x", "detail y"),
    ]
    for msg in messages:
        assert decode(encode(msg)) == msg
    # A message equals only a message of its own type, whatever its fields hold.
    assert Hello(1) != Continue(1) and Continue(1) != Hello(1)
    assert len({Hello(1), Continue(1), Hello(1)}) == 2
    # Messages are immutable, nested records and counters included.
    for msg, field in [(messages[2], "timestep"), (messages[3].entities[0], "x"), (messages[5].counters, "rreq")]:
        with pytest.raises(AttributeError):
            setattr(msg, field, 5)


def test_entity_record_rounds_coordinates():
    rec = EntityRecord(1, 1.23456789, 2.0000004, "static")
    assert rec.x == 1.234568
    assert rec.y == 2.0
    assert decode(encode(Final((rec,), Counters()))).entities[0] == rec


def test_entity_record_rejects_unknown_kind():
    with pytest.raises(ProtocolError):
        EntityRecord(1, 0.0, 0.0, "walker")


@pytest.mark.parametrize(
    "line,code",
    [
        (b"not json\n", "bad-json"),
        (b'"just a string"\n', "bad-message"),
        (b'{"type":"NOPE"}\n', "bad-message"),
        (b'{"type":"CONTINUE"}\n', "bad-field"),
        (b'{"type":"CONTINUE","timestep":true}\n', "bad-field"),
        (b'{"type":"CONTINUE","timestep":"7"}\n', "bad-field"),
        (b'{"type":"HELLO","version":1.5}\n', "bad-field"),
        (b'{"type":"INIT","instance_id":"a","seed":1,"grid_side":10,"fine_steps":100}\n', "bad-field"),
        (b'{"type":"INIT","instance_id":"a","seed":1,"grid_side":1,"fine_steps":100,"entities":[]}\n', "bad-field"),
        (b'{"type":"INIT","instance_id":"a","seed":1,"grid_side":10,"fine_steps":0,"entities":[]}\n', "bad-field"),
        (b'{"type":"FINAL","entities":[],"counters":{"rreq":0}}\n', "bad-field"),
        (
            b'{"type":"INIT","instance_id":"a","seed":1,"grid_side":10,"fine_steps":100,'
            b'"entities":[{"id":-1,"x":0,"y":0,"kind":"mobile"}]}\n',
            "bad-field",
        ),
        (
            b'{"type":"FINAL","entities":[{"id":1,"x":0,"y":0,"kind":"mobile","arrived":true,"hops":true}],'
            b'"counters":{"rreq":0,"rrep":0,"arrivals":0,"events_processed":0}}\n',
            "bad-field",
        ),
        (
            b'{"type":"INIT","instance_id":"a","seed":1,"grid_side":10,"fine_steps":100,'
            b'"entities":[{"id":1,"x":NaN,"y":0,"kind":"mobile"}]}\n',
            "bad-field",
        ),
        (
            b'{"type":"FINAL","entities":[{"id":1,"x":0,"y":Infinity,"kind":"mobile","arrived":true,"hops":null}],'
            b'"counters":{"rreq":0,"rrep":0,"arrivals":0,"events_processed":0}}\n',
            "bad-field",
        ),
        (
            b'{"type":"STEP_RESULT","timestep":0,"entities":[],'
            b'"counters":{"rreq":0,"rrep":-5,"arrivals":0,"events_processed":0}}\n',
            "bad-field",
        ),
        (
            b'{"type":"STEP_RESULT","timestep":0,"entities":[],'
            b'"counters":{"rreq":0,"rrep":0,"arrivals":0}}\n',
            "bad-field",
        ),
        (
            b'{"type":"INIT","instance_id":"a","seed":1,"grid_side":10,"fine_steps":100,'
            b'"entities":[{"x":0,"y":0,"kind":"mobile"}]}\n',
            "bad-field",
        ),
    ],
)
def test_decode_rejects_malformed_lines(line, code):
    with pytest.raises(ProtocolError) as excinfo:
        decode(line)
    assert excinfo.value.code == code
    if code == "bad-field":
        # The detail names the message, also for a field of a nested record or counters.
        assert excinfo.value.detail.endswith(f" in {json.loads(line)['type']}")


def test_decode_rejects_an_int_too_large_for_a_float():
    line = (
        b'{"type":"INIT","instance_id":"a","seed":1,"grid_side":10,"fine_steps":100,'
        b'"entities":[{"id":1,"x":0,"y":' + b"9" * 400 + b',"kind":"mobile"}]}\n'
    )
    with pytest.raises(ProtocolError, match="non-finite") as excinfo:
        decode(line)
    assert excinfo.value.code == "bad-field"


def test_decode_maps_nesting_too_deep_for_the_parser_to_bad_json():
    with pytest.raises(ProtocolError) as excinfo:
        decode(b"[" * 100_000)
    assert excinfo.value.code == "bad-json"


def test_decode_maps_an_int_past_the_digit_limit_to_bad_json():
    with pytest.raises(ProtocolError) as excinfo:
        decode(b'{"type":"CONTINUE","timestep":' + b"7" * 5_000 + b"}\n")
    assert excinfo.value.code == "bad-json"


def test_decode_refuses_a_repeated_key():
    with pytest.raises(ProtocolError, match="repeated key 'timestep'") as excinfo:
        decode(b'{"type":"CONTINUE","timestep":1,"timestep":2}\n')
    assert excinfo.value.code == "bad-json"


def test_decode_refuses_a_repeated_key_inside_an_entity_record():
    line = (
        b'{"type":"INIT","instance_id":"t0-lp0-0","seed":1,"grid_side":4,"fine_steps":10,'
        b'"entities":[{"id":1,"x":0.5,"x":9.5,"y":2.0,"kind":"static"}]}\n'
    )
    with pytest.raises(ProtocolError, match="repeated key 'x'") as excinfo:
        decode(line)
    assert excinfo.value.code == "bad-json"


# -- transports ---------------------------------------------------------------


@pytest.fixture(autouse=True)
def short_timeout(monkeypatch):
    """A session that would hang gives up in seconds, not the default 30 s."""
    monkeypatch.setattr(protocol, "DEFAULT_TIMEOUT", 5.0)


@pytest.fixture
def pair():
    """Makes socket pairs and closes both ends of each after the test."""
    made = []

    def make(**transcripts):
        ends = socket_pair(**transcripts)
        made.extend(ends)
        return ends

    yield make
    for end in made:
        end.close()


def test_loopback_timeout_and_close(pair, monkeypatch):
    monkeypatch.setattr(protocol, "DEFAULT_TIMEOUT", 0.05)
    a, _ = pair()
    with pytest.raises(TransportTimeout):
        a.recv_line()
    # A reader that timed out is not read again: a fresh pair for the rest.
    a, b = pair()
    b.send_line(b"ping\n")
    assert a.recv_line() == b"ping\n"
    b.close()
    with pytest.raises(TransportClosed):
        a.recv_line()


def test_loopback_frames_lines_like_tcp(pair):
    a, b = pair()
    a.send_line(b"a\nb\n")
    assert b.recv_line() == b"a\n"
    assert b.recv_line() == b"b\n"


def test_refused_connect_fails_at_once_naming_the_port(monkeypatch):
    ports = []

    def listen(self, backlog=0):  # bound but not listening: the connect is refused
        ports.append(self.getsockname()[1])

    monkeypatch.setattr(socket.socket, "listen", listen)
    started = time.perf_counter()
    with pytest.raises(TransportClosed, match="could not connect") as excinfo:
        connect_tcp()
    assert time.perf_counter() - started < 2.0  # no retrying
    (port,) = ports
    assert f"127.0.0.1:{port}" in str(excinfo.value)


def test_connect_refuses_a_stranger_that_connected_first(monkeypatch):
    strangers = []
    create_connection = socket.create_connection

    def racing(address, *args, **kwargs):
        strangers.append(create_connection(address))  # lands first in the accept queue
        return create_connection(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", racing)
    try:
        with pytest.raises(TransportClosed, match="a stranger at .* connected to 127.0.0.1:"):
            connect_tcp()
    finally:
        for sock in strangers:
            sock.close()
    assert len(strangers) == 1


def test_transcripts_log_both_directions(pair):
    log_a, log_b = [], []
    a, b = pair(transcript_a=log_a, transcript_b=log_b)
    a.send_line(b"x\n")
    b.recv_line()
    b.send_line(b"y\n")
    a.recv_line()
    assert log_a == [("send", b"x\n"), ("recv", b"y\n")]
    assert log_b == [("recv", b"x\n"), ("send", b"y\n")]


@pytest.mark.parametrize("extra", [0, 1], ids=["at-limit", "one-over"])
def test_a_line_longer_than_max_line_fails_the_step(pair, monkeypatch, extra):
    monkeypatch.setattr(protocol, "MAX_LINE", 1024)
    client_t, server_t = pair()
    server_t.send_line(encode(Hello()))
    reply = StepResult(0, (), Counters())
    line = encode(reply)
    server_t.send_line(line[:-1] + b" " * (1024 + extra - len(line)) + b"\n")  # LF included
    client = SessionClient(client_t)
    client.handshake(_sample_init(n=0))
    if not extra:
        assert client.step(0) == reply
        return
    with pytest.raises(ProtocolError) as excinfo:
        client.step(0)
    assert excinfo.value.code == "line-too-long"


def test_serve_session_refuses_a_line_longer_than_max_line(pair, monkeypatch):
    monkeypatch.setattr(protocol, "MAX_LINE", 1024)
    client_t, server_t = pair()
    line = encode(_sample_init())
    client_t.send_line(line[:-1] + b" " * (1025 - len(line)) + b"\n")
    with pytest.raises(ProtocolError) as excinfo:
        serve_session(server_t, _echo_handlers)
    assert excinfo.value.code == "line-too-long"


def test_max_line_holds_the_final_of_100k_widest_records():
    # Ids past any cohort, coordinates just below 1e7 with all 6 fractional digits.
    records = tuple(
        EntityRecord(10**9 + i, -9999999.123457, -9999999.123457, "static", False, 10**6) for i in range(100_000)
    )
    assert len(encode(Final(records, Counters()))) <= protocol.MAX_LINE


# -- session state machine ------------------------------------------------------


def _echo_handlers(init: Init) -> SimpleNamespace:
    records = tuple(EntityRecord(r.id, r.x, r.y, r.kind) for r in init.entities)
    return SimpleNamespace(
        run_one_coarse_step=lambda t: (records, Counters(events_processed=t + 1)),
        finalize=lambda: (records, Counters()),
    )


def _serve_in_thread(transport, make_instance):
    errors: list[Exception] = []

    def run():
        try:
            serve_session(transport, make_instance)
        except ProtocolError as exc:
            errors.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, errors


def _sample_init(n=2):
    return Init(
        instance_id="t5-lp0-0",
        seed=314159,
        grid_side=5,
        fine_steps=100,
        entities=tuple(_rec(i, 10.0 * i, 5.0, "mobile") for i in range(1, n + 1)),
    )


def test_full_session_lock_step():
    session = InstanceSession(_echo_handlers)
    client = SessionClient(session)
    client.handshake(_sample_init())
    for t in range(3):
        result = client.step(t)
        assert result.timestep == t
        assert [r.id for r in result.entities] == [1, 2]
    final = client.finish()
    assert [r.id for r in final.entities] == [1, 2]
    assert session.done and session.failure is None


def test_serve_session_waits_for_init_only_as_long_as_the_patched_timeout(pair, monkeypatch):
    monkeypatch.setattr(protocol, "DEFAULT_TIMEOUT", 0.2)
    _, server_t = pair()
    started = time.perf_counter()
    with pytest.raises(TransportTimeout):
        serve_session(server_t, _echo_handlers)
    assert time.perf_counter() - started < 2.0


def test_server_rejects_wrong_first_message(pair):
    client_t, server_t = pair()
    # Preload the wrong opener; the socket buffers it, so no thread is needed.
    client_t.send_line(encode(StepResult(0, (), Counters())))
    with pytest.raises(ProtocolError) as excinfo:
        serve_session(server_t, _echo_handlers)
    assert excinfo.value.code == "protocol-violation"
    assert decode(client_t.recv_line()) == Hello()
    err = decode(client_t.recv_line())
    assert isinstance(err, Error) and err.code == "protocol-violation"


def test_server_rejects_continue_after_end(pair):
    client_t, server_t = pair()
    client_t.send_line(encode(_sample_init()))
    client_t.send_line(encode(End()))
    serve_session(server_t, _echo_handlers)  # completes cleanly
    assert decode(client_t.recv_line()) == Hello()
    assert isinstance(decode(client_t.recv_line()), Final)


def test_client_rejects_wrong_handshake(pair):
    client_t, server_t = pair()
    server_t.send_line(encode(Continue(1)))
    client = SessionClient(client_t)
    with pytest.raises(ProtocolError) as excinfo:
        client.handshake(_sample_init())
    assert excinfo.value.code == "protocol-violation"


def test_client_rejects_version_mismatch(pair):
    client_t, server_t = pair()
    server_t.send_line(encode(Hello(version=2)))
    client = SessionClient(client_t)
    with pytest.raises(ProtocolError) as excinfo:
        client.handshake(_sample_init())
    assert excinfo.value.code == "version-mismatch"


def test_client_rejects_step_result_for_wrong_timestep(pair):
    client_t, server_t = pair()
    server_t.send_line(encode(Hello()))
    server_t.send_line(encode(StepResult(9, (), Counters())))
    client = SessionClient(client_t)
    client.handshake(_sample_init(n=0))
    with pytest.raises(ProtocolError) as excinfo:
        client.step(3)
    assert excinfo.value.code == "protocol-violation"


def test_client_rejects_final_with_changed_ids():
    def bad_final(init: Init) -> SimpleNamespace:
        good = tuple(EntityRecord(r.id, r.x, r.y, r.kind) for r in init.entities)
        swapped = (EntityRecord(999, 0.0, 0.0, "static"),)
        return SimpleNamespace(
            run_one_coarse_step=lambda t: (good, Counters()),
            finalize=lambda: (swapped, Counters()),
        )

    session = InstanceSession(bad_final)
    client = SessionClient(session)
    client.handshake(_sample_init())
    client.step(0)
    with pytest.raises(ProtocolError) as excinfo:
        client.finish()
    assert excinfo.value.code == "entity-mismatch"
    # The instance side is already done by then; the trailing ERROR the
    # client emits is best effort and nobody is left to read it.
    assert session.done and session.failure is None


def test_client_rejects_final_that_repeats_an_id():
    def repeated_final(init: Init) -> SimpleNamespace:
        good = init.entities
        return SimpleNamespace(
            run_one_coarse_step=lambda t: (good, Counters()),
            finalize=lambda: (good + good[:1], Counters()),
        )

    session = InstanceSession(repeated_final)
    client = SessionClient(session)
    client.handshake(_sample_init())
    client.step(0)
    with pytest.raises(ProtocolError) as excinfo:
        client.finish()
    assert excinfo.value.code == "entity-mismatch"
    assert session.done and session.failure is None


def test_client_rejects_step_result_with_changed_ids():
    def bad_step(init: Init) -> SimpleNamespace:
        good = init.entities
        return SimpleNamespace(
            run_one_coarse_step=lambda t: (good + good[:1], Counters()),
            finalize=lambda: (good, Counters()),
        )

    session = InstanceSession(bad_step)
    client = SessionClient(session)
    client.handshake(_sample_init())
    with pytest.raises(ProtocolError) as excinfo:
        client.step(0)
    assert excinfo.value.code == "entity-mismatch"
    # The instance reads the client's ERROR in place of its next command.
    assert session.done
    assert session.failure.code == "entity-mismatch"


@pytest.mark.parametrize("crash_in", ["run_one_coarse_step", "finalize"], ids=["run_step", "finalize"])
def test_instance_crash_is_answered_on_the_wire(crash_in, pair):
    def crash(*_):
        raise KeyError("lost entity 42")

    def make_instance(init):
        handlers = _echo_handlers(init)
        setattr(handlers, crash_in, crash)
        return handlers

    client_t, server_t = pair()
    for msg in (_sample_init(), Continue(0), End()):
        client_t.send_line(encode(msg))
    # Raised as itself, so the instance's host can name the cause too.
    with pytest.raises(KeyError, match="lost entity 42"):
        serve_session(server_t, make_instance)
    lines = []
    while (line := client_t.recv_line()) and not line.startswith(b'{"type":"ERROR"'):
        lines.append(line)
    assert line == b'{"type":"ERROR","code":"instance-failed","detail":"KeyError: \'lost entity 42\'"}\n'
    assert len(lines) == (1 if crash_in == "run_one_coarse_step" else 2)  # HELLO, then any STEP_RESULT


def test_error_reply_propagates_to_caller(pair):
    client_t, server_t = pair()
    server_t.send_line(encode(Error("instance-failed", "boom")))
    client = SessionClient(client_t)
    with pytest.raises(ProtocolError) as excinfo:
        client.handshake(_sample_init())
    assert excinfo.value.code == "instance-failed"


def test_an_error_sent_before_hanging_up_beats_the_failed_send(pair):
    # The instance refused the INIT and closed before the engine's CONTINUE.
    client_t, server_t = pair()
    server_t.send_line(encode(Hello()))
    client = SessionClient(client_t)
    client.handshake(_sample_init())
    server_t.send_line(encode(Error("bad-field", "INIT names entity 1 more than once")))
    server_t.close()
    with pytest.raises(ProtocolError, match="^bad-field: INIT names entity 1 more than once$"):
        client.step(0)


def test_server_answers_an_undecodable_line_with_bad_json(pair):
    client_t, server_t = pair()
    client_t.send_line(b"not json\n")
    with pytest.raises(ProtocolError) as excinfo:
        serve_session(server_t, _echo_handlers)
    assert excinfo.value.code == "bad-json"
    assert decode(client_t.recv_line()) == Hello()
    err = decode(client_t.recv_line())
    assert isinstance(err, Error) and err.code == "bad-json"


@pytest.mark.parametrize("line", [b"not json\n", encode(_sample_init())[:-2] + b"\n"], ids=["text", "cut"])
def test_inline_session_answers_an_undecodable_line_with_bad_json(line):
    session = InstanceSession(_echo_handlers)
    assert session.recv_line() == encode(Hello())
    session.send_line(line)
    err = decode(session.recv_line())
    assert isinstance(err, Error) and err.code == "bad-json"
    assert session.done and session.failure.code == "bad-json"


def test_inline_session_refuses_a_send_once_it_ended_and_keeps_its_error_for_the_client():
    def refuse(init):
        raise ProtocolError("bad-field", "INIT names entity 1 more than once")

    session = InstanceSession(refuse)
    client = SessionClient(session)
    client.handshake(_sample_init())  # INIT gets no reply: the ERROR waits in the queue
    with pytest.raises(TransportClosed):
        session.send_line(encode(Continue(0)))
    with pytest.raises(ProtocolError, match="^bad-field: INIT names entity 1 more than once$"):
        client.step(0)
    with pytest.raises(TransportClosed):
        session.recv_line()  # nothing more to read


@pytest.mark.parametrize(
    "make_instance,code,failure",
    [
        (lambda init: 1 / 0, "init-failed", ProtocolError),
        (lambda init: SimpleNamespace(run_one_coarse_step=lambda t: 1 / 0), "instance-failed", ZeroDivisionError),
    ],
    ids=["init", "step"],
)
def test_inline_session_keeps_what_failed(make_instance, code, failure):
    session = InstanceSession(make_instance)
    client = SessionClient(session)
    client.handshake(_sample_init())
    with pytest.raises(ProtocolError) as excinfo:
        client.step(0)
    assert excinfo.value.code == code
    assert type(session.failure) is failure


def test_inline_session_rejects_a_second_init():
    session = InstanceSession(_echo_handlers)
    session.recv_line()
    session.send_line(encode(_sample_init()))
    session.send_line(encode(_sample_init()))
    err = decode(session.recv_line())
    assert (err.code, err.detail) == ("protocol-violation", "expected CONTINUE or END, got Init")


# -- transport equivalence ------------------------------------------------------


def _run_session_collect(client_t, init, steps=2):
    client = SessionClient(client_t)
    client.handshake(init)
    for t in range(steps):
        client.step(t)
    client.finish()


def test_tcp_and_loopback_transcripts_are_byte_identical():
    init = _sample_init()

    loop_log: list = []
    session = InstanceSession(level1.make_handlers, loop_log)
    _run_session_collect(session, init)
    assert session.failure is None

    tcp_log: list = []
    client_t, conn = connect_tcp(transcript=tcp_log)
    server_t = Transport(conn)
    try:
        thread, errors = _serve_in_thread(server_t, level1.make_handlers)
        _run_session_collect(client_t, init)
        thread.join(timeout=10)
        assert errors == []
    finally:
        client_t.close()
        server_t.close()

    assert loop_log == tcp_log
    directions = [d for d, _ in loop_log]
    assert directions == ["recv", "send", "send", "recv", "send", "recv", "send", "recv"]
