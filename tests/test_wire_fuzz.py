"""Seeded fuzzing of the wire decoder, in the manner of QuickCheck (Claessen
& Hughes, ICFP 2000).

Valid lines of all seven message types are built from the protocol's table
of message classes (their keys and checks), then mutated: their bytes, keys, value types and nesting.
For every case ``decode`` returns a message or raises ``ProtocolError``, and
every message it returns reads back unchanged through ``encode`` and
``decode``.  ``cases(seed, count)`` makes the corpus on its own, so it can
be run against another build of the decoder too.
"""

import copy
import json
import random

from iotsim import protocol
from iotsim.protocol import ProtocolError, decode, encode

SEED = 2026
CASES = 20_000

# JSON values that a field's check accepts or refuses; a valid field is one of these.
VALUES = [0, 1, 2, 7, -3, 2**63 + 5, 1.5, -2.25, 1e-06, 123456.789, "static", "mobile", "t0-lp1-0", ""]
VALUES += [True, False, None]
# What a mutation puts in place of a value: wrong types, bounds, non-finite numbers, nesting.
MUTANTS = VALUES + [
    -1,
    10**400,
    1e308,
    float("nan"),
    float("inf"),
    -float("inf"),
    "HELLO",
    "7",
    [],
    {},
    [1, 2],
    {"id": 1},
    [{}],
    [[[[[]]]]],
]
KEYS = ["type", "version", "instance_id", "seed", "grid_side", "fine_steps", "entities", "timestep", "counters"]
KEYS += ["code", "detail", "id", "x", "y", "kind", "arrived", "hops", "rreq", "rrep", "arrivals", "events_processed"]
# How often each kind of ``_mutate_tree`` mutation is made, in its order there.
WEIGHTS = [30, 15, 15, 15, 8, 10, 7]
# A key "<REPEAT><key>" is written as "<key>": it repeats a key of its object.
REPEAT = "\x00repeat"


def _valid_values(check):
    accepted = []
    for value in VALUES:
        try:
            check("key", value)
        except ProtocolError:
            continue
        accepted.append(value)
    return accepted


def _valid(check, rnd, cache):
    if isinstance(check, protocol._Nested):
        count = rnd.randrange(4) if check.many else 1
        objects = [_valid_object(check.cls, rnd, cache, check.width) for _ in range(count)]
        return objects if check.many else objects[0]
    if check not in cache:
        cache[check] = _valid_values(check)
    return rnd.choice(cache[check])


def _valid_object(cls, rnd, cache, width=None):
    return {key: _valid(check, rnd, cache) for key, check in zip(cls._keys[:width], cls._checks)}


def _mutant(rnd):
    return copy.deepcopy(rnd.choice(MUTANTS))  # the tree may be mutated further


def _slots(value):
    """Every (container, key or index) below ``value``, depth first."""
    found = []
    stack = [value]
    while stack:
        node = stack.pop()
        pairs = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, child in pairs:
            found.append((node, key))
            stack.append(child)
    return found


def _mutate_tree(obj, rnd):
    slots = _slots(obj)
    dicts = [obj] + [c[k] for c, k in slots if isinstance(c[k], dict)]
    kind = rnd.choices(range(7), WEIGHTS)[0] if slots else 3
    if kind == 0:  # a value of another type
        container, key = rnd.choice(slots)
        container[key] = _mutant(rnd)
    elif kind == 1:  # a value nested one level deeper, or its first element in its place
        container, key = rnd.choice(slots)
        value = container[key]
        if isinstance(value, (list, dict)) and value and rnd.random() < 0.5:
            container[key] = next(iter(value.values())) if isinstance(value, dict) else value[0]
        else:
            container[key] = rnd.choice([[value], {"v": value}])
    elif kind == 2:  # a key dropped
        target = rnd.choice(dicts)
        if target:
            del target[rnd.choice(list(target))]
    elif kind == 3:  # a key renamed, or a stranger added
        target = rnd.choice(dicts)
        if target and rnd.random() < 0.5:
            target[rnd.choice(KEYS)] = target.pop(rnd.choice(list(target)))
        else:
            target[rnd.choice(KEYS + ["stranger"])] = _mutant(rnd)
    elif kind == 4:  # a key repeated
        target = rnd.choice(dicts)
        if target:
            target[REPEAT + rnd.choice(list(target))] = _mutant(rnd)
    elif kind == 5:  # the type tag: another tag, no string at all, or an unhashable one
        obj["type"] = rnd.choice(["HELLO", "FINAL", "hello", "NOPE", None, 3, ["INIT"], {"type": "INIT"}])
    else:  # the whole line something other than one object
        return rnd.choice([[obj], "INIT", 7, None])
    return obj


def _dump(obj):
    text = json.dumps(obj, separators=(",", ":")).replace(json.dumps(REPEAT)[:-1], '"')
    return text.encode("utf-8") + b"\n"


def _mutate_bytes(line, rnd):
    data = bytearray(line)
    at = rnd.randrange(len(data))
    kind = rnd.randrange(4)
    if kind == 0:
        data[at] = rnd.randrange(256)
    elif kind == 1:
        data.insert(at, rnd.choice(b'{}[]":,0-.e\\ \xff'))
    elif kind == 2:
        del data[at]
    else:
        del data[at:]
    return bytes(data)


def cases(seed=SEED, count=CASES):
    """``count`` lines: a valid one of each type, then valid ones mutated up
    to twice as trees and, one in five, once as bytes."""
    rnd = random.Random(seed)
    cache = {}
    types = list(protocol._BY_TYPE.values())
    for i in range(count):
        cls = types[i % len(types)]
        obj = {"type": cls.TYPE, **_valid_object(cls, rnd, cache)}
        if i < len(types):
            yield _dump(obj)
            continue
        for _ in range(rnd.randrange(3)):
            obj = _mutate_tree(obj, rnd) if isinstance(obj, dict) else obj
        line = _dump(obj)
        if rnd.random() < 0.2:
            line = _mutate_bytes(line, rnd)
        yield line


def test_decode_returns_a_message_or_raises_protocol_error():
    accepted, refused = set(), set()
    for index, line in enumerate(cases()):
        try:
            msg = decode(line)
        except ProtocolError as exc:
            assert index >= len(protocol._BY_TYPE), f"a valid line was refused: {line!r}: {exc}"
            refused.add(exc.code)
            continue
        assert decode(encode(msg)) == msg, line
        accepted.add(type(msg).TYPE)
    # Every type got through, and every kind of refusal the decoder has was made.
    assert accepted == set(protocol._BY_TYPE)
    assert refused == {"bad-json", "bad-message", "bad-field"}
