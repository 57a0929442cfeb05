"""A scalar level 0 to check the engine against: no stripes, no sessions.

Every receipt is handled on its own, in the order the engine promises each
receiver: a step's transmissions sorted by (message id, sender), stably.
Each receiver keeps its own ``OrderedDict`` LRU.  The disc test, the
distance and the coins are the engine's expressions evaluated one scalar at
a time, so the two must agree bit for bit.

The reference shares only setup with the engine (``make_entities``, the
``rng`` keys and ``rwp_step``); it never calls the engine's cache, relay or
delivery code.
"""

from __future__ import annotations

import math
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from operator import itemgetter

from iotsim import rng
from iotsim.mobility import rwp_step
from iotsim.model import make_entities

# One transmission in flight: message id, sender, hops left, where it was sent from.
_tx_order = itemgetter(0, 1)


class FloodTooLarge(Exception):
    """The run would test more receiver pairs than the caller allowed."""


@dataclass
class ReferenceRun:
    # (timestep, generated, forwarded, delivered, duplicates) per step.
    reports: list[tuple[int, int, int, int, int]] = field(default_factory=list)
    positions: dict[int, tuple[float, float]] = field(default_factory=dict)
    # Each entity's cached message ids, least recently touched first.
    caches: dict[int, list] = field(default_factory=dict)
    receipts: dict = field(default_factory=dict)
    min_ttl_seen: int | None = None
    # Transmissions that share (message id, sender) with the one before them.
    ties: int = 0


def _touch(cache: OrderedDict, capacity: int | None, msg_id) -> bool:
    """LRU touch: True if ``msg_id`` was cached.  Capacity 0 never hits; None never evicts."""
    if capacity == 0:
        return False
    if msg_id in cache:
        cache.move_to_end(msg_id)
        return True
    cache[msg_id] = None
    if capacity is not None and len(cache) > capacity:
        cache.popitem(last=False)
    return False


def run_reference(config, max_pairs: int | None = None) -> ReferenceRun:
    """Run ``config`` (which must have no sessions) one receipt at a time.

    ``max_pairs`` bounds the sender-receiver pairs tested over the run;
    past it, ``FloodTooLarge`` is raised.
    """
    if config.l1_schedule:
        raise ValueError("the reference runs no sessions")
    world = config.make_world()
    width, height = world.width, world.height
    r2 = config.interaction_range * config.interaction_range
    capacity = None if config.deliver_once else config.cache_capacity
    entities = make_entities(config, world)  # in id order
    caches = {e.id: OrderedDict() for e in entities}
    next_seq = dict.fromkeys(caches, 0)
    out = ReferenceRun()
    pairs = 0
    in_flight: list = []
    for t in range(config.total_timesteps):
        generated = forwarded = delivered = duplicates = 0
        outgoing: list = []
        in_flight.sort(key=_tx_order)
        out.ties += sum(_tx_order(a) == _tx_order(b) for a, b in zip(in_flight, in_flight[1:]))
        pairs += len(in_flight) * len(entities)
        if max_pairs is not None and pairs > max_pairs:
            raise FloodTooLarge(pairs)
        for msg_id, sender, ttl, sx, sy in in_flight:
            received = []
            for e in entities:
                if e.id == sender:
                    continue
                dx = abs(e.x - sx)
                dx = min(dx, width - dx)
                dy = abs(e.y - sy)
                dy = min(dy, height - dy)
                if not dx * dx + dy * dy <= r2:
                    continue
                received.append(e.id)
                if _touch(caches[e.id], capacity, msg_id):
                    duplicates += 1
                    continue
                delivered += 1
                if (
                    ttl - 1 > 0
                    and math.hypot(dx, dy) > config.forwarding_threshold
                    and rng.unit_uniform(config.seed, rng.FORWARD, e.id, *msg_id)
                    < config.dissemination_prob
                ):
                    forwarded += 1
                    outgoing.append((msg_id, e.id, ttl - 1, e.x, e.y))
            if received:
                out.receipts.setdefault(msg_id, Counter()).update(received)
                if out.min_ttl_seen is None or ttl < out.min_ttl_seen:
                    out.min_ttl_seen = ttl
        for e in entities:
            if rng.unit_uniform(config.seed, rng.GENERATION, e.id, t) < config.generation_prob:
                msg_id = (e.id, next_seq[e.id])
                next_seq[e.id] += 1
                _touch(caches[e.id], capacity, msg_id)  # never re-deliver to self
                generated += 1
                outgoing.append((msg_id, e.id, config.ttl, e.x, e.y))
        for e in entities:
            if e.mobility is not None:
                e.x, e.y = rwp_step(
                    world, e.x, e.y, e.mobility, config.speed_min, config.speed_max, e.mob_rng
                )
        out.reports.append((t, generated, forwarded, delivered, duplicates))
        in_flight = outgoing
    out.positions = {e.id: (e.x, e.y) for e in entities}
    out.caches = {eid: list(cache) for eid, cache in caches.items()}
    return out
