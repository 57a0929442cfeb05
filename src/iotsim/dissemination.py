"""Probabilistic broadcast dissemination with TTL and duplicate caches.

A message spreads by gossip: every receiver that (a) has not seen the message,
(b) is far enough from the transmitter, and (c) wins a coin flip re-broadcasts
a copy with one less hop to live.  Near receivers stay quiet because the
transmitter already covered their surroundings.  A message in flight is its
id and its remaining hop budget; nothing else about it decides anything.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from .config import SimConfig

MsgId = tuple[int, int]  # (origin entity id, per-origin sequence number)


class MessageCache:
    """Recently-seen message ids with LRU eviction.

    capacity > 0: keep at most that many ids, evicting the least recently
    touched.  capacity == 0: caching disabled, every lookup misses.
    capacity None: unbounded (used by the deliver-once accounting mode).
    """

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: Optional[int]) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError("capacity must be >= 0 or None")
        self.capacity = capacity
        self._entries: OrderedDict[MsgId, None] = OrderedDict()

    def touch(self, msg_id: MsgId) -> bool:
        """Record ``msg_id`` as just seen; True if it was already cached."""
        if self.capacity == 0:
            return False
        if msg_id in self._entries:
            self._entries.move_to_end(msg_id)
            return True
        self._entries[msg_id] = None
        if self.capacity is not None and len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return False

    def __contains__(self, msg_id: MsgId) -> bool:
        return msg_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)


def generate_message(origin_id: int, seq: int, config: SimConfig) -> tuple[MsgId, int]:
    """New message as broadcast by its origin: its id and its full hop budget."""
    return (origin_id, seq), config.ttl


def should_forward(
    ttl_remaining: int, cache_hit: bool, sender_distance: float, random_draw: float, config: SimConfig
) -> bool:
    """Gossip gate, applied by a receiver to a copy it just got.

    The copy is relayed iff it can still travel (a relayed copy would carry
    ttl_remaining - 1, which must stay positive so the next receivers count
    within the hop budget), it is not a duplicate, the transmitter is strictly
    farther than the forwarding threshold, and the coin flip passes.
    """
    return (
        ttl_remaining - 1 > 0
        and not cache_hit
        and sender_distance > config.forwarding_threshold
        and random_draw < config.dissemination_prob
    )


def relay_step(
    cache: MessageCache,
    msg_id: MsgId,
    ttl_remaining: int,
    sender_distance: float,
    random_draw: float,
    config: SimConfig,
) -> tuple[bool, bool]:
    """Full receiver-side handling of one incoming copy.

    Returns (duplicate, forward); a copy that is not a duplicate is
    delivered, and a forwarded copy travels on with ``ttl_remaining - 1``.
    The cache is touched exactly once, so an LRU cache observes each receipt
    in order; a duplicate is never forwarded, so a hit skips the gate.
    """
    if cache.touch(msg_id):
        return True, False
    return False, should_forward(ttl_remaining, False, sender_distance, random_draw, config)
