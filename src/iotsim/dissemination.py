"""Probabilistic broadcast dissemination with TTL and duplicate caches.

A message spreads by gossip: every receiver that (a) has not seen the message,
(b) is far enough from the transmitter, and (c) wins a coin flip re-broadcasts
a copy with one less hop to live.  Near receivers stay quiet because the
transmitter already covered their surroundings.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
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


@dataclass(frozen=True, slots=True)
class DisseminationMessage:
    msg_id: MsgId
    origin: int
    created_at: int
    ttl_remaining: int
    # Ids that transmitted this copy, origin first; length == hops traveled.
    hop_trace: tuple[int, ...] = ()


def generate_message(origin_id: int, seq: int, now: int, config: SimConfig) -> DisseminationMessage:
    """New message as broadcast by its origin (the origin is hop zero)."""
    return DisseminationMessage(
        msg_id=(origin_id, seq),
        origin=origin_id,
        created_at=now,
        ttl_remaining=config.ttl,
        hop_trace=(origin_id,),
    )


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


def relayed_copy(message: DisseminationMessage, relay_id: int) -> DisseminationMessage:
    return DisseminationMessage(
        message.msg_id,
        message.origin,
        message.created_at,
        message.ttl_remaining - 1,
        message.hop_trace + (relay_id,),
    )


def relay_step(
    cache: MessageCache,
    relay_id: int,
    message: DisseminationMessage,
    sender_distance: float,
    random_draw: float,
    config: SimConfig,
) -> tuple[bool, Optional[DisseminationMessage]]:
    """Full receiver-side handling of one incoming copy.

    Returns (duplicate, relayed copy or None); a copy that is not a
    duplicate is delivered.  The cache is touched exactly once (the forward
    gate reuses the lookup), so an LRU cache observes each receipt in order.
    """
    hit = cache.touch(message.msg_id)
    if should_forward(message.ttl_remaining, hit, sender_distance, random_draw, config):
        return False, relayed_copy(message, relay_id)
    return hit, None
