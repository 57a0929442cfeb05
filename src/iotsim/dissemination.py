"""Probabilistic broadcast dissemination with TTL and duplicate caches.

A message spreads by gossip: every receiver that (a) has not seen the message,
(b) is far enough from the transmitter, and (c) wins a coin flip re-broadcasts
a copy with one less hop to live.  Near receivers stay quiet because the
transmitter already covered their surroundings.  A message in flight is its
id and its remaining hop budget; nothing else about it decides anything.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from . import rng
from .config import SimConfig

if TYPE_CHECKING:
    import numpy as np

MsgId = tuple[int, int]  # (origin entity id, per-origin sequence number)


class MessageCache:
    """Recently-seen message ids with LRU eviction.

    capacity > 0: keep at most that many ids, evicting the least recently
    touched.  capacity == 0: caching disabled, every lookup misses.
    capacity None: unbounded (used by the deliver-once accounting mode).

    The ids are the keys of a plain ``dict``, which keeps insertion order:
    a touch takes the id out and puts it back, so the first key is the
    least recently touched and is the one evicted.  A full cache of 256 ids
    holds about half the memory of an ``OrderedDict``'s, whose per-key
    links it does not need.
    """

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: Optional[int]) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError("capacity must be >= 0 or None")
        self.capacity = capacity
        self._entries: dict[MsgId, None] = {}

    def touch(self, msg_id: MsgId) -> bool:
        """Record ``msg_id`` as just seen; True if it was already cached."""
        capacity, entries = self.capacity, self._entries
        if capacity == 0:
            return False
        if entries.pop(msg_id, False) is None:  # a hit: move it to the end
            entries[msg_id] = None
            return True
        entries[msg_id] = None
        if capacity is not None and len(entries) > capacity:
            del entries[next(iter(entries))]
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


# Relative half-width of the band around the squared threshold inside which
# comparing d² with t² might disagree with comparing hypot with t; an
# absolute floor covers squares that underflow.  Both errors are a few ulps.
_BAND_REL = 1e-9
_BAND_ABS = 1e-290


def forward_gates(
    ttls: np.ndarray,
    dx: np.ndarray,
    dy: np.ndarray,
    receivers: np.ndarray,
    origins: np.ndarray,
    seqs: np.ndarray,
    config: SimConfig,
) -> np.ndarray:
    """``should_forward`` for a fresh copy, over an array of fresh copies.

    Receipt ``k`` carries ``ttls[k]`` hops, was sent from offset
    ``(dx[k], dy[k])`` and went to entity ``receivers[k]``; its message id is
    ``(origins[k], seqs[k])``.  The coin is the stateless draw of (seed,
    FORWARD, receiver, origin, seq), drawn only for the receipts that pass
    the ttl and distance tests, and no gate reads cache state, so a receipt
    gets the same gate in any subset of the receipts: the engine gates only
    the copies its caches found fresh.  Distance compares squares, except in
    a narrow band around the threshold, where the receipt goes through
    ``should_forward`` with ``math.hypot``: the engine and the scalar gate
    agree on every pair.
    """
    import numpy as np

    t2 = config.forwarding_threshold * config.forwarding_threshold
    d2 = dx * dx + dy * dy
    near = np.abs(d2 - t2) <= t2 * _BAND_REL + _BAND_ABS
    drawn = np.flatnonzero((ttls > 1) & ((d2 > t2) | near))
    coins = rng.unit_uniforms((config.seed, rng.FORWARD), receivers[drawn], origins[drawn], seqs[drawn])
    gates = np.zeros(len(ttls), dtype=bool)
    gates[drawn] = coins < config.dissemination_prob
    for k in np.flatnonzero(near[drawn]).tolist():
        i = drawn[k]
        gates[i] = should_forward(int(ttls[i]), False, math.hypot(dx[i], dy[i]), float(coins[k]), config)
    return gates


def relay_step(cache: MessageCache, msg_id: MsgId) -> bool:
    """Receiver-side handling of one incoming copy: True if it is a duplicate.

    The cache is touched exactly once, so an LRU cache observes each receipt
    in order.  A copy that is not a duplicate is delivered, and only such a
    fresh copy is gated (``forward_gates``): a duplicate is never forwarded.
    """
    return cache.touch(msg_id)
