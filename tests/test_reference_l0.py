"""Differential test: the engine's level 0 against the scalar reference.

About 200 seeded configs, each run by both.  They must agree on every step
report (timings aside), every final position, each entity's cache in LRU
order and the receipt tallies.  The configs vary the population, the stripe
count, the cache (off, tiny, small, default, unbounded), the hop budget, the
forwarding gate and the range against the world's side, so they cover
eviction, a message relayed twice by one entity within one step, a disc
wider than the world and migration across several stripe seams.

A cache-less flood with a disc wider than the world grows by a factor of N
per hop, so a config whose reference run would test more than MAX_PAIRS
sender-receiver pairs is redrawn.
"""

from __future__ import annotations

import functools
import random
from collections import Counter

import pytest
from reference_l0 import FloodTooLarge, run_reference

from iotsim.config import SimConfig
from iotsim.level0 import run_simulation

CASES = 200
MAX_PAIRS = 150_000
REPORT_FIELDS = (
    "timestep",
    "generated",
    "forwarded",
    "delivered",
    "duplicates",
    "dropped_delegated",
    "active",
    "delegated",
)


def _draw_config(draw: random.Random) -> SimConfig:
    num_ses = draw.choice([1, 2, 3, 5, 8, 13, 20, 30, 50, 80, 120, 200, 300])
    side = SimConfig(num_ses=num_ses).world_side
    radius = side * draw.choice([0.05, 0.15, 0.3, 0.45, 0.5, 0.7, 1.0, 1.5])
    return SimConfig(
        num_ses=num_ses,
        num_lps=draw.randint(1, min(5, num_ses)),
        interaction_range=radius,
        forwarding_threshold=radius * draw.choice([0.0, 0.3, 0.6, 0.9, 1.1]),
        dissemination_prob=draw.choice([0.0, 0.3, 0.6, 1.0]),
        ttl=draw.randint(1, 6),
        cache_capacity=draw.choice([0, 1, 8, 256]),
        deliver_once=draw.random() < 0.25,
        generation_prob=draw.choice([0.02, 0.05, 0.1, 0.3]),
        mobile_fraction=draw.choice([0.0, 0.5, 1.0]),
        # Fast walkers cross stripe seams every few steps.
        speed_max=draw.choice([14.0, max(1.0, side / 6)]),
        total_timesteps=draw.randint(1, 12),
        seed=draw.randrange(1 << 32),
    )


@functools.cache
def _case(index: int):
    """Case ``index``: its config and the reference's run of it."""
    draw = random.Random(index)
    while True:
        config = _draw_config(draw)
        try:
            return config, run_reference(config, MAX_PAIRS)
        except FloodTooLarge:
            continue


@pytest.mark.parametrize("index", range(CASES))
def test_engine_matches_the_scalar_reference(index):
    config, ref = _case(index)
    result = run_simulation(config, record_receipts=True)
    n = config.num_ses
    assert [tuple(getattr(r, f) for f in REPORT_FIELDS) for r in result.reports] == [
        (*row, 0, n, 0) for row in ref.reports
    ]
    assert {e.id: (e.x, e.y) for e in result.entities.values()} == ref.positions
    assert {e.id: list(e.cache._entries) for e in result.entities.values()} == ref.caches
    assert result.audit.receipts == ref.receipts
    assert result.audit.min_ttl_seen == ref.min_ttl_seen


def test_the_cases_cover_what_they_are_for():
    cases = [_case(i) for i in range(CASES)]
    configs = [config for config, _ in cases]
    assert {c.num_lps for c in configs} == {1, 2, 3, 4, 5}
    assert {c.cache_capacity for c in configs} == {0, 1, 8, 256}
    assert any(c.deliver_once for c in configs)
    assert any(2 * c.interaction_range >= c.world_side and c.num_lps > 1 for c in configs)

    def evicts(config, ref) -> bool:
        # Some entity received more distinct messages than its cache holds.
        heard = Counter(eid for tally in ref.receipts.values() for eid in tally)
        return not config.deliver_once and max(heard.values(), default=0) > config.cache_capacity

    assert sum(evicts(c, ref) for c, ref in cases if c.cache_capacity in (1, 8)) >= 20
    # Without a cache, one entity can relay a message twice in one step: two
    # copies of one (message, sender) pair then travel together.
    assert sum(ref.ties for _, ref in cases) > 100
    multi_hop = [ref.min_ttl_seen for c, ref in cases if ref.min_ttl_seen is not None]
    assert min(multi_hop) == 1
    assert sum(sum(row[3] + row[4] for row in ref.reports) for _, ref in cases) > 50_000
