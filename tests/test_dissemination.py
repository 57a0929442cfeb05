"""Message cache eviction and the gossip forwarding gate."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from iotsim import rng
from iotsim.config import SimConfig
from iotsim.dissemination import MessageCache, forward_gates, generate_message, relay_step, should_forward


def test_lru_eviction_order():
    cache = MessageCache(2)
    m1, m2, m3 = (1, 0), (2, 0), (3, 0)
    assert cache.touch(m1) is False
    assert cache.touch(m2) is False
    assert cache.touch(m1) is True  # refresh m1, m2 is now oldest
    assert cache.touch(m3) is False  # evicts m2
    assert m2 not in cache
    assert m1 in cache and m3 in cache
    assert cache.touch(m2) is False


def test_capacity_zero_never_remembers():
    cache = MessageCache(0)
    assert cache.touch((1, 0)) is False
    assert cache.touch((1, 0)) is False
    assert len(cache) == 0


def test_unbounded_cache_remembers_everything():
    cache = MessageCache(None)
    for i in range(10000):
        assert cache.touch((i, 0)) is False
    for i in range(10000):
        assert cache.touch((i, 0)) is True
    assert len(cache) == 10000


def test_capacity_bound_holds_under_fill():
    cache = MessageCache(256)
    for i in range(300):
        cache.touch((i, 0))
    assert len(cache) == 256
    # The first 44 were evicted in insertion order.
    assert (43, 0) not in cache
    assert (44, 0) in cache
    assert cache.touch((44, 0)) is True


def test_cache_rejects_negative_capacity():
    with pytest.raises(ValueError):
        MessageCache(-1)


def test_full_cache_stays_small_under_churn():
    # Every entity's cache is full in a long run, so its structure bounds how
    # many entities fit in memory.  The keys exist before tracing starts, so
    # only the cache's own allocations are counted.
    draw = random.Random(5)
    keys = [(draw.randrange(600), 0) for _ in range(20_000)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cache = MessageCache(256)
        hits = sum(map(cache.touch, keys))
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(cache) == 256 and 0 < hits < len(keys) - 256  # hits and evictions both
    assert retained < 24 * 1024


def test_generate_message_fields():
    cfg = SimConfig(ttl=4)
    msg_id, ttl_remaining = generate_message(origin_id=7, seq=3, config=cfg)
    assert msg_id == (7, 3)
    assert ttl_remaining == 4


def test_forward_gate_each_condition():
    cfg = SimConfig(dissemination_prob=0.6, forwarding_threshold=200.0, ttl=4)

    # Arguments: ttl_remaining, cache_hit, sender_distance, random_draw.
    assert should_forward(4, False, 300.0, 0.1, cfg)
    # A relayed copy would carry ttl 0 and could not travel: no forward.
    assert not should_forward(1, False, 300.0, 0.1, cfg)
    assert not should_forward(0, False, 300.0, 0.1, cfg)
    # Duplicate suppression.
    assert not should_forward(4, True, 300.0, 0.1, cfg)
    # Sender at exactly the threshold is "near": no forward.
    assert not should_forward(4, False, 200.0, 0.1, cfg)
    # Coin flip must be strictly below the probability.
    assert not should_forward(4, False, 300.0, 0.6, cfg)
    assert should_forward(4, False, 300.0, 0.5999, cfg)


def test_certain_gossip_always_forwards_while_travel_remains():
    cfg = SimConfig(dissemination_prob=1.0, forwarding_threshold=0.0)
    for ttl in (2, 3, 4, 10):
        assert should_forward(ttl, cache_hit=False, sender_distance=0.001, random_draw=0.999, config=cfg)
    assert not should_forward(1, cache_hit=False, sender_distance=0.001, random_draw=0.0, config=cfg)


def test_relay_step_fresh_copy_is_not_a_duplicate_and_is_cached():
    cache = MessageCache(256)
    assert relay_step(cache, msg_id=(1, 0)) is False
    assert (1, 0) in cache


def test_relay_step_repeat_is_a_duplicate_and_most_recently_used():
    cache = MessageCache(2)
    assert relay_step(cache, (1, 0)) is False
    assert relay_step(cache, (2, 0)) is False
    # The repeat refreshes (1, 0), so (2, 0) is the next one evicted.
    assert relay_step(cache, (1, 0)) is True
    assert relay_step(cache, (3, 0)) is False
    assert (2, 0) not in cache
    assert (1, 0) in cache and (3, 0) in cache


def test_relay_step_without_a_cache_never_finds_a_duplicate():
    cache = MessageCache(0)
    assert [relay_step(cache, (1, 0)) for _ in range(3)] == [False, False, False]
    assert len(cache) == 0


def _gate_sample(threshold, seed=5, n=20_000):
    """Receipts whose distance is within a few ulps of ``threshold``, plus
    exact zeros and offsets so small that their squares underflow."""
    gen = np.random.default_rng(seed)
    angle = gen.uniform(0.0, 2 * np.pi, n)
    r = threshold * (1.0 + gen.integers(-8, 9, n) * np.finfo(float).eps)
    dx, dy = r * np.cos(angle), r * np.sin(angle)
    dx[:4], dy[:4] = [0.0, 1e-200, 0.0, -1e-170], [0.0, 0.0, 1e-300, 1e-170]
    ttls = gen.integers(1, 4, n)  # 1, 2 and 3 hops left
    receivers = gen.integers(0, 50, n)
    origins = gen.integers(0, 50, n)
    seqs = gen.integers(0, 5, n)
    return ttls, dx, dy, receivers, origins, seqs


def _scalar_gates(ttls, dx, dy, receivers, origins, seqs, cfg):
    return [
        should_forward(
            int(ttl), False, math.hypot(x, y), rng.unit_uniform(cfg.seed, rng.FORWARD, r, o, q), cfg
        )
        for ttl, x, y, r, o, q in zip(ttls, dx, dy, receivers.tolist(), origins.tolist(), seqs.tolist())
    ]


@pytest.mark.parametrize("threshold", [200.0, 0.0, 37.3, 1e-160])
def test_forward_gates_match_the_scalar_gate_at_the_threshold(threshold):
    cfg = SimConfig(forwarding_threshold=threshold, dissemination_prob=0.6, seed=11)
    sample = _gate_sample(threshold)
    ttls, dx, dy = sample[:3]
    gates = forward_gates(*sample, cfg)
    assert gates.dtype == bool
    assert gates.tolist() == _scalar_gates(*sample, cfg)
    # Every outcome occurs, and a ttl of 1 never forwards.
    assert gates.any() and not gates.all()
    assert not gates[ttls == 1].any()
    if threshold > 0:
        # Squares and hypot disagree on some pairs here: a gate that only
        # compared squares would fail the check above.
        squares = dx * dx + dy * dy > threshold * threshold
        hypots = np.array([math.hypot(x, y) > threshold for x, y in zip(dx, dy)])
        assert (squares != hypots).any()


def test_forward_gates_coin_exactly_at_the_probability_does_not_forward():
    ttls, dx, dy = np.array([2, 2]), np.array([5.0, 5.0]), np.zeros(2)
    sample = (ttls, dx, dy, np.array([3, 4]), np.array([1, 1]), np.zeros(2, int))
    # Receipt 0's coin is the probability itself, and a coin must be strictly below it.
    cfg = SimConfig(forwarding_threshold=0.0, seed=2)
    at_coin = cfg.with_updates(dissemination_prob=rng.unit_uniform(cfg.seed, rng.FORWARD, 3, 1, 0))
    gates = forward_gates(*sample, at_coin)
    assert not gates[0]
    assert gates.tolist() == _scalar_gates(*sample, at_coin)


def test_forward_gates_of_a_subset_are_that_subset_of_all_gates():
    # The engine gates only the copies its caches found fresh; a receipt's
    # gate, coin and band decision alike, must not depend on which other
    # receipts are gated with it.
    cfg = SimConfig(forwarding_threshold=37.3, dissemination_prob=0.6, seed=11)
    sample = _gate_sample(37.3, n=4000)
    gen = np.random.default_rng(9)
    # Every other receipt moves anywhere in range; the rest stay in the band.
    sample[1][::2], sample[2][::2] = gen.uniform(-250.0, 250.0, (2, 2000))
    whole = forward_gates(*sample, cfg)
    assert whole.any() and not whole.all()
    for share in (0.0, 0.01, 0.3, 0.7, 1.0):
        subset = np.flatnonzero(gen.random(4000) < share)
        gates = forward_gates(*(col[subset] for col in sample), cfg)
        assert gates.tolist() == whole[subset].tolist(), share
