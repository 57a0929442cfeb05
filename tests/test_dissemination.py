"""Message cache eviction and the gossip forwarding gate."""

import pytest

from iotsim.config import SimConfig
from iotsim.dissemination import MessageCache, generate_message, relay_step, should_forward


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


def test_relay_step_fresh_copy_is_delivered_and_forwarded():
    cfg = SimConfig(dissemination_prob=1.0, forwarding_threshold=0.0)
    cache = MessageCache(256)
    duplicate, forward = relay_step(
        cache, msg_id=(1, 0), ttl_remaining=4, sender_distance=10.0, random_draw=0.2, config=cfg
    )
    assert not duplicate
    assert forward


def test_relay_step_duplicate_neither_delivers_nor_forwards():
    cfg = SimConfig(dissemination_prob=1.0, forwarding_threshold=0.0)
    cache = MessageCache(256)
    relay_step(cache, (1, 0), 4, 10.0, 0.2, cfg)
    duplicate, forward = relay_step(cache, (1, 0), 4, 10.0, 0.2, cfg)
    assert duplicate
    assert not forward


def test_relay_step_delivery_without_forward():
    cfg = SimConfig(dissemination_prob=0.6, forwarding_threshold=200.0)
    cache = MessageCache(256)
    # Near sender: delivered but suppressed.
    assert relay_step(cache, (1, 0), 4, sender_distance=50.0, random_draw=0.1, config=cfg) == (False, False)
    # The receipt still populated the cache.
    duplicate, _ = relay_step(cache, (1, 0), 4, sender_distance=300.0, random_draw=0.1, config=cfg)
    assert duplicate
