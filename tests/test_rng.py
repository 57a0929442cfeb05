"""Deterministic draw helpers."""

import random

import numpy as np
import pytest

from iotsim import rng


def test_unit_uniform_is_a_pure_function():
    assert rng.unit_uniform(1, 2, 3) == rng.unit_uniform(1, 2, 3)
    assert rng.mix(7, 8) == rng.mix(7, 8)


def test_unit_uniform_range_and_key_sensitivity():
    seen = set()
    for i in range(5000):
        u = rng.unit_uniform(42, rng.GENERATION, i)
        assert 0.0 <= u < 1.0
        seen.add(u)
    # A 53-bit draw space makes collisions over 5000 keys vanishingly rare.
    assert len(seen) == 5000


def test_unit_uniform_moments():
    n = 100_000
    draws = [rng.unit_uniform(99, rng.FORWARD, i) for i in range(n)]
    mean = sum(draws) / n
    var = sum((d - mean) ** 2 for d in draws) / n
    assert abs(mean - 0.5) < 0.005
    assert abs(var - 1.0 / 12.0) < 0.005


def test_tag_separation():
    # Same ids under different stream tags must not correlate.
    a = [rng.unit_uniform(5, rng.GENERATION, i) for i in range(1000)]
    b = [rng.unit_uniform(5, rng.FORWARD, i) for i in range(1000)]
    matches = sum(1 for x, y in zip(a, b) if x == y)
    assert matches == 0


def test_substream_is_reproducible_and_isolated():
    s1 = rng.substream(3, rng.MOBILITY, 17)
    s2 = rng.substream(3, rng.MOBILITY, 17)
    s3 = rng.substream(3, rng.MOBILITY, 18)
    seq1 = [s1.random() for _ in range(20)]
    seq2 = [s2.random() for _ in range(20)]
    seq3 = [s3.random() for _ in range(20)]
    assert seq1 == seq2
    assert seq1 != seq3
    assert isinstance(s1, random.Random)


def test_negative_keys_are_accepted():
    assert 0.0 <= rng.unit_uniform(-1, -99999) < 1.0


@pytest.mark.parametrize("seed", [0, -7, 2**64 - 1])
def test_unit_uniforms_equal_scalar_draws_bit_for_bit(seed):
    # Keys 0 and -1, the int64 extremes and ordinary ids: 3 x 4 x 10004 rows.
    i64 = np.iinfo(np.int64)
    ids = np.concatenate([np.arange(-1, 10_000), [i64.min, i64.max, -2, 2**40]]).astype(np.int64)
    keys = ids.tolist()
    # Forward coins: receiver id, message origin, message sequence number.
    origins, seqs = ids[::-1].copy(), ids % 5
    got = rng.unit_uniforms((seed, rng.FORWARD), ids, origins, seqs).tolist()
    want = [
        rng.unit_uniform(seed, rng.FORWARD, r, o, q)
        for r, o, q in zip(keys, origins.tolist(), seqs.tolist())
    ]
    assert got == want
    # Generation coins: entity id and a timestep shared by every row.
    for t in (0, -1, 899):
        got = rng.unit_uniforms((seed, rng.GENERATION), ids, t).tolist()
        assert got == [rng.unit_uniform(seed, rng.GENERATION, eid, t) for eid in keys]


def test_unit_uniforms_of_an_empty_column_is_empty():
    out = rng.unit_uniforms((3, rng.GENERATION), np.array([], dtype=np.int64), 4)
    assert out.dtype == np.float64 and out.shape == (0,)
