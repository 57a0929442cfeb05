"""Torus geometry and the disc query against a brute-force oracle."""

import math
import random

import numpy as np
import pytest

from iotsim.world import ToroidalWorld


def _distance(world, a, b):
    """Torus distance from a to b, from the offsets the disc query reports."""
    hits, dx, dy = world.disc(np.array([b[0]]), np.array([b[1]]), a[0], a[1], math.inf)
    assert hits.tolist() == [0]
    return math.hypot(dx[0], dy[0])


def _in_disc(world, positions, center_id, radius):
    """Ids within ``radius`` of ``center_id`` by the disc query, excluding itself."""
    ids = list(positions)
    xs = np.array([positions[i][0] for i in ids])
    ys = np.array([positions[i][1] for i in ids])
    cx, cy = positions[center_id]
    hits, _, _ = world.disc(xs, ys, cx, cy, radius)
    return {ids[k] for k in hits.tolist()} - {center_id}


def test_wrap_examples():
    world = ToroidalWorld(100.0, 100.0)
    assert world.wrap(105.0, -3.0) == (5.0, 97.0)
    assert world.wrap(0.0, 0.0) == (0.0, 0.0)
    assert world.wrap(100.0, 100.0) == (0.0, 0.0)


def test_wrap_stays_in_half_open_box():
    world = ToroidalWorld(100.0, 50.0)
    rng = random.Random(1)
    for _ in range(2000):
        x = rng.uniform(-1e4, 1e4)
        y = rng.uniform(-1e4, 1e4)
        wx, wy = world.wrap(x, y)
        assert 0.0 <= wx < 100.0
        assert 0.0 <= wy < 50.0
    # Tiny negatives must not land exactly on the extent.
    wx, wy = world.wrap(-1e-18, -1e-18)
    assert 0.0 <= wx < 100.0 and 0.0 <= wy < 50.0


def test_distance_examples():
    world = ToroidalWorld(100.0, 100.0)
    assert _distance(world, (1.0, 1.0), (99.0, 99.0)) == pytest.approx(math.sqrt(8.0))
    assert _distance(world, (10.0, 10.0), (40.0, 50.0)) == 50.0
    assert _distance(world, (5.0, 5.0), (5.0, 5.0)) == 0.0


def test_distance_symmetry_and_wrap_invariance():
    world = ToroidalWorld(73.0, 41.0)
    rng = random.Random(7)
    for _ in range(500):
        a = (rng.uniform(0, 73), rng.uniform(0, 41))
        b = (rng.uniform(0, 73), rng.uniform(0, 41))
        d1 = _distance(world, a, b)
        assert d1 == _distance(world, b, a)
        shifted = world.wrap(a[0] + 73.0, a[1] - 41.0)
        assert _distance(world, shifted, b) == pytest.approx(d1)
        assert d1 <= math.hypot(73.0 / 2, 41.0 / 2) + 1e-9


def test_invalid_world():
    with pytest.raises(ValueError):
        ToroidalWorld(0.0, 10.0)
    with pytest.raises(ValueError):
        ToroidalWorld(10.0, -1.0)


def _brute_neighbors(world, positions, center_id, radius):
    cx, cy = positions[center_id]
    out = set()
    for i, (x, y) in positions.items():
        if i == center_id:
            continue
        dx = min(abs(x - cx), world.width - abs(x - cx))
        dy = min(abs(y - cy), world.height - abs(y - cy))
        if dx * dx + dy * dy <= radius * radius:
            out.add(i)
    return out


def test_disc_matches_brute_force():
    # 1000 random configurations, boundary inclusive, center excluded.
    rng = random.Random(2024)
    for trial in range(1000):
        w = rng.uniform(20.0, 200.0)
        h = rng.uniform(20.0, 200.0)
        world = ToroidalWorld(w, h)
        n = rng.randrange(2, 26)
        positions = {i: (rng.uniform(0, w), rng.uniform(0, h)) for i in range(n)}
        radius = rng.uniform(0.5, max(w, h))
        center = rng.randrange(n)
        got = _in_disc(world, positions, center, radius)
        want = _brute_neighbors(world, positions, center, radius)
        assert got == want, f"trial {trial}: {got ^ want}"


def test_disc_inclusive_boundary():
    world = ToroidalWorld(100.0, 100.0)
    positions = {0: (10.0, 10.0), 1: (13.0, 14.0), 2: (10.0, 15.1)}
    # id 1 sits at exactly distance 5.
    assert _in_disc(world, positions, 0, 5.0) == {1}


def test_disc_wraps_and_reports_shortest_offsets():
    world = ToroidalWorld(100.0, 100.0)
    xs = np.array([1.0, 99.0, 50.0])
    ys = np.array([1.0, 99.0, 50.0])
    hits, dx, dy = world.disc(xs, ys, 0.0, 0.0, 5.0)
    assert hits.tolist() == [0, 1]
    assert dx.tolist() == dy.tolist() == [1.0, 1.0]
    hits, _, _ = world.disc(xs, ys, 50.0, 50.0, 1.0)
    assert hits.tolist() == [2]
