"""Torus geometry and the cell-list join against brute-force oracles."""

import math
import random

import numpy as np
import pytest

from iotsim.world import ToroidalWorld


def _disc(world, xs, ys, cx, cy, radius):
    """Points within ``radius`` of (cx, cy), with their |dx| and |dy|: ``join`` with one centre."""
    ((_, hits, dx, dy),) = world.join(np.array([cx]), np.array([cy]), xs, ys, radius)
    return hits, dx, dy


def _distance(world, a, b):
    """Torus distance from a to b, from the offsets the disc query reports."""
    hits, dx, dy = _disc(world, np.array([b[0]]), np.array([b[1]]), a[0], a[1], math.inf)
    assert hits.tolist() == [0]
    return math.hypot(dx[0], dy[0])


def _in_disc(world, positions, center_id, radius):
    """Ids within ``radius`` of ``center_id`` by the disc query, excluding itself."""
    ids = list(positions)
    xs = np.array([positions[i][0] for i in ids])
    ys = np.array([positions[i][1] for i in ids])
    cx, cy = positions[center_id]
    hits, _, _ = _disc(world, xs, ys, cx, cy, radius)
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
    hits, dx, dy = _disc(world, xs, ys, 0.0, 0.0, 5.0)
    # The join promises no order among one centre's points.
    assert sorted(zip(hits.tolist(), dx.tolist(), dy.tolist())) == [(0, 1.0, 1.0), (1, 1.0, 1.0)]
    hits, _, _ = _disc(world, xs, ys, 50.0, 50.0, 1.0)
    assert hits.tolist() == [2]


def _brute_pairs(world, cxs, cys, xs, ys, radius):
    """(centre, point, |dx|, |dy|) rows in range, by the join's expressions as scalars."""
    rows = []
    for c, (cx, cy) in enumerate(zip(cxs, cys)):
        for p, (x, y) in enumerate(zip(xs, ys)):
            dx = abs(x - cx)
            dx = min(dx, world.width - dx)
            dy = abs(y - cy)
            dy = min(dy, world.height - dy)
            if dx * dx + dy * dy <= radius * radius:
                rows.append((c, p, dx, dy))
    return rows


def _joined(world, cxs, cys, xs, ys, radius, budget=math.inf):
    chunks = list(world.join(np.array(cxs), np.array(cys), np.array(xs), np.array(ys), radius, budget))
    rows = [row for chunk in chunks for row in zip(*(col.tolist() for col in chunk))]
    return rows, chunks


def _assert_centre_order_and_pairs(rows, brute, label):
    """The join's contract: rows grouped by centre, centres ascending, and
    exactly the brute-force pairs, each once, with the same |dx| and |dy| bit
    for bit; the order of one centre's points is unspecified."""
    centres = [c for c, _, _, _ in rows]
    assert centres == sorted(centres), label
    assert sorted(rows) == brute, label


def _join_case(rng, trial):
    """A world, centres and points that hit the join's edge cases."""
    world = ToroidalWorld(float(rng.randrange(20, 200)), float(rng.randrange(20, 200)))
    w, h = world.width, world.height
    # Cell sides that do not divide the world, fewer than 5 cells (3-4 along
    # x when trial % 8 == 5, which fall back to one), R >= side, R = inf.
    few = rng.uniform(w / 3, w) if trial % 8 == 1 else rng.uniform(0.41 * w, 0.66 * w)
    radius = [rng.uniform(1.0, 20.0), few, max(w, h) + rng.uniform(0, 5), math.inf][trial % 4]
    if trial % 8 == 0:
        radius = float(rng.randrange(5, 15, 5))  # integral, so 3-4-5 offsets are exact
    cxs, cys, xs, ys = [], [], [], []
    for _ in range(rng.randrange(1, 12)):
        cx, cy = float(rng.randrange(int(w))), float(rng.randrange(int(h)))
        cxs.append(cx)
        cys.append(cy)
        if trial % 8 == 0:
            k = radius / 5
            # Exactly R away: along each axis and on 3-4-5 diagonals, wrapped
            # across a seam when the centre is near one.
            for px, py in [(cx + radius, cy), (cx, cy - radius), (cx + 3 * k, cy + 4 * k), (cx - 4 * k, cy - 3 * k)]:
                x, y = world.wrap(px, py)
                xs.append(x)
                ys.append(y)
    # Both seams, points sharing a cell or a position, and random fill.
    for x, y in [(0.0, 0.0), (w - 1e-9, 0.0), (0.0, h - 1e-9), (w - 1e-9, h - 1e-9)]:
        xs.append(x)
        ys.append(y)
    for _ in range(rng.randrange(0, 120)):
        x, y = rng.uniform(0, w), rng.uniform(0, h)
        copies = rng.randrange(1, 3)
        xs.extend([x] * copies)
        ys.extend([y] * copies)
    return world, cxs, cys, xs, ys, radius


def test_join_matches_brute_force_and_disc():
    rng = random.Random(14)
    exact_hits = 0
    for trial in range(400):
        world, cxs, cys, xs, ys, radius = _join_case(rng, trial)
        rows, _ = _joined(world, cxs, cys, xs, ys, radius)
        _assert_centre_order_and_pairs(rows, _brute_pairs(world, cxs, cys, xs, ys, radius), f"trial {trial}")
        exact_hits += sum(math.hypot(dx, dy) == radius for _, _, dx, dy in rows)
    assert exact_hits > 100  # the boundary was exercised, and it is inclusive


def test_join_chunks_concatenate_to_one_join():
    rng = random.Random(15)
    for trial in range(100):
        world, cxs, cys, xs, ys, radius = _join_case(rng, trial)
        whole, chunks = _joined(world, cxs, cys, xs, ys, radius)
        assert len(chunks) == 1
        for budget in (1, 7, len(xs), math.inf):
            rows, chunks = _joined(world, cxs, cys, xs, ys, radius, budget)
            assert rows == whole, f"trial {trial}, budget {budget}"
            # Chunks cover consecutive centres; no centre is split.
            centres = [sorted(set(chunk[0].tolist())) for chunk in chunks]
            flat = [c for cs in centres for c in cs]
            assert flat == sorted(set(flat))
            # A chunk's pairs are some of its candidates, so a chunk of several
            # centres holds no more pairs than the budget.
            for chunk, cs in zip(chunks, centres):
                if len(cs) > 1:
                    assert len(chunk[0]) <= budget


def test_join_keeps_pairs_at_exactly_r_across_cell_edges():
    # Sides that are whole multiples of R/2 would give cells exactly R/2
    # wide; centres a few ulps either side of such a cell edge, with points
    # exactly R away, catch a cell list that lets rounding put a pair three
    # cells apart.  Some sides are odd multiples of R/2.
    for side, radius in [
        (100.0, 10.0),
        (100.0, 100.0 / 7),
        (3.0, 0.1),
        (64.0, 8.0),
        (100.0, 40.0),
        (30.0, 4.0),
        (6.0, 4.0),
    ]:
        world = ToroidalWorld(side, side)
        cxs, cys, xs, ys = [], [], [], []
        for k in range(int(2 * side / radius)):
            for ulps in range(-3, 4):
                c = k * radius / 2
                for _ in range(abs(ulps)):
                    c = math.nextafter(c, math.copysign(math.inf, ulps))
                c = world.wrap(c, 0.5)[0]
                cxs.append(c)
                cys.append(0.5)
                for px in (c + radius, c - radius):
                    xs.append(world.wrap(px, 0.5)[0])
                    ys.append(0.5)
        rows, _ = _joined(world, cxs, cys, xs, ys, radius)
        _assert_centre_order_and_pairs(rows, _brute_pairs(world, cxs, cys, xs, ys, radius), (side, radius))
