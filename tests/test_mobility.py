"""Random waypoint stepping and the mobile/static split."""

import math
import random
import tracemalloc

import pytest

from iotsim import rng as rng_mod
from iotsim.config import SimConfig
from iotsim.mobility import LEG_DRAWS, RwpState, assign_mobility, initial_rwp_state, rwp_step
from iotsim.model import Entity, make_entities
from iotsim.rng import ReplayStream
from iotsim.world import ToroidalWorld


def test_step_covers_speed_distance_en_route():
    world = ToroidalWorld(1000.0, 1000.0)
    state = RwpState(waypoint_x=500.0, waypoint_y=500.0, speed=3.0)
    rng = ReplayStream(0)
    x, y = 100.0, 100.0
    for _ in range(20):
        nx, ny = rwp_step(world, x, y, state, 1.0, 14.0, rng)
        assert math.hypot(nx - x, ny - y) == pytest.approx(3.0)
        x, y = nx, ny
    # Still heading for the same waypoint, so the leg was not redrawn.
    assert (state.waypoint_x, state.waypoint_y) == (500.0, 500.0)


def test_arrival_snaps_and_redraws_leg():
    world = ToroidalWorld(100.0, 100.0)
    state = RwpState(waypoint_x=12.0, waypoint_y=10.0, speed=5.0)
    rng = ReplayStream(42)
    nx, ny = rwp_step(world, 10.0, 10.0, state, 1.0, 14.0, rng)
    assert (nx, ny) == (12.0, 10.0)
    assert (state.waypoint_x, state.waypoint_y) != (12.0, 10.0)
    assert 1.0 <= state.speed <= 14.0


def test_positions_stay_wrapped_over_long_runs():
    world = ToroidalWorld(50.0, 80.0)
    rng = ReplayStream(7)
    state = initial_rwp_state(world, 1.0, 14.0, rng)
    x, y = 1.0, 1.0
    for _ in range(5000):
        x, y = rwp_step(world, x, y, state, 1.0, 14.0, rng)
        assert 0.0 <= x < 50.0
        assert 0.0 <= y < 80.0


def test_walker_eventually_reaches_each_waypoint():
    world = ToroidalWorld(200.0, 200.0)
    rng = ReplayStream(3)
    state = initial_rwp_state(world, 2.0, 6.0, rng)
    x, y = 0.0, 0.0
    arrivals = 0
    last_wp = (state.waypoint_x, state.waypoint_y)
    for _ in range(10000):
        x, y = rwp_step(world, x, y, state, 2.0, 6.0, rng)
        wp = (state.waypoint_x, state.waypoint_y)
        if wp != last_wp:
            arrivals += 1
            last_wp = wp
    assert arrivals > 10


def test_step_is_deterministic_per_substream():
    world = ToroidalWorld(100.0, 100.0)

    def run():
        rng = ReplayStream(123)
        state = initial_rwp_state(world, 1.0, 14.0, rng)
        x, y = 5.0, 5.0
        path = []
        for _ in range(100):
            x, y = rwp_step(world, x, y, state, 1.0, 14.0, rng)
            path.append((x, y))
        return path

    assert run() == run()


def test_assign_mobility_count_and_determinism():
    ids = list(range(40))
    cfg = SimConfig(num_ses=40, mobile_fraction=0.5)
    picked = assign_mobility(cfg, ids, random.Random(9))
    assert len(picked) == 20
    assert picked <= set(ids)
    assert picked == assign_mobility(cfg, ids, random.Random(9))

    cfg = SimConfig(num_ses=40, mobile_fraction=0.33)
    assert len(assign_mobility(cfg, ids, random.Random(9))) == math.floor(0.33 * 40)

    cfg = SimConfig(num_ses=40, mobile_fraction=0.0)
    assert assign_mobility(cfg, ids, random.Random(9)) == set()

    cfg = SimConfig(num_ses=40, mobile_fraction=1.0)
    assert assign_mobility(cfg, ids, random.Random(9)) == set(ids)


class _Held:
    """A walker's stream as it was once kept: one generator, never rebuilt."""

    def __init__(self, seed):
        self.gen = random.Random(seed)

    def resume(self, n):
        return self.gen


def test_replayed_stream_walks_like_a_held_generator():
    # A small torus and fast walkers make legs a few steps long.
    world = ToroidalWorld(30.0, 20.0)
    seed = rng_mod.mix(5, rng_mod.MOBILITY, 11)
    held, replayed = _Held(seed), ReplayStream(seed)
    a = initial_rwp_state(world, 2.0, 9.0, held)
    b = initial_rwp_state(world, 2.0, 9.0, replayed)
    xa = xb = ya = yb = 0.0
    for _ in range(4000):
        xa, ya = rwp_step(world, xa, ya, a, 2.0, 9.0, held)
        xb, yb = rwp_step(world, xb, yb, b, 2.0, 9.0, replayed)
        assert (xb, yb) == (xa, ya)
        assert (b.waypoint_x, b.waypoint_y, b.speed) == (a.waypoint_x, a.waypoint_y, a.speed)
    assert replayed.draws // LEG_DRAWS >= 500
    # The replayed stream is where the held generator is: the next draws agree.
    assert replayed.resume(1).random() == held.gen.random()


def test_make_entities_keeps_no_generator_per_entity():
    cfg = SimConfig(num_ses=2000, seed=3)
    world = cfg.make_world()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        entities = make_entities(cfg, world)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / len(entities) < 1024
    for e in entities:
        assert not any(isinstance(getattr(e, f), random.Random) for f in Entity.__slots__)
        assert isinstance(e.mob_rng, ReplayStream) == (e.kind == "mobile")
