"""Random waypoint mobility on the torus.

A walker's draws come from its own ``rng.ReplayStream``: each leg (waypoint,
then speed) is three uniform draws, taken from a generator rebuilt for that
leg alone, so the walker keeps no generator between legs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .config import SimConfig
from .rng import ReplayStream
from .world import ToroidalWorld

# Uniform draws per leg: waypoint x, waypoint y, speed.
LEG_DRAWS = 3


@dataclass(slots=True)
class RwpState:
    """Current leg of a random-waypoint walker."""

    waypoint_x: float
    waypoint_y: float
    speed: float


def draw_leg(
    world: ToroidalWorld, speed_min: float, speed_max: float, stream: ReplayStream
) -> tuple[float, float, float]:
    """The walker's next leg: waypoint, then speed, from one rebuilt generator."""
    gen = stream.resume(LEG_DRAWS)
    return gen.uniform(0.0, world.width), gen.uniform(0.0, world.height), gen.uniform(speed_min, speed_max)


def initial_rwp_state(
    world: ToroidalWorld, speed_min: float, speed_max: float, stream: ReplayStream
) -> RwpState:
    return RwpState(*draw_leg(world, speed_min, speed_max, stream))


def rwp_step(
    world: ToroidalWorld,
    x: float,
    y: float,
    state: RwpState,
    speed_min: float,
    speed_max: float,
    stream: ReplayStream,
) -> tuple[float, float]:
    """Advance one timestep toward the waypoint; mutates ``state`` on arrival.

    Movement follows the direct (unwrapped) segment to the waypoint, one speed
    unit of distance per timestep.  On arrival the walker snaps to the
    waypoint and immediately draws a new leg (waypoint and speed) from
    ``stream``, with no pause.  Overshoot within a step is not carried over.
    Only an arrival touches ``stream``.
    """
    dx = state.waypoint_x - x
    dy = state.waypoint_y - y
    dist = math.hypot(dx, dy)
    if dist <= state.speed:
        nx, ny = state.waypoint_x, state.waypoint_y
        state.waypoint_x, state.waypoint_y, state.speed = draw_leg(world, speed_min, speed_max, stream)
        return world.wrap(nx, ny)
    return world.wrap(x + state.speed * dx / dist, y + state.speed * dy / dist)


def assign_mobility(config: SimConfig, ids: list[int], rng: random.Random) -> set[int]:
    """Pick which entities move; the rest stay static for the whole run."""
    count = int(math.floor(config.mobile_fraction * len(ids)))
    return set(rng.sample(ids, count))
