"""Simulated entities and deterministic world population."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import rng
from .config import SimConfig
from .dissemination import MessageCache
from .mobility import RwpState, assign_mobility, initial_rwp_state
from .world import ToroidalWorld

EntityId = int

KIND_STATIC = "static"
KIND_MOBILE = "mobile"


@dataclass(slots=True)
class Entity:
    id: EntityId
    x: float
    y: float
    kind: str
    cache: MessageCache
    mobility: Optional[RwpState] = None
    mob_rng: Optional[rng.ReplayStream] = None
    next_seq: int = 0


def make_cache(config: SimConfig) -> MessageCache:
    # Deliver-once accounting needs full duplicate knowledge regardless of
    # the configured cache size.
    return MessageCache(None if config.deliver_once else config.cache_capacity)


def make_entities(config: SimConfig, world: ToroidalWorld) -> list[Entity]:
    """Populate the world; identical output for any LP count.

    Placement and mobility assignment come from a single setup stream
    consumed in id order; each walker then owns a private stream keyed by its
    id, so later draws never depend on what other entities did.  The walker's
    first leg is drawn here, from a generator that is then dropped: the
    entity keeps only the stream's seed and draw count.
    """
    setup = rng.substream(config.seed, rng.SETUP)
    ids = list(range(config.num_ses))
    positions = [(setup.uniform(0.0, world.width), setup.uniform(0.0, world.height)) for _ in ids]
    mobile_ids = assign_mobility(config, ids, setup)

    entities: list[Entity] = []
    for eid in ids:
        x, y = positions[eid]
        if eid in mobile_ids:
            stream = rng.ReplayStream(rng.mix(config.seed, rng.MOBILITY, eid))
            state = initial_rwp_state(world, config.speed_min, config.speed_max, stream)
            entities.append(Entity(eid, x, y, KIND_MOBILE, make_cache(config), state, stream))
        else:
            entities.append(Entity(eid, x, y, KIND_STATIC, make_cache(config)))
    return entities
