"""Run configuration and its option grammar: CLI flags, key=value files, sweep plans."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterator

from .world import ToroidalWorld


class ConfigError(ValueError):
    pass


# A field's annotation -> the types its value may have: an int is a float too,
# but a bool, although an int subclass, is neither.
_FIELD_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


def _check_types(obj: object) -> None:
    """Raise ``ConfigError`` unless every int, float, bool and str field of ``obj`` holds one."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        types = _FIELD_TYPES.get(f.type)
        if types and (not isinstance(value, types) or (isinstance(value, bool) and f.type != "bool")):
            raise ConfigError(f"{f.name} must be {f.type}, not {value!r}")


@dataclass(frozen=True, slots=True, order=True)
class SpawnTrigger:
    """Request to delegate ``entity_count`` entities of one LP at a timestep."""

    at_timestep: int
    lp_id: int
    entity_count: int

    def __post_init__(self) -> None:
        _check_types(self)

    @classmethod
    def parse(cls, text: str) -> "SpawnTrigger":
        """Parse the CLI form ``timestep:lp:count``."""
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad trigger {text!r}, expected t:lp:count")
        try:
            t, lp, n = (int(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"bad trigger {text!r}: {exc}") from None
        return cls(t, lp, n)


@dataclass(frozen=True, slots=True)
class SimConfig:
    num_ses: int = 1000
    mobile_fraction: float = 0.5
    speed_min: float = 1.0
    speed_max: float = 14.0
    interaction_range: float = 250.0
    forwarding_threshold: float = 200.0
    density: float = 1e-4
    total_timesteps: int = 900
    ttl: int = 4
    dissemination_prob: float = 0.6
    cache_capacity: int = 256
    generation_prob: float = 0.05
    deliver_once: bool = False
    num_lps: int = 1
    l1_schedule: tuple[SpawnTrigger, ...] = ()
    l1_fine_steps_per_timestep: int = 100
    l1_grid_side: int = 10
    l1_transport: str = "tcp"
    seed: int = 1

    def __post_init__(self) -> None:
        _check_types(self)
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, not {value!r}")
        if self.num_ses < 1:
            raise ConfigError("num_ses must be >= 1")
        if not 0.0 <= self.mobile_fraction <= 1.0:
            raise ConfigError("mobile_fraction must be in [0, 1]")
        if not 0 < self.speed_min <= self.speed_max:
            raise ConfigError("need 0 < speed_min <= speed_max")
        if self.interaction_range <= 0:
            raise ConfigError("interaction_range must be positive")
        if self.forwarding_threshold < 0:
            raise ConfigError("forwarding_threshold must be >= 0")
        if self.density <= 0:
            raise ConfigError("density must be positive")
        if not math.isfinite(self.world_side):
            raise ConfigError(f"world_side must be finite: density {self.density!r} is too small")
        if self.total_timesteps < 1:
            raise ConfigError("total_timesteps must be >= 1")
        if self.ttl < 0:
            raise ConfigError("ttl must be >= 0")
        if not 0.0 <= self.dissemination_prob <= 1.0:
            raise ConfigError("dissemination_prob must be in [0, 1]")
        if self.cache_capacity < 0:
            raise ConfigError("cache_capacity must be >= 0 (0 disables the cache)")
        if not 0.0 <= self.generation_prob <= 1.0:
            raise ConfigError("generation_prob must be in [0, 1]")
        if self.num_lps < 1:
            raise ConfigError("num_lps must be >= 1")
        if self.num_lps > self.num_ses:
            raise ConfigError("num_lps must not exceed num_ses")
        if self.l1_fine_steps_per_timestep < 1:
            raise ConfigError("l1_fine_steps_per_timestep must be >= 1")
        if self.l1_grid_side < 2:
            raise ConfigError("l1_grid_side must be >= 2")
        if self.l1_transport not in ("tcp", "loopback"):
            raise ConfigError("l1_transport must be 'tcp' or 'loopback'")
        try:
            schedule = tuple(t if isinstance(t, SpawnTrigger) else SpawnTrigger(*t) for t in self.l1_schedule)
        except TypeError:
            raise ConfigError(f"bad l1_schedule {self.l1_schedule!r}, triggers are (t, lp, count)") from None
        object.__setattr__(self, "l1_schedule", schedule)
        for trig in self.l1_schedule:
            if not 0 <= trig.at_timestep < self.total_timesteps:
                raise ConfigError(f"trigger timestep {trig.at_timestep} outside run")
            if not 0 <= trig.lp_id < self.num_lps:
                raise ConfigError(f"trigger lp {trig.lp_id} outside 0..{self.num_lps - 1}")
            if trig.entity_count < 1:
                raise ConfigError("trigger entity_count must be >= 1")

    @property
    def world_side(self) -> float:
        """Square torus side from the fixed entity density."""
        return math.sqrt(self.num_ses / self.density)

    def make_world(self) -> ToroidalWorld:
        side = self.world_side
        return ToroidalWorld(side, side)

    def with_updates(self, **kw) -> "SimConfig":
        return replace(self, **kw)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"bad boolean {text!r}")


def _parse_schedule(text: str) -> tuple[SpawnTrigger, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(SpawnTrigger.parse(part) for part in text.split(","))


# Canonical option names, shared by CLI flags, config files and sweep plans.
# name -> (SimConfig field, parser)
OPTIONS: dict[str, tuple[str, object]] = {
    "ses": ("num_ses", int),
    "mobile-fraction": ("mobile_fraction", float),
    "speed-min": ("speed_min", float),
    "speed-max": ("speed_max", float),
    "range": ("interaction_range", float),
    "threshold": ("forwarding_threshold", float),
    "density": ("density", float),
    "timesteps": ("total_timesteps", int),
    "ttl": ("ttl", int),
    "prob": ("dissemination_prob", float),
    "cache": ("cache_capacity", int),
    "gen-prob": ("generation_prob", float),
    "deliver-once": ("deliver_once", _parse_bool),
    "lps": ("num_lps", int),
    "l1-schedule": ("l1_schedule", _parse_schedule),
    "fine-steps": ("l1_fine_steps_per_timestep", int),
    "grid-side": ("l1_grid_side", int),
    "transport": ("l1_transport", str),
    "seed": ("seed", int),
}


# SimConfig field -> option name, the inverse of OPTIONS.
OPTION_NAMES = {field_name: name for name, (field_name, _) in OPTIONS.items()}


def parse_option(name: str, text: str, source: str, options: dict = OPTIONS) -> tuple[str, object]:
    """Parse ``text`` as the value of option ``name``: (SimConfig field, value).

    ``source`` says where the text came from (``--flag`` or ``file:line``)
    and prefixes every error.
    """
    if name not in options:
        raise ConfigError(f"{source}: unknown option {name!r}")
    field_name, parser = options[name]
    try:
        return field_name, parser(text.strip())
    except ValueError as exc:  # ConfigError included
        raise ConfigError(f"{source}: {exc}") from None


def read_key_values(path: str | Path) -> Iterator[tuple[str, str, str]]:
    """Yield (key, value, "path:line") per key=value line; blank lines and
    #-comments are skipped, and a key given twice is refused."""
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key = key.strip()
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: {key!r} is already given on line {seen[key]}")
        seen[key] = lineno
        yield key, value.strip(), f"{path}:{lineno}"


def read_config_file(path: str | Path) -> dict[str, object]:
    """Parse a key=value file of option names into SimConfig field updates."""
    return dict(parse_option(key, value, where) for key, value, where in read_key_values(path))


def config_to_file_text(config: SimConfig) -> str:
    """Render a config as the key=value file format (round-trips)."""
    lines = []
    for f in fields(SimConfig):
        name = OPTION_NAMES[f.name]
        value = getattr(config, f.name)
        if f.name == "l1_schedule":
            rendered = ",".join(f"{t.at_timestep}:{t.lp_id}:{t.entity_count}" for t in value)
        elif isinstance(value, bool):
            rendered = "true" if value else "false"
        else:
            rendered = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{name}={rendered}")
    return "\n".join(lines) + "\n"
