"""Two-level IoT co-simulation.

A coarse time-stepped agent simulation (entities gossiping over proximity on
a toroidal plane, partitioned across logical processes) that can delegate
entities to fine-grained discrete-event instances (a wireless mesh with
on-demand routing) and reintegrate them, one coarse timestep at a time.

The public names below are imported on first use, so running one submodule
(``python -m iotsim.level1``) does not load the coarse engine or numpy.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "ConfigError": "config",
    "SimConfig": "config",
    "SpawnTrigger": "config",
    "RunResult": "level0",
    "SimEngine": "level0",
    "SimulationError": "level0",
    "TimestepReport": "level0",
    "run_simulation": "level0",
    "ToroidalWorld": "world",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value
