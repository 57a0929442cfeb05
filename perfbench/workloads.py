"""The benchmark's fixed workloads and the digest that checks their results.

A workload is a set of ``SimConfig`` fields plus a number of distinct
inputs.  One benchmark run with ``--seed n`` simulates input ``k`` of a
workload with the config seed ``1000 * n + k``, so any single run can be
reproduced with ``iotsim simulate --seed 1000n+k`` and the same flags.
Several inputs per run average out how much work one random world happens
to hold; see README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from iotsim.config import SimConfig, SpawnTrigger

SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: int
    fields: dict

    def config_seed(self, seed: int, index: int) -> int:
        if not 0 <= index < self.inputs:
            raise ValueError(f"{self.name} has inputs 0..{self.inputs - 1}, not {index}")
        return SEED_STRIDE * seed + index

    def config(self, config_seed: int) -> SimConfig:
        return SimConfig(seed=config_seed, **self.fields)


def _striped_sessions(steps: int) -> tuple[SpawnTrigger, ...]:
    """One 4-entity session per step, alternating between the two stripes."""
    return tuple(SpawnTrigger(t, t % 2, 4) for t in range(steps))


def _paired_sessions(steps: int) -> tuple[SpawnTrigger, ...]:
    """Every other step, one 4-entity session on each of the two stripes at once."""
    return tuple(SpawnTrigger(t, lp, 4) for t in range(0, steps, 2) for lp in (0, 1))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="gossip",
            why="1 LP, no sessions: all work in the L0 receive path (scan, draws, cache); "
            "the single-threaded baseline",
            inputs=5,
            fields=dict(num_ses=2000, total_timesteps=10, generation_prob=0.01, num_lps=1),
        ),
        Workload(
            name="l1-loopback",
            why="2 LPs, 30 in-process sessions one at a time: most work in L1 (grid build, "
            "event loop); exercises the striped L0 path",
            inputs=3,
            fields=dict(
                num_ses=300,
                total_timesteps=30,
                generation_prob=0.01,
                num_lps=2,
                l1_transport="loopback",
                l1_grid_side=20,
                l1_fine_steps_per_timestep=500,
                l1_schedule=_striped_sessions(30),
            ),
        ),
        Workload(
            name="l1-tcp",
            why="2 LPs, 30 TCP sessions two at a time: cost of spawning a child per session "
            "and its memory; the paper's concurrent-activation shape",
            inputs=2,
            fields=dict(
                num_ses=500,
                total_timesteps=30,
                generation_prob=0.01,
                num_lps=2,
                l1_transport="tcp",
                l1_schedule=_paired_sessions(30),
            ),
        ),
    )
}


def digest(result) -> str:
    """sha256 of a canonical rendering of ``RunResult.fingerprint()``.

    The builtin ``hash()`` is no use here: the fingerprint holds ``str``
    keys, whose hashes are salted per process.
    """
    text = json.dumps(result.fingerprint(), separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()
