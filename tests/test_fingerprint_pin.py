"""Pinned result digests: a refactor that changes what a run computes fails here.

The first two digests were recorded before the option-grammar and
reintegration refactors, the quick-start one from the engine that drew every
coin with the scalar ``rng.unit_uniform``, before the array kernel replaced
those draws, and the TCP one from the engine that started a fresh
interpreter for every session child, before one template process forked
them.  A change that alters them on purpose must say so and re-pin.

``RunResult.fingerprint()`` holds no session counters, so the transcript pins
below cover them: the sha256 of every loopback line, both directions, of
every session.  They were recorded from the engine that still queued one
event per grid beacon, before beacons were counted in closed form.
"""

import hashlib
import json

import pytest

from iotsim.config import SimConfig, SpawnTrigger
from iotsim.level0 import SimEngine, run_simulation

PINS = [
    # 1 LP, gossip only: the L0 receive path.
    (
        SimConfig(num_ses=300, total_timesteps=12, generation_prob=0.05, seed=21),
        "458e1a8597a2cc3691500f3ab3dea731573dce7ac1ddca4aab042df5710a0c73",
    ),
    # 2 LPs over loopback; the trigger at t=5 is on the last step, so its
    # entities return through the end-of-run reintegration, the one at t=2
    # through the next step's migration phase.
    (
        SimConfig(
            num_ses=120,
            num_lps=2,
            total_timesteps=6,
            generation_prob=0.05,
            l1_schedule=(SpawnTrigger(2, 0, 2), SpawnTrigger(5, 1, 2)),
            l1_fine_steps_per_timestep=50,
            l1_transport="loopback",
            seed=22,
        ),
        "cf5943ce6dc12da7f729534eac5de8ffd28b450f7925cbbf886300d31334b528",
    ),
    # The README quick start: 1 LP, gossip only, 100 steps.
    (
        SimConfig(num_ses=1000, total_timesteps=100, generation_prob=0.01, seed=7),
        "fd5c86408264e7b8f22452b9d00052da54821ad7a2e0ce3f1424b9dee93158ea",
    ),
    # 2 LPs over TCP, one spawned child per session: two sessions at once at
    # t=2, and one on the last step.
    (
        SimConfig(
            num_ses=120,
            num_lps=2,
            total_timesteps=6,
            generation_prob=0.05,
            l1_schedule=(SpawnTrigger(2, 0, 2), SpawnTrigger(2, 1, 2), SpawnTrigger(5, 0, 2)),
            l1_fine_steps_per_timestep=50,
            l1_transport="tcp",
            seed=23,
        ),
        "1b7180ccb8a5ee33a323b63bb6ac2b449beed0675a08a7c1c0397ad2cbde918e",
    ),
]


def _digest(config):
    result = run_simulation(config)
    text = json.dumps(result.fingerprint(), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "config,digest", PINS, ids=["gossip-1lp", "loopback-2lp", "quick-start", "tcp-2lp"]
)
def test_fingerprint_matches_pin(config, digest):
    assert _digest(config) == digest


def test_tcp_pin_config_gives_the_same_digest_over_loopback():
    config, digest = PINS[-1]
    assert _digest(config.with_updates(l1_transport="loopback")) == digest


TRANSCRIPT_PINS = [
    # The 2-LP loopback pin's config.
    (
        PINS[1][0],
        "0dc726ecadc6c697e3f6b304637c8f31e76213dd2ddb91728b523dca3241b573",
    ),
    # Shaped like the benchmark's l1-loopback workload: grid side 20, 500
    # fine steps, one 4-entity session per step on alternating stripes.
    (
        SimConfig(
            num_ses=300,
            num_lps=2,
            total_timesteps=4,
            generation_prob=0.01,
            l1_schedule=tuple(SpawnTrigger(t, t % 2, 4) for t in range(4)),
            l1_fine_steps_per_timestep=500,
            l1_grid_side=20,
            l1_transport="loopback",
            seed=1000,
        ),
        "50e41b8ef1a45c243082c242cc8a45e0d8a7de6f7ddfdc64d2147a505b31066f",
    ),
]


@pytest.mark.parametrize(
    "config,digest", TRANSCRIPT_PINS, ids=["loopback-2lp", "l1-loopback-shape"]
)
def test_session_transcripts_match_pin(config, digest):
    result = SimEngine(config, keep_transcripts=True).run()
    h = hashlib.sha256()
    for log in sorted(result.session_logs, key=lambda log: log.instance_id):
        for direction, line in log.transcript:
            h.update(direction.encode() + b" " + line)
    assert h.hexdigest() == digest
