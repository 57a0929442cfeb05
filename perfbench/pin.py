"""Write digests.json: the result digest of every workload input for some seeds.

Usage (from the repository root): python3 perfbench/pin.py 0 10

Pins benchmark seeds FIRST..LAST.  Re-pin only in a change that alters
simulation results on purpose and says so.
"""

from __future__ import annotations

import json
import os
import sys

import run as runner

sys.path.insert(0, str(runner.SRC))
os.environ.update(runner.child_env())

from iotsim import run_simulation  # noqa: E402

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    first, last = (int(a) for a in argv)
    pins: dict[str, dict[str, str]] = {}
    for name, workload in sorted(workloads.WORKLOADS.items()):
        for seed in range(first, last + 1):
            for index in range(workload.inputs):
                config_seed = workload.config_seed(seed, index)
                digest = workloads.digest(run_simulation(workload.config(config_seed)))
                pins.setdefault(name, {})[str(config_seed)] = digest
                print(name, config_seed, digest, flush=True)
    (runner.HERE / "digests.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
