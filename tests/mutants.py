"""Mutants of the engine that the fast tests must kill.

Each row names a source file under ``src/iotsim``, an exact anchor string
in it, the text that replaces the anchor, and the fast tests that must
fail once it is replaced.  The script copies the package to a temporary
directory, applies one row at a time, runs that row's tests with ``-x``
against the copy and prints a kill table.  It exits 1 if any mutant
survives.  Pytest does not collect this file; ``test_mutant_table.py``
checks that every anchor occurs exactly once, so a rewrite that moves an
anchor has to update its row in the same change.

Run from the repository root::

    python tests/mutants.py            # every row
    python tests/mutants.py sort join  # rows whose name contains a word
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/iotsim
    anchor: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "deliver skips the canonical sort",
        "level0.py",
        "order = np.lexsort((columns[3], columns[2], columns[1]))",
        "order = np.arange(len(columns[0]))",
        ("tests/test_reference_l0.py::test_engine_matches_the_scalar_reference",),
    ),
    Mutant(
        "canonical sort keys the sender first",
        "level0.py",
        "order = np.lexsort((columns[3], columns[2], columns[1]))",
        "order = np.lexsort((columns[2], columns[1], columns[3]))",
        ("tests/test_reference_l0.py::test_engine_matches_the_scalar_reference",),
    ),
    Mutant(
        "join yields a chunk's centres in descending order",
        "world.py",
        "hit = np.flatnonzero(dx * dx + dy * dy <= r2)",
        "hit = np.flatnonzero(dx * dx + dy * dy <= r2)[::-1]",
        ("tests/test_world.py::test_join_matches_brute_force_and_disc",),
    ),
    Mutant(
        "join cells without a margin",
        "world.py",
        "_CELL_MARGIN = 1.0 + 1e-9",
        "_CELL_MARGIN = 1.0",
        ("tests/test_world.py::test_join_keeps_pairs_at_exactly_r_across_cell_edges",),
    ),
    Mutant(
        "join falls back to one cell only below 3 cells",
        "world.py",
        "return n if n >= 5 else 1",
        "return n if n >= 3 else 1",
        ("tests/test_world.py::test_join_matches_brute_force_and_disc",),
    ),
    Mutant(
        "a sender receives its own transmission",
        "level0.py",
        "keep = np.flatnonzero(live_rx & (rx != senders[tx]))",
        "keep = np.flatnonzero(live_rx)",
        ("tests/test_reference_l0.py::test_engine_matches_the_scalar_reference",),
    ),
    Mutant(
        "a frozen receiver is delivered to",
        "level0.py",
        "live_rx = ~self.frozen[rx]",
        "live_rx = np.ones(len(rx), dtype=bool)",
        ("tests/test_level0.py::test_delegated_receivers_are_counted_as_drops",),
    ),
)


def run(mutant: Mutant, copy: Path) -> tuple[bool, float]:
    """Apply ``mutant`` to the package in ``copy``, run its tests, restore it.
    Returns (killed, seconds)."""
    target = copy / "iotsim" / mutant.file
    original = target.read_text()
    assert original.count(mutant.anchor) == 1, f"{mutant.name}: anchor not found once in {mutant.file}"
    target.write_text(original.replace(mutant.anchor, mutant.replacement))
    env = {**os.environ, "PYTHONPATH": str(copy), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
    finally:
        target.write_text(original)
    # Exit 1 is a failed test; anything else (no tests collected, an
    # internal error) is not a kill.
    return done.returncode == 1, time.perf_counter() - start


def main(words: list[str]) -> int:
    rows = [m for m in MUTANTS if not words or any(w in m.name for w in words)]
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(SRC / "iotsim", copy / "iotsim", ignore=shutil.ignore_patterns("__pycache__"))
        print("| mutant | file | tests | result | s |\n|---|---|---|---|---|")
        for mutant in rows:
            killed, seconds = run(mutant, copy)
            survivors += not killed
            tests = ", ".join(t.rpartition("::")[2] for t in mutant.tests)
            verdict = "killed" if killed else "SURVIVED"
            print(f"| {mutant.name} | {mutant.file} | {tests} | {verdict} | {seconds:.1f} |", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
