"""iotsim benchmark: fixed workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload gossip --seed 1 --seconds 35 --trace 0

Every simulation runs in a fresh process (``worker.py``), because peak RSS
is a high-water mark.  A benchmark run cycles through the workload's inputs
(config seeds ``1000 * seed + k``) until the next cycle would overrun
``--seconds``, and reports medians over all runs.  Each run's result digest
must match the one pinned in ``digests.json`` for that config seed (when
pinned) and every other run of the same input; a mismatch or a crash is a
failed run.  With ``--trace 1`` one more run of input 0 is traced and the
per-layer metrics are reported instead; the Chrome trace goes to
``.perfbench_out/``.  ``--workload all`` runs every workload in turn.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (name -> value and unit).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
RUN_TIMEOUT_S = 60.0
MIB = 1024 * 1024

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_RUN_EXTRA = {"session_p50_s": "s", "l1_child_rss_mib": "MiB"}
LAYER_UNITS = {
    "level0.wall_s": "s",
    "level0.step_p50_ms": "ms",
    "level0.lp_imbalance_s": "s",
    "level0.barrier_wait_s": "s",
    "level0.deliver.s": "s",
    "level0.receipts": "count",
    "level0.forwarded": "count",
    "level0.generated": "count",
    "level0.duplicate_ratio": "ratio",
    "rng.unit_uniform.calls": "count",
    "rng.unit_uniform.s": "s",
    "dissemination.relay_step.calls": "count",
    "dissemination.relay_step.s": "s",
    "dissemination.cache_hit_ratio": "ratio",
    "mobility.rwp_step.calls": "count",
    "mobility.rwp_step.s": "s",
    "level1.grid_build.s": "s",
    "level1.run_step.s": "s",
    "level1.events": "count",
    "level1.events_per_s": "1/s",
    "protocol.encode.s": "s",
    "protocol.decode.s": "s",
    "protocol.bytes": "bytes",
    "protocol.handshake.s": "s",
    "protocol.step.s": "s",
    "protocol.finish.s": "s",
    "protocol.spawn_s": "s",
}


class RunFailed(Exception):
    pass


def host_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "git_sha": "unknown (not a git checkout)",
    }
    if (ROOT / ".git").exists():
        try:
            facts["git_sha"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    # The checkout the benchmark runs in need not be a git repository, so
    # the source is also identified by content.
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    facts["src_sha256"] = source.hexdigest()
    return facts


def child_env() -> dict:
    env = dict(os.environ)
    # TCP sessions start ``python -m iotsim l1-server``; they inherit this path.
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def compile_sources(env: dict) -> None:
    """Byte-compile once up front so no timed process pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=120,
    )


def run_once(name: str, config_seed: int, env: dict, trace_path: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), name, str(config_seed)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    spawned = time.monotonic()
    # A session of its own, so a timeout can take the TCP children down too.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"timed out after {RUN_TIMEOUT_S:.0f}s") from None
    if proc.returncode != 0:
        raise RunFailed(f"exit {proc.returncode}: {err.strip()[-2000:]}")
    try:
        run = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise RunFailed(f"no result line in output: {out[-500:]!r}") from None
    run["setup_s"] = run["ready"] - spawned
    return run


class Checker:
    """Every run of one input must give one digest, the pinned one if any."""

    def __init__(self, name: str) -> None:
        pins = json.loads((HERE / "digests.json").read_text())
        self.pinned: dict[str, str] = pins.get(name, {})
        self.seen: dict[int, str] = {}

    def check(self, run: dict) -> str:
        seed, got = run["config_seed"], run["digest"]
        expected = self.pinned.get(str(seed))
        if expected is not None and got != expected:
            raise RunFailed(f"digest {got} differs from the pinned {expected}")
        first = self.seen.setdefault(seed, got)
        if got != first:
            raise RunFailed(f"digest {got} differs from an earlier run's {first}")
        return "pinned" if expected is not None else "not pinned"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def fmt(value: float) -> str:
    return f"{value:.6g}"


def measure(workload, seed: int, seconds: float, trace: bool, env: dict, host: dict) -> tuple[int, int, dict]:
    """Run one workload; returns (attempted, failed, metrics)."""
    name = workload.name
    checker = Checker(name)
    runs: list[dict] = []
    attempted = failed = 0

    def attempt(index: int, trace_path: Path | None = None) -> dict | None:
        nonlocal attempted, failed
        config_seed = workload.config_seed(seed, index)
        attempted += 1
        try:
            run = run_once(name, config_seed, env, trace_path)
            status = checker.check(run)
        except RunFailed as exc:
            failed += 1
            print(f"# {name} config_seed={config_seed}: FAILED: {exc}", file=sys.stderr)
            print(f"# {name} config_seed={config_seed}: FAILED")
            return None
        host.setdefault("numpy", run["numpy"])
        extras = ""
        if run["session_p50_s"] is not None:
            extras += f" session_p50_s={fmt(run['session_p50_s'])}"
        if run["l1_child_rss_bytes"] is not None:
            extras += f" l1_child_rss_mib={fmt(run['l1_child_rss_bytes'] / MIB)}"
        print(
            f"# {name} input={index} config_seed={config_seed}{' traced' if trace_path else ''}"
            f" wall_s={fmt(run['wall_s'])} setup_s={fmt(run['setup_s'])}"
            f" peak_rss_mib={fmt(run['peak_rss_bytes'] / MIB)}{extras}"
            f" digest={run['digest']} ({status})",
            flush=True,
        )
        return run

    start = time.monotonic()
    while True:
        cycle_start = time.monotonic()
        for index in range(workload.inputs):
            run = attempt(index)
            if run is not None:
                runs.append(run)
        now = time.monotonic()
        if now - start + (now - cycle_start) > seconds:
            break
    if not runs:
        raise RunFailed(f"every run of {name} failed")

    series = {
        "wall_s": [r["wall_s"] for r in runs],
        "setup_s": [r["setup_s"] for r in runs],
        "peak_rss_mib": [r["peak_rss_bytes"] / MIB for r in runs],
        "session_p50_s": [r["session_p50_s"] for r in runs if r["session_p50_s"] is not None],
        "l1_child_rss_mib": [
            r["l1_child_rss_bytes"] / MIB for r in runs if r["l1_child_rss_bytes"] is not None
        ],
    }
    medians: dict[str, float | None] = {}
    for key, unit in {**END_TO_END, **PER_RUN_EXTRA}.items():
        values = series[key]
        if not values:
            medians[key] = None
            print(f"{name:12s} {key:18s} n/a (no such part in this workload)")
            continue
        q1, med, q3 = quartiles(values)
        medians[key] = med
        print(
            f"{name:12s} {key:18s} {fmt(med)} {unit}"
            f" (median of {len(values)}; q1 {fmt(q1)}, q3 {fmt(q3)})"
        )

    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{name}-seed{seed}.json"
        traced = attempt(0, trace_path)
    print(f"{name:12s} {'failed_share':18s} {fmt(failed / attempted)} ({failed}/{attempted} runs failed)")
    if not trace:
        return attempted, failed, {key: (medians[key], unit) for key, unit in END_TO_END.items()}
    if traced is None:
        raise RunFailed(f"the traced run of {name} failed")
    untraced = statistics.median(
        r["wall_s"] for r in runs if r["config_seed"] == traced["config_seed"]
    )
    layers = dict(traced["layers"])
    layers["trace.wall_s"] = traced["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - untraced
    metrics = {key: (medians[key] or 0.0, unit) for key, unit in PER_RUN_EXTRA.items()}
    units = {**LAYER_UNITS, "trace.wall_s": "s", "trace.overhead_s": "s"}
    metrics.update({key: (layers[key], units[key]) for key in units})

    print(f"{name:12s} per-layer metrics (traced run, config_seed={traced['config_seed']}):")
    for key, (value, unit) in metrics.items():
        print(f"  {key:34s} {fmt(value)} {unit}")
    print(f"{name:12s} spans: calls, inclusive s, self s")
    for span, row in sorted(traced["spans"].items(), key=lambda item: -item[1]["self_s"]):
        print(f"  {span:34s} {row['calls']:7d} {row['s']:10.4f} {row['self_s']:10.4f}")
    print(f"{name:12s} tallied calls: calls, inclusive s, hits")
    for fn, row in sorted(traced["tallies"].items()):
        print(f"  {fn:34s} {row['calls']:9d} {row['s']:10.4f} {row['hits']:9d}")
    trace_doc = json.loads(trace_path.read_text())
    trace_doc["otherData"].update(host=host, metrics={k: v for k, (v, _) in metrics.items()})
    trace_path.write_text(json.dumps(trace_doc))
    print(f"{name:12s} chrome trace: {trace_path.relative_to(ROOT)}")
    return attempted, failed, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "iotsim" / "__init__.py").is_file():
        print(f"error: no iotsim sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    env = child_env()
    compile_sources(env)
    host = host_facts()
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    try:
        for name in names:
            tried, lost, found = measure(
                workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace), env, host
            )
            attempted += tried
            failed += lost
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in found.items()})
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"# host {json.dumps(host)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
