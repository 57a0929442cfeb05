"""One simulation run of one benchmark input, in this process.

Usage: python worker.py WORKLOAD CONFIG_SEED [--trace FILE]

Prints one JSON object on stdout.  ``ready`` is ``time.monotonic()`` once
the ``SimEngine`` is constructed; the parent subtracts the moment it spawned
this process to get the set-up time (imports, config, world population,
partitioning).  With ``--trace`` the run is traced and its spans are written
to FILE as Chrome Trace Event JSON; the numbers it prints then include the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from contextlib import nullcontext

import numpy

from iotsim import bench
from iotsim.level0 import SimEngine

import tracing
import workloads


def simulate(make_config, tracer: tracing.Tracer | None = None):
    """Build the config and engine, run, measure; traced when given a tracer.

    Returns the moment the engine was ready, the ``RunResult`` and its
    ``RunMetrics``.
    """
    if tracer is not None:
        tracer.install()
    try:
        with tracer.span("config.SimConfig") if tracer is not None else nullcontext():
            config = make_config()
        engine = SimEngine(config, keep_transcripts=tracer is not None)
        ready = time.monotonic()
        result = engine.run()
        metrics = bench.collect_metrics(result, bench.measure_peak_memory())
    finally:
        if tracer is not None:
            tracer.uninstall()
    return ready, result, metrics


def run(name: str, config_seed: int, trace_path: str | None = None) -> dict:
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer() if trace_path else None
    ready, result, metrics = simulate(lambda: workload.config(config_seed), tracer)
    logs = result.session_logs
    child_rss = [rss for rss in metrics.peak_rss_per_l1 if rss is not None]
    out = {
        "workload": name,
        "config_seed": config_seed,
        "digest": workloads.digest(result),
        "ready": ready,
        "wall_s": metrics.total_wct,
        "peak_rss_bytes": metrics.peak_rss_l0,
        "session_p50_s": statistics.median(metrics.l1_wct) if logs else None,
        "l1_child_rss_bytes": max(child_rss) if child_rss else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        spans = tracing.attach_sessions(tracer.spans, logs, result.config.num_lps)
        tallies = tracer.tallies()
        out["layers"] = tracing.layer_metrics(spans, tallies, result, metrics)
        out["spans"] = tracing.summarize(spans)
        out["tallies"] = tallies
        tracing.write_chrome_trace(trace_path, spans, {"workload": name, "config_seed": config_seed})
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("config_seed", type=int)
    parser.add_argument("--trace", metavar="FILE")
    args = parser.parse_args(argv)
    print(json.dumps(run(args.workload, args.config_seed, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
