"""Command-line front end: simulate, sweep."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .bench import SWEEP_OPTIONS, ExperimentPlan, collect_metrics, measure_peak_memory, run_experiment, write_csv
from .config import OPTIONS, ConfigError, SimConfig, parse_option, read_config_file, read_key_values
from .level0 import SimulationError, run_simulation
from .protocol import ProtocolError

# Sweeps default to desk scale; single runs keep the reference workload.
SWEEP_DEFAULT_TIMESTEPS = 100


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="key=value file mirroring these flags")
    for name in OPTIONS:
        if name == "l1-schedule":
            parser.add_argument(
                "--l1-schedule",
                action="append",
                metavar="T:LP:COUNT",
                dest="flag_l1_schedule",
                help="spawn trigger; repeatable",
            )
        else:
            parser.add_argument(f"--{name}", metavar="V", dest=f"flag_{name.replace('-', '_')}")


def _config_from_args(args: argparse.Namespace) -> SimConfig:
    updates = read_config_file(args.config) if args.config else {}
    flags = []
    for name in OPTIONS:
        raw = getattr(args, f"flag_{name.replace('-', '_')}")
        if raw is not None:
            if name == "l1-schedule":  # repeatable flag
                raw = ",".join(raw)
            field_name, value = parse_option(name, raw, f"--{name}")
            updates[field_name] = value
            flags.append(f"--{name}")
    try:
        return SimConfig(**updates)
    except ConfigError as exc:  # a check across fields: name the file and any flags over it
        if args.config:
            over = f" with {' '.join(flags)}" if flags else ""
            raise ConfigError(f"{args.config}{over}: {exc}") from None
        raise


# -- simulate -----------------------------------------------------------------


def _write_report_csv(result, out_path: str) -> None:
    import csv  # here, not at the top: only runs given --out load it

    columns = [
        "timestep",
        "generated",
        "forwarded",
        "delivered",
        "duplicates",
        "dropped_delegated",
        "active",
        "delegated",
        "step_wct",
    ]
    target = sys.stdout if out_path == "-" else open(out_path, "w", newline="")
    try:
        writer = csv.writer(target)
        writer.writerow(columns)
        for r in result.reports:
            writer.writerow(
                [
                    r.timestep,
                    r.generated,
                    r.forwarded,
                    r.delivered,
                    r.duplicates,
                    r.dropped_delegated,
                    r.active,
                    r.delegated,
                    f"{r.deliver_wct + max(r.lp_wct):.6f}",
                ]
            )
    finally:
        if target is not sys.stdout:
            target.close()


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.out == "-" and args.json_metrics == "-":
        raise ConfigError("--out - and --json-metrics - would both write to stdout; give one a file")
    config = _config_from_args(args)
    result = run_simulation(config)
    metrics = collect_metrics(result, measure_peak_memory())
    if args.out:
        _write_report_csv(result, args.out)
    if args.json_metrics:
        payload = json.dumps(metrics.to_json_obj(), indent=None)
        if args.json_metrics == "-":
            print(payload)
        else:
            Path(args.json_metrics).write_text(payload + "\n")
    if args.json_metrics != "-":
        totals = result.totals()
        print(
            f"ok ses={config.num_ses} lps={config.num_lps} steps={config.total_timesteps} "
            f"seed={config.seed} wct={metrics.total_wct:.3f}s "
            f"generated={totals['generated']} delivered={totals['delivered']} "
            f"l1_sessions={len(result.session_logs)}",
            file=sys.stderr if args.out == "-" else sys.stdout,  # stdout holds only the CSV
        )
    return 0


# -- sweep ---------------------------------------------------------------------

_PLAN_KEYS = ("axis", "values", "reps")


def read_plan_file(path: str) -> ExperimentPlan:
    """Parse an experiment plan: plan keys plus base-config overrides."""
    plan: dict[str, tuple[str, str]] = {}
    config_updates: dict[str, object] = {}
    for key, value, where in read_key_values(path):
        if key in _PLAN_KEYS:
            plan[key] = (value, where)
        else:
            field_name, parsed = parse_option(key, value, where)
            config_updates[field_name] = parsed
    if "axis" not in plan or "values" not in plan:
        raise ConfigError(f"{path}: plan needs at least axis= and values=")
    axis, where = plan["axis"]
    name = next((n for n, (f, _) in SWEEP_OPTIONS.items() if axis in (n, f)), None)
    if name is None:
        raise ConfigError(
            f"{where}: cannot sweep {axis!r}; an axis is an option or field name "
            "other than seed and l1-schedule, or l1-activations"
        )
    text, values_at = plan["values"]
    entries = text.split(",")
    if not all(v.strip() for v in entries):
        raise ConfigError(f"{values_at}: values= has an empty entry: {text!r}")
    values = tuple(parse_option(name, v, values_at, SWEEP_OPTIONS)[1] for v in entries)
    reps_text, where = plan.get("reps", ("3", path))
    try:
        reps = int(reps_text)
        if reps < 1:
            raise ValueError("reps must be >= 1")
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    config_updates.setdefault("total_timesteps", SWEEP_DEFAULT_TIMESTEPS)
    try:
        base = SimConfig(**config_updates)
    except ConfigError as exc:  # a check across the base settings' fields
        raise ConfigError(f"{path}: {exc}") from None
    try:
        return ExperimentPlan(SWEEP_OPTIONS[name][0], values, reps, base)
    except ConfigError as exc:  # the axis and reps are checked above: a bad value
        raise ConfigError(f"{values_at}: {exc}") from None


def _cmd_sweep(args: argparse.Namespace) -> int:
    rows = run_experiment(read_plan_file(args.plan))
    write_csv(rows, args.out)
    failed = [r for r in rows if r["status"] == "failed"]
    if failed:
        print(f"{len(failed)} of {len(rows)} sweep points failed", file=sys.stderr)
        return 1
    return 0


# -- entry point ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="iotsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one simulation")
    _add_config_flags(p_sim)
    p_sim.add_argument("--out", metavar="CSV", help="per-timestep report table ('-' = stdout)")
    p_sim.add_argument(
        "--json-metrics", metavar="FILE", help="dump RunMetrics as JSON ('-' = stdout)"
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser(
        "sweep",
        help="run an experiment plan",
        description="Run an experiment plan, each repetition a fresh 'iotsim simulate' child.",
    )
    p_sweep.add_argument("plan", help="plan file: axis=, values=, reps=, plus config keys")
    p_sweep.add_argument("--out", default="-", metavar="CSV", help="output table ('-' = stdout)")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
