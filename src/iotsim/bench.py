"""Experiment runner: wall-clock decomposition, peak memory, scalability sweeps.

A sweep varies one axis (any option but the seed and the schedule, or the
number of fine-grained activations) over a list of values, repeats each cell
with derived sub-seeds, and emits one CSV row per value with means and
standard deviations.  Peak memory is the process high-water mark, so honest
per-run numbers require a fresh process per run: every repetition is an
``iotsim simulate`` child given its config as ``--option=value`` flags.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from typing import ContextManager, Optional, TextIO

from . import rng
from .config import OPTIONS, ConfigError, SimConfig, SpawnTrigger, config_to_file_text
from .level0 import _PACKAGE_ROOT, RunResult
from .protocol import measure_peak_memory  # noqa: F401 - the CLI and perfbench call bench.measure_peak_memory


@dataclass(slots=True)
class RunMetrics:
    total_wct: float
    l0_only_wct: float
    l1_wct: tuple[float, ...]
    peak_rss_l0: Optional[int]
    peak_rss_per_l1: tuple[Optional[int], ...]
    counters: dict[str, int]
    config_echo: dict[str, object]

    def to_json_obj(self) -> dict:
        return {
            "total_wct": self.total_wct,
            "l0_only_wct": self.l0_only_wct,
            "l1_wct": list(self.l1_wct),
            "peak_rss_l0": self.peak_rss_l0,
            "peak_rss_per_l1": list(self.peak_rss_per_l1),
            "counters": self.counters,
            "config_echo": self.config_echo,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RunMetrics":
        return cls(
            total_wct=float(obj["total_wct"]),
            l0_only_wct=float(obj["l0_only_wct"]),
            l1_wct=tuple(float(v) for v in obj["l1_wct"]),
            peak_rss_l0=obj.get("peak_rss_l0"),
            peak_rss_per_l1=tuple(obj.get("peak_rss_per_l1", ())),
            counters={k: int(v) for k, v in obj["counters"].items()},
            config_echo=dict(obj.get("config_echo", {})),
        )


def _union_span(spans: list[tuple[float, float]]) -> float:
    total = 0.0
    edge = float("-inf")
    for start, end in sorted(spans):
        if end <= edge:
            continue
        total += end - max(start, edge)
        edge = end
    return total


def collect_metrics(result: RunResult, peak_rss_l0: Optional[int]) -> RunMetrics:
    """Distill a finished run; sessions run inside the step loop, so the
    coarse-only time is the total minus the union of session spans."""
    spans = [(log.wct_start, log.wct_end) for log in result.session_logs]
    cfg = result.config
    return RunMetrics(
        total_wct=result.total_wct,
        l0_only_wct=max(0.0, result.total_wct - _union_span(spans)),
        l1_wct=tuple(log.wct for log in result.session_logs),
        peak_rss_l0=peak_rss_l0,
        peak_rss_per_l1=tuple(log.child_peak_rss for log in result.session_logs),
        counters=result.totals(),
        config_echo={
            "num_ses": cfg.num_ses,
            "num_lps": cfg.num_lps,
            "total_timesteps": cfg.total_timesteps,
            "seed": cfg.seed,
            "n_l1_sessions": len(result.session_logs),
        },
    )


# -- schedules -----------------------------------------------------------------


def sequential_schedule(activations: int, total_timesteps: int) -> tuple[SpawnTrigger, ...]:
    """Evenly spaced single-entity triggers on LP 0, one session at a time."""
    if activations < 0:
        raise ConfigError("activations must be >= 0")
    if activations == 0:
        return ()
    if activations >= total_timesteps:
        raise ConfigError("more activations than timesteps")
    return tuple(
        SpawnTrigger((i + 1) * total_timesteps // (activations + 1), 0, 1)
        for i in range(activations)
    )


# -- experiment plans ------------------------------------------------------------

# What a plan can sweep, shaped like config.OPTIONS: every option except the
# seed, which each repetition derives anew, and the schedule, whose values
# contain commas; plus the synthetic count of evenly spaced activations.
SWEEP_OPTIONS = {name: spec for name, spec in OPTIONS.items() if name not in ("seed", "l1-schedule")}
SWEEP_OPTIONS["l1-activations"] = ("num_l1_activations", int)


@dataclass(frozen=True, slots=True)
class ExperimentPlan:
    axis: str  # a SimConfig field name from SWEEP_OPTIONS
    values: tuple
    repetitions: int
    base: SimConfig

    def __post_init__(self) -> None:
        if self.axis not in {field_name for field_name, _ in SWEEP_OPTIONS.values()}:
            raise ConfigError(f"cannot sweep {self.axis!r}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if not self.values:
            raise ConfigError("values must not be empty")
        repeated = [v for i, v in enumerate(self.values) if v in self.values[:i]]
        if repeated:
            # Sub-seeds are keyed by a value's position, so a repeat would copy a row.
            raise ConfigError(f"value {repeated[0]!r} is listed more than once")
        for value in self.values:
            self.config_for(value, rep=0)  # validates eagerly

    def config_for(self, value, rep: int) -> SimConfig:
        sub_seed = rng.mix(self.base.seed, rng.SWEEP, self.values.index(value), rep)
        if self.axis == "num_l1_activations":
            updates = {"l1_schedule": sequential_schedule(value, self.base.total_timesteps)}
        else:
            updates = {self.axis: value}
        return self.base.with_updates(**updates, seed=sub_seed)


def _run_in_subprocess(config: SimConfig) -> RunMetrics:
    """Fresh interpreter per run, so per-run VmHWM numbers mean something; it gets
    this ``iotsim``'s root, which the parent may have found through sys.path alone."""
    import subprocess  # here, not at the top: only sweeps spawn children

    flags = [f"--{line}" for line in config_to_file_text(config).splitlines()]
    path = os.pathsep.join(p for p in (_PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "iotsim", "simulate", *flags, "--json-metrics", "-"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    if proc.returncode != 0:
        raise RuntimeError(f"simulate failed ({proc.returncode}): {proc.stderr.strip()}")
    return RunMetrics.from_json_obj(json.loads(proc.stdout))


CSV_COLUMNS = [
    "axis",
    "value",
    "status",
    "reps_ok",
    "reps_failed",
    "num_ses",
    "num_lps",
    "total_timesteps",
    "n_l1_sessions",
    "total_wct_mean",
    "total_wct_std",
    "l0_only_wct_mean",
    "l0_only_wct_std",
    "l1_wct_mean",
    "l1_wct_std",
    "peak_rss_l0_mean",
    "peak_rss_l0_std",
    "peak_rss_l1_mean",
    "generated_mean",
    "forwarded_mean",
    "delivered_mean",
    "duplicates_mean",
]


def _mean_std(values: list[float]) -> tuple[float, float]:
    if not values:
        return float("nan"), float("nan")
    return statistics.fmean(values), statistics.pstdev(values)


def _row_for(plan: ExperimentPlan, value, metrics: list[RunMetrics], failures: int) -> dict:
    row: dict[str, object] = {
        "axis": plan.axis,
        "value": value,
        "status": "ok" if metrics and not failures else ("partial" if metrics else "failed"),
        "reps_ok": len(metrics),
        "reps_failed": failures,
    }
    if metrics:
        echo = metrics[0].config_echo
        row["num_ses"] = echo.get("num_ses")
        row["num_lps"] = echo.get("num_lps")
        row["total_timesteps"] = echo.get("total_timesteps")
        row["n_l1_sessions"] = echo.get("n_l1_sessions")
        for name, pick in (
            ("total_wct", lambda m: m.total_wct),
            ("l0_only_wct", lambda m: m.l0_only_wct),
        ):
            mean, std = _mean_std([pick(m) for m in metrics])
            row[f"{name}_mean"] = mean
            row[f"{name}_std"] = std
        per_l1 = [w for m in metrics for w in m.l1_wct]
        mean, std = _mean_std(per_l1) if per_l1 else (0.0, 0.0)
        row["l1_wct_mean"] = mean
        row["l1_wct_std"] = std
        rss = [float(m.peak_rss_l0) for m in metrics if m.peak_rss_l0 is not None]
        mean, std = _mean_std(rss) if rss else ("", "")
        row["peak_rss_l0_mean"] = mean
        row["peak_rss_l0_std"] = std
        l1_rss = [float(r) for m in metrics for r in m.peak_rss_per_l1 if r is not None]
        row["peak_rss_l1_mean"] = _mean_std(l1_rss)[0] if l1_rss else ""
        for counter in ("generated", "forwarded", "delivered", "duplicates"):
            row[f"{counter}_mean"] = _mean_std([float(m.counters[counter]) for m in metrics])[0]
    return row


def run_experiment(plan: ExperimentPlan) -> list[dict]:
    """One row per sweep value; failed repetitions are noted, never fatal."""
    rows = []
    for value in plan.values:
        metrics: list[RunMetrics] = []
        failures = 0
        for rep in range(plan.repetitions):
            config = plan.config_for(value, rep)
            try:
                metrics.append(_run_in_subprocess(config))
            except Exception as exc:
                failures += 1
                print(f"run failed: axis={plan.axis} value={value} rep={rep}: {exc}", file=sys.stderr)
        rows.append(_row_for(plan, value, metrics, failures))
    return rows


def open_output(out: str | TextIO, flag: str = "--out") -> ContextManager[TextIO]:
    """``out`` ready for writing, as a context manager.

    A path is opened now and closed on exit; ``-`` is stdout and an open file
    is itself, neither closed on exit.  A path that cannot be opened is a
    ``ConfigError`` naming ``flag``, so a command can refuse it before it runs.
    """
    if not isinstance(out, str) or out == "-":
        return nullcontext(sys.stdout if out == "-" else out)
    try:
        return open(out, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"{flag}: cannot write {out!r}: {exc.strerror}") from None


def write_csv(rows: list[dict], out: str | TextIO) -> None:
    import csv  # here, not at the top: only sweeps load it

    with open_output(out) as target:
        writer = csv.DictWriter(target, fieldnames=CSV_COLUMNS, restval="")
        writer.writeheader()
        writer.writerows(rows)
