"""Passes, metrics and correctness checks of one benchmark run.

A run repeats *passes* until its wall-time budget is spent. A pass builds
the platform from the seed's inputs (timed as set-up), then advances it
one simulated minute at a time for the workload's fixed simulated length,
timing every minute. Every pass of one seed must end in the same platform
state; wall-time metrics are medians over passes, so a faster program
runs more passes of the same work rather than different work.

A traced run alternates untraced and traced passes: the per-layer
metrics come from the traced ones, the tracing overhead is the
difference of their wall times, and their fingerprint digests must match.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform as host_platform
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.chaos.runner import platform_fingerprint
from repro.errors import VersionConflictError

from perfbench.layers import LAYERS, LayerClock
from perfbench.workloads import (
    WORKLOADS,
    Deployment,
    cpu_reserved_per_mbps,
    deploy,
    invariant_violations,
    slo_bad_fraction,
)

ROOT = Path(__file__).resolve().parent.parent

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10
#: Set-ups timed per run at least (extra ones are built and discarded).
MIN_SETUPS = 5
#: Seed reserved for checking a performance claim on inputs not used
#: while the change was written.
HELD_OUT_SEED = 9001

E2E_UNITS = {
    "sim_speed": "sim-s/s",
    "minute_wall_p50_ms": "ms",
    "minute_wall_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "lag_slo_bad_fraction": "ratio",
    "availability_slo_bad_fraction": "ratio",
    "update_apply_p50_s": "sim-s",
    "update_apply_tail_s": "sim-s",
    "failover_restore_p50_s": "sim-s",
    "cpu_reserved_per_mbps": "cores/MBps",
}

#: Per-layer metrics beyond each layer's self/incl/share/calls.
LAYER_EXTRA_UNITS = {
    "tasks.step.task_steps": "count",
    "tasks.step.us_per_task_step": "us",
    "tasks.shard_manager.failover.moves": "count",
    "tasks.shard_manager.rebalance.moves": "count",
    "tasks.balancer.cache_hit_ratio": "ratio",
    "jobs.syncer.rounds": "count",
    "jobs.syncer.examined": "count",
    "jobs.syncer.synced": "count",
    "jobs.syncer.failed": "count",
    "jobs.syncer.synced_per_examined": "ratio",
    "jobs.store.merge.per_sim_minute": "1/sim-min",
    "jobs.service.update.cas_retries": "count",
    "metrics.store.records": "count",
    "metrics.store.window_reads": "count",
    "metrics.store.rollup_reads": "count",
    "scaler.decisions": "count",
    "scribe.checkpoints.gets": "count",
    "scribe.checkpoints.gets_per_task_step": "ratio",
    "sim.engine.events": "count",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}

_LAYER_UNITS = {"self_s": "s", "incl_s": "s", "share": "ratio", "calls": "count"}


def layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        f"{layer}.{column}": unit
        for layer in LAYERS
        for column, unit in _LAYER_UNITS.items()
    }
    units.update(LAYER_EXTRA_UNITS)
    return units


@dataclass
class Pass:
    setup_s: float
    minute_walls: List[float]
    wall_s: float
    outcome: Dict[str, object]
    layers: Optional[Dict[str, float]] = None


@dataclass
class Checks:
    problems: List[str] = field(default_factory=list)

    def require(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def tail(values: List[float]) -> float:
    """The value with ``TAIL_BEYOND`` samples above it (the maximum when
    there are fewer samples than that)."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - 1 - TAIL_BEYOND)]


def tail_percentile(count: int) -> float:
    return 100.0 * max(0, count - 1 - TAIL_BEYOND) / max(1, count - 1)


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Tracing one pass
# ----------------------------------------------------------------------
def instrument(deployment: Deployment, clock: LayerClock) -> Dict[str, object]:
    """Install the layer clock on a freshly deployed platform; returns the
    program's own counters as they stand, so the pass reports deltas."""
    platform = deployment.platform
    platform.engine.instrumentation = clock
    clock.wrap(platform.job_store, "merged_expected", "jobs.store.merge")
    clock.wrap(platform.job_service, "update", "jobs.service.update")
    for attr in ("record", "record_many", "series", "latest"):
        clock.wrap(platform.metrics, attr, "metrics.store")
    clock.count_calls(platform.scribe.checkpoints, "get", "scribe.checkpoints.gets")

    write = platform.job_store.write_expected

    def write_expected(*args, **kwargs):
        try:
            return write(*args, **kwargs)
        except VersionConflictError:
            clock.counts["jobs.service.update.cas_retries"] += 1
            raise

    platform.job_store.write_expected = write_expected

    def count_task_steps(timer) -> None:
        container = timer.name[: -len("-step")]
        managers = (
            [platform.task_managers[container]]
            if container in platform.task_managers
            else list(platform.task_managers.values())
        )
        clock.counts["tasks.step.task_steps"] += sum(
            len(manager.tasks) + len(manager.standbys) for manager in managers
        )

    shard_manager = platform.shard_manager
    before: Dict[str, str] = {}

    def snapshot(timer) -> None:
        before.clear()
        before.update(shard_manager.assignment)

    def count_moves(timer) -> None:
        clock.counts["tasks.shard_manager.rebalance.moves"] += sum(
            1 for shard, owner in shard_manager.assignment.items()
            if before.get(shard) != owner
        )

    clock.around_timers("tasks.step", before=count_task_steps)
    clock.around_timers(
        "tasks.shard_manager.rebalance", before=snapshot, after=count_moves
    )
    return {
        "metrics": platform.metrics.read_stats(),
        "failovers": len(shard_manager.failover_events),
        "syncer_rounds": len(platform.syncer.rounds),
    }


def layer_metrics(
    deployment: Deployment,
    clock: LayerClock,
    start: Dict[str, object],
    wall: float,
    minutes: int,
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (see README.md)."""
    platform = deployment.platform
    table = clock.layer_table(wall)
    out: Dict[str, float] = {}
    for layer in LAYERS:
        for column in _LAYER_UNITS:
            out[f"{layer}.{column}"] = table[layer][column]
    counts = clock.counts
    steps = counts["tasks.step.task_steps"]
    out["tasks.step.task_steps"] = steps
    out["tasks.step.us_per_task_step"] = (
        table["tasks.step"]["incl_s"] * 1e6 / steps if steps else 0.0
    )
    shard_manager = platform.shard_manager
    out["tasks.shard_manager.failover.moves"] = sum(
        event.shards_moved
        for event in shard_manager.failover_events[start["failovers"]:]
    )
    out["tasks.shard_manager.rebalance.moves"] = counts[
        "tasks.shard_manager.rebalance.moves"
    ]
    # The balancer's decision cache keeps its counters privately.
    cache = shard_manager._placement_cache
    lookups = cache.hits + cache.misses
    out["tasks.balancer.cache_hit_ratio"] = cache.hits / lookups if lookups else 0.0
    rounds = [
        report
        for report in list(platform.syncer.rounds)[start["syncer_rounds"]:]
        if not report.skipped
    ]
    examined = sum(report.examined for report in rounds)
    synced = sum(report.total_synced for report in rounds)
    out["jobs.syncer.rounds"] = len(rounds)
    out["jobs.syncer.examined"] = examined
    out["jobs.syncer.synced"] = synced
    out["jobs.syncer.failed"] = sum(len(report.failed) for report in rounds)
    out["jobs.syncer.synced_per_examined"] = synced / examined if examined else 0.0
    out["jobs.store.merge.per_sim_minute"] = (
        table["jobs.store.merge"]["calls"] / minutes
    )
    out["jobs.service.update.cas_retries"] = counts["jobs.service.update.cas_retries"]
    stats, first = platform.metrics.read_stats(), start["metrics"]
    for name, key in (
        ("records", "samples_ingested"),
        ("window_reads", "window_queries"),
        ("rollup_reads", "rollup_reads"),
    ):
        out[f"metrics.store.{name}"] = stats[key] - first[key]
    out["scaler.decisions"] = len(platform.scaler.actions) if platform.scaler else 0
    gets = clock.call_count("scribe.checkpoints.gets")
    out["scribe.checkpoints.gets"] = gets
    out["scribe.checkpoints.gets_per_task_step"] = gets / steps if steps else 0.0
    out["sim.engine.events"] = counts["sim.engine.events"]
    return out


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------
def run_pass(inputs, seed: int, minutes: int, clock: Optional[LayerClock] = None) -> Pass:
    gc.collect()
    origin = perf_counter()
    if clock is not None:
        setup_span = clock.enter("setup")
    deployment = deploy(inputs, seed)
    if clock is not None:
        clock.exit(setup_span)
        start = instrument(deployment, clock)
    setup_s = perf_counter() - origin
    ops, platform = deployment.ops, deployment.platform
    walls, efficiency = [], []
    for __ in range(minutes):
        began, probed = perf_counter(), ops.probe_wall
        platform.run_for(seconds=60)
        walls.append(perf_counter() - began - (ops.probe_wall - probed))
        if clock is not None:
            probe_span = clock.enter("bench.probe")
        efficiency.append(cpu_reserved_per_mbps(deployment))
        if clock is not None:
            clock.exit(probe_span)
    wall_s = perf_counter() - origin
    layers = None
    if clock is not None:
        # Before the checks below, which read the store through wrappers.
        layers = layer_metrics(deployment, clock, start, wall_s, minutes)
        platform.engine.instrumentation = None
    fingerprint = platform_fingerprint(platform).encode("utf-8")
    outcome = {
        "digest": hashlib.sha256(fingerprint).hexdigest(),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "apply_seconds": ops.apply_seconds,
        "restore_seconds": ops.restore_seconds,
        "lag_slo_bad_fraction": slo_bad_fraction(platform, "lag"),
        "availability_slo_bad_fraction": slo_bad_fraction(platform, "availability"),
        "cpu_reserved_per_mbps": math.fsum(efficiency) / len(efficiency),
    }
    # Last: checking liveness runs the simulation on past the timed end.
    outcome["violations"] = invariant_violations(platform)
    return Pass(setup_s, walls, wall_s, outcome, layers)


# ----------------------------------------------------------------------
# A run
# ----------------------------------------------------------------------
def end_to_end(minutes: int, passes: List[Pass], setups: List[float]) -> Dict[str, float]:
    outcome = passes[0].outcome
    applies, restores = outcome["apply_seconds"], outcome["restore_seconds"]
    walls = [wall for p in passes for wall in p.minute_walls]
    return {
        "sim_speed": minutes * 60.0 * len(passes) / math.fsum(walls),
        "minute_wall_p50_ms": 1000.0 * statistics.median(walls),
        # Per pass, so the percentile stays fixed however many passes fit.
        "minute_wall_tail_ms": 1000.0 * statistics.median(
            tail(p.minute_walls) for p in passes
        ),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "lag_slo_bad_fraction": outcome["lag_slo_bad_fraction"],
        "availability_slo_bad_fraction": outcome["availability_slo_bad_fraction"],
        "update_apply_p50_s": statistics.median(applies) if applies else 0.0,
        "update_apply_tail_s": tail(applies) if applies else 0.0,
        "failover_restore_p50_s": (
            statistics.median(restores) if restores else 0.0
        ),
        "cpu_reserved_per_mbps": outcome["cpu_reserved_per_mbps"],
    }


def trace_report(
    name: str,
    passes: List[Pass],
    traced: List[Pass],
    clock: LayerClock,
    meta: Dict[str, object],
    out_dir: str,
) -> Dict[str, float]:
    """Per-layer metrics (medians over traced passes) and the tracing
    overhead; prints the layer table and writes it, with the spans of
    the last traced pass, under ``out_dir``."""
    metrics = {
        key: statistics.median(p.layers[key] for p in traced)
        for key in traced[0].layers
    }
    untraced_wall = statistics.median(p.wall_s for p in passes)
    traced_wall = statistics.median(p.wall_s for p in traced)
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall

    lines = [f"{'layer':30s} {'self s':>9s} {'incl s':>9s} {'share':>7s} {'calls':>9s}"]
    for layer in LAYERS:
        lines.append(
            f"{layer:30s} {metrics[layer + '.self_s']:9.3f} "
            f"{metrics[layer + '.incl_s']:9.3f} "
            f"{100 * metrics[layer + '.share']:6.1f}% "
            f"{int(metrics[layer + '.calls']):9d}"
        )
    lines.extend(
        f"{key:44s} {value:14.6g} {LAYER_EXTRA_UNITS[key]}"
        for key, value in metrics.items()
        if key in LAYER_EXTRA_UNITS
    )
    table = "\n".join(lines)
    print(table)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{meta['seed']}"
    (out / f"{stem}.layers.txt").write_text(
        json.dumps(meta, sort_keys=True) + "\n" + table + "\n", encoding="utf-8"
    )
    clock.write_spans(out / f"{stem}.spans.jsonl.gz", clock.starts[0])
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        minutes: Optional[int], out_dir: str) -> Tuple[Dict[str, object], List[str]]:
    """One benchmark run; returns the result object and any problems."""
    workload = WORKLOADS[workload_name]
    minutes = minutes or workload.minutes
    inputs = workload.inputs(seed, minutes)

    passes: List[Pass] = []
    traced: List[Pass] = []
    clock = None
    began = perf_counter()
    while True:
        if trace and len(passes) > len(traced):
            clock = LayerClock()
            latest = run_pass(inputs, seed, minutes, clock)
            traced.append(latest)
        else:
            latest = run_pass(inputs, seed, minutes)
            passes.append(latest)
        # Stop at the pass boundary nearest the budget.
        elapsed = perf_counter() - began
        if (traced or not trace) and elapsed + latest.wall_s / 2 >= seconds:
            break
    setups = [p.setup_s for p in passes]
    while len(setups) < MIN_SETUPS:
        gc.collect()
        started = perf_counter()
        deploy(inputs, seed)
        setups.append(perf_counter() - started)

    checks = Checks()
    reference = passes[0].outcome
    for index, p in enumerate(passes[1:] + traced, start=1):
        kind = "traced" if index >= len(passes) else "untraced"
        checks.require(
            p.outcome == reference,
            f"{kind} pass {index} ended in another state than pass 0",
        )
    checks.require(
        not reference["violations"],
        f"invariants violated: {reference['violations']}",
    )
    checks.require(
        bool(reference["apply_seconds"]) and bool(reference["restore_seconds"]),
        "no config write was applied or no failed host was restored",
    )

    applies = len(reference["apply_seconds"])
    meta = {
        "workload": workload.name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "sim_minutes_per_pass": minutes,
        "passes": len(passes),
        "traced_passes": len(traced),
        "minute_wall_tail_percentile": round(tail_percentile(minutes), 2),
        "minute_samples_per_pass": minutes,
        "update_apply_tail_percentile": round(tail_percentile(applies), 2),
        "update_apply_samples": applies,
        "failover_samples": len(reference["restore_seconds"]),
        "fingerprint_sha256": reference["digest"],
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": host_platform.python_version(),
        "git_commit": git_commit(),
    }
    if trace:
        metrics = trace_report(workload.name, passes, traced, clock, meta, out_dir)
        units = layer_units()
    else:
        metrics = end_to_end(minutes, passes, setups)
        units = E2E_UNITS
        for key, value in metrics.items():
            checks.require(
                math.isfinite(value) and value > 0, f"{key} is {value}, not positive"
            )
            print(f"{key:32s} {value:14.6g} {units[key]}")
    print(json.dumps({"meta": meta, "problems": checks.problems}, sort_keys=True))
    result = {
        "correct": not checks.problems,
        "attempted": sum(p.outcome["attempted"] for p in passes + traced),
        "failed": sum(p.outcome["failed"] for p in passes + traced),
        "metrics": {
            key: {"value": metrics[key], "unit": unit} for key, unit in units.items()
        },
    }
    return result, checks.problems
