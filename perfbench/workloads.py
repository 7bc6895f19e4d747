"""The benchmark's three workloads: seeded inputs, set-up, and the ops stream.

Every input is drawn here from the ``--seed`` argument; the platform only
ever receives the generated job specs, rate functions and operations.
Traffic and operations are open-loop in simulated time: they follow a
schedule fixed before the run starts, whatever the platform's backlog.

Every workload carries the same kinds of operations — Oncall-level config
writes (``JobService.patch``) and host failures with a later recovery — at
a per-workload intensity, so the update-apply, failover and SLO metrics
are measured on all of them. ``config-churn`` is the workload built
around them; on the other two they are a light background.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro import JobSpec, PlatformConfig, Turbine
from repro.chaos.convergence import ConvergenceChecker
from repro.errors import TurbineError
from repro.cluster.resources import ResourceVector
from repro.jobs.configs import ConfigLevel, config_diff
from repro.jobs.model import KEY_PACKAGE, KEY_TASK_COUNT, KEY_THREADS
from repro.jobs.store import JobStore
from repro.scaler import AutoScalerConfig
from repro.types import SLO, TaskState
from repro.workloads import DiurnalPattern, ScubaFleet, TrafficDriver
from repro.workloads.spikes import Spike, SpikeSchedule

#: A write must reach every running task, and a failed host's tasks must
#: all run again, within this many simulated seconds; later is a failed
#: operation. Operations stop this long before a pass ends, so every one
#: of them has its full deadline inside the pass.
OP_DEADLINE = 600.0
#: Operations start this many simulated seconds into a pass, once the
#: platform has started every task.
WARMUP = 300.0
#: Seconds after a host failure in which no config write is issued.
FAILOVER_QUIET = 120.0
#: Simulated seconds between checks of pending operations.
PROBE_INTERVAL = 5.0
#: After the timed run, the platform must place every task again within
#: this many simulated seconds (see ``invariant_violations``).
SETTLE_DEADLINE = 600.0

#: Seed of the Scuba fleet's table sizes, and the stride that spreads
#: tables of similar size over the spike slots (coprime with the fleet's
#: 300 tables; see ``scuba_autoscale``).
SCUBA_FLEET_SEED = 5
SPIKE_STRIDE = 187

RateFn = Callable[[float], float]


@dataclass(frozen=True)
class Write:
    time: float
    job_id: str
    changes: Dict[str, object]


@dataclass(frozen=True)
class HostFailure:
    time: float
    host_id: str
    recover_at: float


@dataclass
class Inputs:
    """Everything one pass needs, generated from the seed alone."""

    num_hosts: int
    config: PlatformConfig
    specs: List[JobSpec]
    partitions: int
    rates: List[Tuple[str, RateFn]]
    writes: List[Write]
    failures: List[HostFailure]
    driver_tick: float = 60.0
    scaler: Optional[AutoScalerConfig] = None


@dataclass
class OpsTracker:
    """Issues the scheduled operations and times how long each takes to land.

    Its checks read the platform only (``JobStore.merged_expected`` is
    called through the class so a traced run does not count them as
    platform merges); their wall time is accumulated in ``probe_wall`` so
    the timing loop can leave it out.
    """

    platform: Turbine
    attempted: int = 0
    failed: int = 0
    apply_seconds: List[float] = field(default_factory=list)
    restore_seconds: List[float] = field(default_factory=list)
    probe_wall: float = 0.0
    _writes: Dict[str, List[float]] = field(default_factory=dict)
    _failovers: List[Tuple[float, set]] = field(default_factory=list)

    def schedule(self, inputs: Inputs) -> None:
        engine = self.platform.engine
        for write in inputs.writes:
            engine.call_at(write.time, lambda w=write: self._write(w))
        for failure in inputs.failures:
            engine.call_at(failure.time, lambda f=failure: self._fail(f))
            engine.call_at(
                failure.recover_at,
                lambda f=failure: self.platform.recover_host(f.host_id),
            )
        engine.every(PROBE_INTERVAL, self._probe, name="bench-probe")

    def _write(self, write: Write) -> None:
        self.attempted += 1
        try:
            self.platform.job_service.patch(
                write.job_id, ConfigLevel.ONCALL, dict(write.changes)
            )
        except TurbineError:
            self.failed += 1
            return
        self._writes.setdefault(write.job_id, []).append(self.platform.now)

    def _fail(self, failure: HostFailure) -> None:
        platform = self.platform
        self.attempted += 1
        victims = {
            (task.spec.job_id, task_id)
            for manager in platform.task_managers.values()
            if manager.alive and manager.container.host_id == failure.host_id
            for task_id, task in manager.tasks.items()
            if task.state == TaskState.RUNNING
        }
        try:
            platform.failures.fail_now(failure.host_id, label="perfbench")
        except TurbineError:
            self.failed += 1
            return
        self._failovers.append((platform.now, victims))

    def _probe(self) -> None:
        if not self._writes and not self._failovers:
            return
        started = perf_counter()
        platform = self.platform
        now = platform.now
        running = set(platform.running_tasks())
        for job_id in list(self._writes):
            if self._applied(job_id, running):
                self.apply_seconds.extend(
                    now - t for t in self._writes.pop(job_id)
                )
            else:
                self._expire(job_id, now)
        still = []
        for failed_at, victims in self._failovers:
            victims = {
                (job_id, task_id) for job_id, task_id in victims
                if task_id not in running and task_id in {
                    spec.task_id
                    for spec in platform.task_service.specs_of(job_id)
                }
            }
            if not victims:
                self.restore_seconds.append(now - failed_at)
            elif now - failed_at > OP_DEADLINE:
                self.failed += 1
            else:
                still.append((failed_at, victims))
        self._failovers = still
        self.probe_wall += perf_counter() - started

    def _applied(self, job_id: str, running: set) -> bool:
        store = self.platform.job_store
        expected = JobStore.merged_expected(store, job_id)
        if config_diff(store.read_running(job_id).config, expected):
            return False
        specs = self.platform.task_service.specs_of(job_id)
        return len(specs) == expected[KEY_TASK_COUNT] and all(
            spec.task_id in running for spec in specs
        )

    def _expire(self, job_id: str, now: float) -> None:
        """Count writes past their deadline as failed and stop tracking them."""
        times = self._writes[job_id]
        live = [t for t in times if now - t <= OP_DEADLINE]
        self.failed += len(times) - len(live)
        if live:
            self._writes[job_id] = live
        else:
            del self._writes[job_id]


# ----------------------------------------------------------------------
# Input generation
# ----------------------------------------------------------------------
def _rng(name: str, seed: int) -> random.Random:
    # String seeds hash through SHA-512, so they are stable across runs.
    return random.Random(f"perfbench/{name}/{seed}")


def _strata(rng: random.Random, count: int) -> List[float]:
    """``count`` points in [0, 1), one in each of ``count`` equal strata,
    in random order. Operations placed at these offsets meet the
    platform's periodic timers at evenly spread phases, so the latency
    percentiles do not hinge on how one seed's draws happen to cluster."""
    points = [(index + rng.random()) / count for index in range(count)]
    rng.shuffle(points)
    return points


def _writes(
    rng: random.Random,
    job_ids: List[str],
    gap: float,
    end: float,
    failures: List[HostFailure],
    make_changes: Callable[[random.Random, int, str], Dict[str, object]],
) -> List[Write]:
    """One Oncall write in each ``gap`` seconds from ``WARMUP`` to ``end``,
    so every seed gives the apply percentiles about the same number of
    samples. Jobs are dealt in shuffled rounds, so each gets its share. No write
    lands within ``FAILOVER_QUIET`` seconds after a host failure: a write
    to a job whose tasks are being failed over would time the failover,
    which ``failover_restore_p50_s`` already measures."""
    order = list(job_ids)
    writes = []
    for index, offset in enumerate(_strata(rng, int((end - WARMUP) // gap))):
        if index % len(order) == 0:
            rng.shuffle(order)
        job_id = order[index % len(order)]
        changes = make_changes(rng, index, job_id)
        t = WARMUP + (index + offset) * gap
        if not any(0.0 <= t - f.time < FAILOVER_QUIET for f in failures):
            writes.append(Write(t, job_id, changes))
    return writes


def _failures(rng: random.Random, hosts: int, end: float) -> List[HostFailure]:
    """Every host fails once between ``WARMUP`` and ``end``, in shuffled
    order, one in each of ``hosts`` equal periods, and recovers half a
    period later, so at most one host is down at a time. Failing each
    host once means every task is hit about once whatever the seed."""
    period = (end - WARMUP) / hosts
    order = list(range(hosts))
    rng.shuffle(order)
    failures = []
    for index, offset in enumerate(_strata(rng, hosts)):
        t = WARMUP + (index + 0.1 + 0.4 * offset) * period
        failures.append(HostFailure(t, f"host-{order[index]}", t + period / 2))
    return failures


def _release(rng: random.Random, index: int, job_id: str) -> Dict[str, object]:
    return {KEY_PACKAGE: {"name": "stream_engine", "version": f"1.{index + 1}"}}


def steady_diurnal(seed: int, minutes: int) -> Inputs:
    rng = _rng("steady-diurnal", seed)
    end = minutes * 60.0 - OP_DEADLINE
    # Mean loads step evenly from 45 to 60 % of a job's capacity and daily
    # peaks are evenly spread over the day; the seed deals both out to
    # the jobs, so the fleet's total input barely depends on it.
    jobs, tasks = 32, 4
    loads = [0.45 + 0.15 * index / (jobs - 1) for index in range(jobs)]
    rng.shuffle(loads)
    offset = rng.random()
    specs, rates = [], []
    for index, load in enumerate(loads):
        specs.append(JobSpec(
            job_id=f"diurnal/job-{index:02d}",
            input_category=f"diurnal-{index:02d}",
            task_count=tasks, task_count_limit=tasks, rate_per_thread_mb=2.0,
            slo=SLO(max_lag_seconds=12.0),
        ))
        rates.append((specs[-1].input_category, DiurnalPattern(
            base_rate_mb=2.0 * tasks * load,
            amplitude=0.3,
            phase=86400.0 * (index + offset) / jobs,
        )))
    job_ids = [spec.job_id for spec in specs]
    failures = _failures(rng, 16, end)
    return Inputs(
        num_hosts=16,
        config=PlatformConfig(containers_per_host=4),
        specs=specs,
        partitions=16 * tasks,
        rates=rates,
        writes=_writes(rng, job_ids, 30.0, end, failures, _release),
        failures=failures,
        driver_tick=10.0,
    )


def scuba_autoscale(seed: int, minutes: int) -> Inputs:
    rng = _rng("scuba-autoscale", seed)
    end = minutes * 60.0 - OP_DEADLINE
    # One fixed Fig. 5 draw: the fleet's log-normal tail would otherwise
    # make its total traffic, and every ratio over it, swing with the seed.
    fleet = ScubaFleet(num_jobs=300, seed=SCUBA_FLEET_SEED)
    specs = [
        replace(spec, slo=SLO(max_lag_seconds=60.0)) for spec in fleet.job_specs()
    ]
    # Every table doubles its traffic for half an hour once, so the Auto
    # Scaler has to follow it up and back down. Spike starts and daily
    # peaks are evenly spread over the tables, which take their slots in
    # order of size with a stride of about 0.618 of the fleet: tables of
    # similar size spike far apart, so how many big tables spike at once
    # does not depend on the seed, which rotates and shifts the slots.
    count = len(specs)
    by_size = sorted(range(count), key=lambda i: -fleet.profiles[i].base_rate_mb)
    rotation, offset = rng.randrange(count), rng.random()
    slots = [0] * count
    for rank, index in enumerate(by_size):
        slots[index] = (rank * SPIKE_STRIDE + rotation) % count
    rates = []
    for slot, profile, spec in zip(slots, fleet.profiles, specs):
        spike = max(0.0, end - 1800.0) * (slot + offset) / count
        rates.append((spec.input_category, SpikeSchedule(
            DiurnalPattern(
                base_rate_mb=profile.base_rate_mb,
                amplitude=0.3,
                phase=86400.0 * (slot + offset) / count,
            ),
            [Spike(spike, spike + 1800.0, 2.0)],
        )))
    job_ids = [spec.job_id for spec in specs]
    failures = _failures(rng, 16, end)
    return Inputs(
        num_hosts=16,
        config=PlatformConfig(
            num_shards=512, containers_per_host=4, step_interval=60.0,
        ),
        specs=specs,
        partitions=8,
        rates=rates,
        writes=_writes(rng, job_ids, 30.0, end, failures, _release),
        failures=failures,
        scaler=AutoScalerConfig(interval=300.0, downscale_after=3600.0),
    )


def config_churn(seed: int, minutes: int) -> Inputs:
    rng = _rng("config-churn", seed)
    end = minutes * 60.0 - OP_DEADLINE
    specs, rates = [], []
    # Fewest single-thread tasks that keep each job under 80 % load, so
    # no write can leave a job short of capacity.
    needed: Dict[str, int] = {}
    for index in range(96):
        job_id = f"churn/job-{index:02d}"
        tasks = rng.randint(2, 6)
        specs.append(JobSpec(
            job_id=job_id, input_category=f"churn-{index:02d}",
            task_count=tasks, task_count_limit=8, rate_per_thread_mb=2.0,
            resources_per_task=ResourceVector(cpu=1.0, memory_gb=1.0),
            slo=SLO(max_lag_seconds=20.0),
        ))
        rate = tasks * 2.0 * rng.uniform(0.3, 0.5)
        needed[job_id] = math.ceil(rate / 1.6)
        rates.append((specs[-1].input_category, lambda t, r=rate: r))
    job_ids = [spec.job_id for spec in specs]
    failures = _failures(rng, 16, end)

    # The three kinds of write are dealt in shuffled rounds, and each one
    # changes the value it writes, so no seed gets more no-op or slow
    # writes than another.
    task_counts = {spec.job_id: spec.task_count for spec in specs}
    threads = {spec.job_id: 1 for spec in specs}
    kinds = [0, 1, 2]

    def change(rng: random.Random, index: int, job_id: str) -> Dict[str, object]:
        if index % len(kinds) == 0:
            rng.shuffle(kinds)
        kind = kinds[index % len(kinds)]
        if kind == 0:
            return _release(rng, index, job_id)
        if kind == 1:
            choices = [n for n in range(needed[job_id], 9) if n != task_counts[job_id]]
            task_counts[job_id] = rng.choice(choices)
            return {KEY_TASK_COUNT: task_counts[job_id]}
        threads[job_id] = rng.choice([n for n in (1, 2, 3) if n != threads[job_id]])
        return {KEY_THREADS: threads[job_id]}

    return Inputs(
        num_hosts=16,
        config=PlatformConfig(containers_per_host=4, step_interval=60.0),
        specs=specs,
        partitions=8,
        rates=rates,
        writes=_writes(rng, job_ids, 22.5, end, failures, change),
        failures=failures,
    )


@dataclass(frozen=True)
class Workload:
    """A named input generator; why each exists is in README.md."""

    name: str
    #: Simulated length of one pass; every pass of a run repeats it.
    minutes: int
    inputs: Callable[[int, int], Inputs]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("steady-diurnal", 120, steady_diurnal),
        Workload("scuba-autoscale", 120, scuba_autoscale),
        Workload("config-churn", 240, config_churn),
    )
}


# ----------------------------------------------------------------------
# Set-up and end-of-pass measurement
# ----------------------------------------------------------------------
@dataclass
class Deployment:
    platform: Turbine
    ops: OpsTracker
    rates: List[Tuple[str, RateFn]]


def deploy(inputs: Inputs, seed: int) -> Deployment:
    """Create, provision and start the platform (the timed set-up)."""
    platform = Turbine.create(
        num_hosts=inputs.num_hosts, seed=seed, config=inputs.config
    )
    if inputs.scaler is not None:
        platform.attach_scaler(inputs.scaler)
    platform.attach_slo()
    for spec in inputs.specs:
        platform.provision(spec, partitions=inputs.partitions)
    driver = TrafficDriver(platform.engine, platform.scribe, tick=inputs.driver_tick)
    for category, rate in inputs.rates:
        driver.add_source(category, rate)
    platform.start()
    driver.start()
    ops = OpsTracker(platform)
    ops.schedule(inputs)
    return Deployment(platform, ops, inputs.rates)


def invariant_violations(platform: Turbine) -> Dict[str, List[str]]:
    """The run-end invariants, by name, with the tasks or shards breaking them.

    Safety is checked as the timed run leaves the platform: no task runs
    twice and none runs for a deleted job. Liveness is checked once the
    inputs that keep moving the target stop: with the Auto Scaler
    stopped, every specified task must run, and every shard sit on a
    live container, within ``SETTLE_DEADLINE`` simulated seconds.
    """
    checker = ConvergenceChecker(platform)
    report = checker.check()
    violations = {
        name: values
        for name, values in (
            ("duplicates", report.duplicates), ("orphans", report.orphans)
        )
        if values
    }
    if platform.scaler is not None:
        platform.scaler.stop()
    settle_end = platform.now + SETTLE_DEADLINE
    while (report.missing or report.unplaced_shards) and platform.now < settle_end:
        platform.run_for(seconds=PROBE_INTERVAL)
        report = checker.check()
    for name, values in (
        ("duplicates", report.duplicates),
        ("orphans", report.orphans),
        ("missing", report.missing),
        ("unplaced_shards", report.unplaced_shards),
    ):
        if values:
            violations.setdefault(name, values)
    return violations


def slo_bad_fraction(platform: Turbine, slo: str) -> float:
    """Mean over jobs of one SLO's ``bad_fraction`` in the SLO report."""
    rows = [
        row["bad_fraction"]
        for row in platform.slo.report()["slos"]
        if row["slo"] == slo
    ]
    return math.fsum(rows) / len(rows) if rows else 0.0


def cpu_reserved_per_mbps(deployment: Deployment) -> float:
    """Cluster reserved CPU cores per MB/s of input at the current time."""
    now = deployment.platform.now
    rate = math.fsum(fn(now) for __, fn in deployment.rates)
    return deployment.platform.cluster.total_reserved().cpu / rate
