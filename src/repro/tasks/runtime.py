"""The simulated task runtime — the data plane.

In production this is the stream-processing engine binary; here it is a
model that preserves the behaviours the control plane observes and reacts
to:

* each task drains its disjoint Scribe partition slice at a rate bounded by
  ``P · k`` (the per-thread max stable rate times the thread count,
  equation 2 of the paper) — tasks are the unit of processing capacity;
* CPU usage is proportional to bytes processed ("CPU consumption is
  approximately proportional to the size of input and output data",
  section V-B);
* memory usage is a base footprint (~0.4 GB, the floor visible in Fig. 5b)
  plus a few seconds of buffered input, plus — for stateful jobs — a
  key-cardinality term;
* a task whose memory need exceeds its reservation crashes with OOM, which
  the Task Manager reports to the scaler's symptom detector;
* progress is checkpointed per partition, so restarts resume exactly where
  the previous incarnation stopped.

Each container's Task Manager advances its own tasks on its ``-step``
timer through :meth:`RunningTask.step`; that is the only step path.
"""

from __future__ import annotations

from typing import List, Optional

from repro.scribe.bus import ScribeBus
from repro.scribe.partition import Partition
from repro.tasks.spec import TaskSpec
from repro.types import Seconds, TaskState

#: Memory floor per task: "every task consumes at least ~400MB, regardless
#: of the input traffic volume" (paper section VI, Fig. 5b).
BASE_MEMORY_GB = 0.4

#: Seconds of input data a task buffers in memory ("a tailer holds a few
#: seconds worth of data in memory before processing and flushing").
BUFFER_SECONDS = 5.0

#: GB of input buffered per MB/s of input rate is BUFFER_SECONDS / 1000;
#: state memory per million keys for stateful jobs:
STATE_GB_PER_MILLION_KEYS = 0.25

#: Partition count used when a task's output category does not exist yet
#: (the downstream consumer's provisioning normally creates it first).
DEFAULT_OUTPUT_PARTITIONS = 32

#: Disk per million keys for stateful jobs (spill + checkpointed state).
DISK_GB_PER_MILLION_KEYS = 1.0

#: Rate at which a stateful task restores its state from persistent
#: storage on (re)start, MB/s. "Stateful jobs ... must restore relevant
#: parts of the state on restarts" (paper section V-B) — restore time is
#: what makes stateful rescaling slower than stateless.
STATE_RESTORE_RATE_MB = 200.0


class RunningTask:
    """One task instance executing inside a Turbine container."""

    def __init__(
        self, spec: TaskSpec, scribe: ScribeBus, passive: bool = False
    ) -> None:
        self.spec = spec
        self._scribe = scribe
        self.state = TaskState.STANDBY if passive else TaskState.RUNNING
        #: True once a passive standby has been promoted to primary.
        self.promoted = False
        self.oom_count = 0
        #: Bytes (MB) processed since start, for per-task rate metrics.
        self.total_processed_mb = 0.0
        #: Most recent step's processing rate (MB/s) and cpu cores used.
        self.last_rate_mb = 0.0
        self.last_cpu_used = 0.0
        self._partitions: Optional[List[Partition]] = None
        #: Stateful tasks must re-load their state before processing.
        #: A passive standby tails the primary's checkpoint stream, so its
        #: state is already warm — promotion skips the restore entirely
        #: (that is the whole point of paying for the replica).
        self.restore_remaining_mb = (
            0.0 if passive else self._initial_state_mb()
        )

    def _initial_state_mb(self) -> float:
        if not self.spec.stateful or self.spec.task_count <= 0:
            return 0.0
        keys_here = self.spec.state_key_cardinality / self.spec.task_count
        return (keys_here / 1e6) * STATE_GB_PER_MILLION_KEYS * 1000.0

    @property
    def restoring(self) -> bool:
        """True while state restore is still in progress."""
        return self.restore_remaining_mb > 1e-9

    # ------------------------------------------------------------------
    # Partition ownership
    # ------------------------------------------------------------------
    @property
    def partitions(self) -> List[Partition]:
        """The disjoint partition slice this task owns (lazy lookup)."""
        if self._partitions is None:
            if not self.spec.input_category:
                self._partitions = []
            else:
                category = self._scribe.get_category(self.spec.input_category)
                self._partitions = category.partition_slice(
                    self.spec.task_index, self.spec.task_count
                )
        return self._partitions

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def max_rate_mb(self) -> float:
        """Maximum stable processing rate: ``P · k`` (equation 2)."""
        return self.spec.rate_per_thread_mb * self.spec.threads

    def desired_cores(self, dt: Seconds) -> float:
        """CPU cores this task would burn next step, given its backlog.

        Used by the Task Manager's contention model: the container's
        cgroup limit is shared, so when the sum of desired cores exceeds
        the container's CPU capacity, every task is throttled
        proportionally.
        """
        if self.state != TaskState.RUNNING or dt <= 0:
            return 0.0
        if self.restoring:
            return 1.0
        desired_mb = min(self.max_rate_mb() * dt, self.bytes_lagged_mb())
        if self.spec.rate_per_thread_mb <= 0:
            return 0.0
        return (desired_mb / dt) / self.spec.rate_per_thread_mb

    def step(self, dt: Seconds, throttle: float = 1.0) -> float:
        """Process up to ``max_rate · dt · throttle`` MB from the owned
        partitions.

        ``throttle`` in (0, 1] models cgroup CPU contention within the
        Turbine container. Returns MB processed. Updates checkpoints,
        usage metrics, and the task's OOM state. A crashed/stopped task
        processes nothing.
        """
        if self.state != TaskState.RUNNING or dt <= 0:
            self.last_rate_mb = 0.0
            self.last_cpu_used = 0.0
            return 0.0
        throttle = min(1.0, max(0.0, throttle))

        # Spend the step on state restore first; leftover time processes.
        if self.restoring:
            restored = min(self.restore_remaining_mb, STATE_RESTORE_RATE_MB * dt)
            self.restore_remaining_mb -= restored
            dt -= restored / STATE_RESTORE_RATE_MB
            if dt <= 1e-12:
                self.last_rate_mb = 0.0
                self.last_cpu_used = 1.0  # restore is I/O+CPU heavy
                return 0.0

        budget = self.max_rate_mb() * dt * throttle
        processed = 0.0
        checkpoints = self._scribe.checkpoints
        job_id = self.spec.job_id
        # Max-min fair water-filling across the owned partitions: visiting
        # them in ascending order of availability and giving each
        # ``budget / remaining`` guarantees every backlogged partition gets
        # its fair share AND all leftover capacity reaches the hot ones —
        # a skewed partition is never starved to ``capacity / n``.
        #
        # One hard ceiling remains: a partition is a serial stream with a
        # single reader thread, so no partition can be drained faster than
        # one thread's rate (``P · dt``). This is why shuffling work across
        # *partitions* — not just adding threads — matters for hot keys.
        per_partition_cap = self.spec.rate_per_thread_mb * dt * throttle
        entries = []
        for partition in self.partitions:
            offset = checkpoints.get(job_id, partition.partition_id)
            entries.append((partition.readable(offset), partition, offset))
        entries.sort(key=lambda entry: entry[0])
        remaining = len(entries)
        for available, partition, offset in entries:
            if budget <= 1e-12:
                break
            share = budget / remaining
            consumed = min(available, share, per_partition_cap)
            if consumed > 0:
                checkpoints.commit(
                    job_id, partition.partition_id, offset + consumed
                )
                processed += consumed
                budget -= consumed
            remaining -= 1

        self.total_processed_mb += processed
        # Downstream publish: a job in the middle of a pipeline writes its
        # (reduced) output to another set of Scribe partitions.
        if processed > 0 and self.spec.output_category:
            output = self._scribe.ensure_category(
                self.spec.output_category, DEFAULT_OUTPUT_PARTITIONS
            )
            output.append(processed * self.spec.output_ratio)
        self.last_rate_mb = processed / dt
        # CPU ∝ processed bytes; a saturated thread uses ~1 core.
        if self.spec.rate_per_thread_mb > 0:
            self.last_cpu_used = self.last_rate_mb / self.spec.rate_per_thread_mb
        else:
            self.last_cpu_used = 0.0

        self._check_memory()
        return processed

    def disk_needed_gb(self) -> float:
        """Local disk this task holds (stateful state spill + checkpoints).

        "For a join operator, the memory/disk size is proportional to the
        join window size, the degree of input matching, and the degree of
        input disorder" — modelled, like memory, as proportional to the
        per-task key cardinality.
        """
        if not self.spec.stateful or self.spec.task_count <= 0:
            return 0.0
        keys_here = self.spec.state_key_cardinality / self.spec.task_count
        return (keys_here / 1e6) * DISK_GB_PER_MILLION_KEYS

    def memory_needed_gb(self) -> float:
        """Memory this task needs at its current processing rate."""
        needed = (
            BASE_MEMORY_GB
            + self.spec.memory_overhead_gb
            + self.last_rate_mb * BUFFER_SECONDS / 1000.0
        )
        if self.spec.stateful and self.spec.task_count > 0:
            keys_here = self.spec.state_key_cardinality / self.spec.task_count
            needed += (keys_here / 1e6) * STATE_GB_PER_MILLION_KEYS
        return needed

    def _check_memory(self) -> None:
        reserved = self.spec.resources.memory_gb
        if reserved > 0 and self.memory_needed_gb() > reserved:
            # cgroup kill: stats are preserved and read back on restart
            # (paper section V-A).
            self.state = TaskState.CRASHED
            self.oom_count += 1

    # ------------------------------------------------------------------
    # Lag accounting
    # ------------------------------------------------------------------
    def bytes_lagged_mb(self) -> float:
        """Unprocessed bytes across this task's partitions."""
        checkpoints = self._scribe.checkpoints
        return sum(
            partition.available(
                checkpoints.get(self.spec.job_id, partition.partition_id)
            )
            for partition in self.partitions
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop cleanly; the checkpoint already reflects all processed data."""
        self.state = TaskState.STOPPED

    def restart(self) -> None:
        """Restart after a crash; resumes from the committed checkpoints.

        A stateful task restores its persistent state again — restarts of
        stateful jobs are never free.
        """
        self.state = TaskState.RUNNING
        self.restore_remaining_mb = self._initial_state_mb()

    def promote(self) -> None:
        """Promote a passive standby to primary.

        The replica has been tailing the primary's checkpoint stream, so
        it starts processing immediately — no reboot clock, no state
        restore. Promoting a non-standby is a bug, not a no-op.
        """
        if self.state != TaskState.STANDBY:
            raise ValueError(
                f"cannot promote {self.spec.task_id}: state is "
                f"{self.state.value}, not standby"
            )
        self.state = TaskState.RUNNING
        self.promoted = True

    def __repr__(self) -> str:
        return (
            f"RunningTask({self.spec.task_id!r}, {self.state.value}, "
            f"rate={self.last_rate_mb:.2f}MB/s)"
        )
