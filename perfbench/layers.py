"""Outside-in per-layer timing for a traced pass.

:class:`LayerClock` is installed as the engine's public per-event hook
(``Engine.instrumentation``; the engine calls ``record_event(engine,
callback)`` for every event) and wraps a few public methods on the live
instances. Every engine event becomes a root span named after the layer
that owns it — found from ``Timer.name`` — and every wrapped call inside
it becomes a child span. Nothing under ``src/`` knows it is being timed:
the clock only reads ``perf_counter`` and counts, so a traced pass must
end in the same platform state as an untraced one (the benchmark checks
this through the fingerprint digest).

Spans are kept in memory as parallel lists and written out at the end.
A span's self time is its duration minus the time its children cover.
``sim.engine`` is what no span covers: the traced wall time minus every
root span, i.e. event-queue dispatch plus the benchmark's minute loop.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.sim.engine import Timer

#: Layers in report order. Timer names map onto them below; a wrapped
#: method names its layer directly. Anything else lands in ``other``.
LAYERS = (
    "tasks.step",
    "tasks.heartbeat",
    "tasks.refresh",
    "tasks.load_report",
    "tasks.shard_manager.failover",
    "tasks.shard_manager.rebalance",
    "tasks.stats",
    "jobs.syncer",
    "jobs.store.merge",
    "jobs.service.update",
    "metrics.store",
    "obs.slo",
    "scaler",
    "workloads.driver",
    "setup",
    "bench.ops",
    "bench.probe",
    "other",
    "sim.engine",
)

_TIMER_LAYERS = {
    "shard-manager-failover": "tasks.shard_manager.failover",
    "shard-manager-rebalance": "tasks.shard_manager.rebalance",
    "job-stats": "tasks.stats",
    "state-syncer": "jobs.syncer",
    "slo-tracker": "obs.slo",
    "auto-scaler": "scaler",
    "traffic-driver": "workloads.driver",
    "bench-probe": "bench.probe",
}

#: Per-container Task Manager timers are named ``<container>-<role>``;
#: the parallel data plane's single timer is ``data-plane-step``.
_TIMER_SUFFIXES = (
    ("-step", "tasks.step"),
    ("-heartbeat", "tasks.heartbeat"),
    ("-refresh", "tasks.refresh"),
    ("-load-report", "tasks.load_report"),
)


def timer_layer(name: str) -> str:
    layer = _TIMER_LAYERS.get(name)
    if layer is not None:
        return layer
    for suffix, layer in _TIMER_SUFFIXES:
        if name.endswith(suffix):
            return layer
    return "other"


class LayerClock:
    """Engine instrumentation that records layer spans and counts."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._open: List[int] = []
        self.counts: Counter = Counter()
        self._layer_cache: Dict[str, str] = {}
        self._before: Dict[str, Callable[[Timer], None]] = {}
        self._after: Dict[str, Callable[[Timer], None]] = {}
        self._call_counters: Dict[str, Callable[[], int]] = {}

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def enter(self, layer: str) -> int:
        index = len(self.names)
        self.names.append(layer)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(perf_counter())
        return index

    def exit(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._open.pop()

    def record_event(self, engine, callback) -> None:
        """The engine's per-event hook: one root span per event."""
        self.counts["sim.engine.events"] += 1
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, Timer):
            layer = self._layer_cache.get(owner.name)
            if layer is None:
                layer = self._layer_cache[owner.name] = timer_layer(owner.name)
            before = self._before.get(layer)
            if before is not None:
                before(owner)
            index = self.enter(layer)
            try:
                callback()
            finally:
                self.exit(index)
            after = self._after.get(layer)
            if after is not None:
                after(owner)
            return
        # One-shot events: the benchmark's own operations, or a
        # program-internal retry (e.g. a Task Manager reconnect).
        module = getattr(callback, "__module__", "") or ""
        index = self.enter("bench.ops" if "perfbench" in module else "other")
        try:
            callback()
        finally:
            self.exit(index)

    def around_timers(
        self,
        layer: str,
        before: Optional[Callable[[Timer], None]] = None,
        after: Optional[Callable[[Timer], None]] = None,
    ) -> None:
        """Run ``before``/``after`` outside the span of every event of
        ``layer`` (used to count work the event is about to do)."""
        if before is not None:
            self._before[layer] = before
        if after is not None:
            self._after[layer] = after

    def wrap(self, obj, attr: str, layer: str) -> None:
        """Time every call of ``obj.attr`` as a child span of ``layer``."""
        original = getattr(obj, attr)
        enter, exit_ = self.enter, self.exit

        def timed(*args, **kwargs):
            index = enter(layer)
            try:
                return original(*args, **kwargs)
            finally:
                exit_(index)

        setattr(obj, attr, timed)

    def count_calls(self, obj, attr: str, name: str) -> None:
        """Count calls of the two-argument method ``obj.attr`` under
        ``name``, without a span (for calls too frequent to time)."""
        original = getattr(obj, attr)
        calls = 0

        def counted(first, second):
            nonlocal calls
            calls += 1
            return original(first, second)

        setattr(obj, attr, counted)
        self._call_counters[name] = lambda: calls

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def call_count(self, name: str) -> int:
        return self._call_counters[name]()

    def layer_table(self, wall: float) -> Dict[str, Dict[str, float]]:
        """Per layer: inclusive and self seconds, share of ``wall``, calls.

        Inclusive time counts a span only when no ancestor belongs to the
        same layer, so nested calls are not counted twice. The shares of
        all layers, ``sim.engine`` included, sum to one.
        """
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child_time = [0.0] * len(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += durations[index]
        table = {
            layer: {"incl_s": 0.0, "self_s": 0.0, "calls": 0}
            for layer in LAYERS
        }
        names, parents = self.names, self.parents
        roots = 0.0
        for index, layer in enumerate(names):
            row = table[layer]
            row["calls"] += 1
            row["self_s"] += durations[index] - child_time[index]
            parent = parents[index]
            if parent < 0:
                roots += durations[index]
            while parent >= 0 and names[parent] != layer:
                parent = parents[parent]
            if parent < 0:
                row["incl_s"] += durations[index]
        engine = table["sim.engine"]
        engine["incl_s"] = engine["self_s"] = wall - roots
        engine["calls"] = self.counts["sim.engine.events"]
        for row in table.values():
            row["share"] = row["self_s"] / wall if wall > 0 else 0.0
        return table

    def write_spans(self, path, origin: float) -> None:
        """Gzipped, one JSON line per span: id, parent, name, start and
        end in microseconds from ``origin``."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for index, name in enumerate(self.names):
                out.write(json.dumps([
                    index, self.parents[index], name,
                    round((self.starts[index] - origin) * 1e6, 1),
                    round((self.ends[index] - origin) * 1e6, 1),
                ]) + "\n")
