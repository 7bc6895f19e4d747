"""Section VI-A scalar claim — placement speed.

"each execution of the placement algorithm computing the mapping of 100K
shards onto thousands of Turbine containers takes less than two seconds."
"""

import time

from repro.cluster import ResourceVector
from repro.sim import SeededRng
from repro.tasks import PlacementCache, compute_assignment


def build_tier(num_shards=100_000, num_containers=3_000, seed=1):
    rng = SeededRng(seed)
    shards = {
        f"shard-{i:06d}": ResourceVector(
            cpu=rng.uniform(0.01, 1.0), memory_gb=rng.uniform(0.1, 2.0)
        )
        for i in range(num_shards)
    }
    containers = {
        f"turbine-{i:05d}": ResourceVector(cpu=10.0, memory_gb=26.0)
        for i in range(num_containers)
    }
    return shards, containers


def run_once(benchmark, fn):
    """Run ``fn`` once under the benchmark fixture; return its result and
    wall seconds. With ``--benchmark-disable`` the fixture keeps no
    stats, so the call is timed with ``time.perf_counter()`` instead."""
    elapsed = []

    def timed():
        start = time.perf_counter()
        result = fn()
        elapsed.append(time.perf_counter() - start)
        return result

    result = benchmark.pedantic(timed, rounds=1, iterations=1)
    if benchmark.stats is not None:
        return result, benchmark.stats.stats.max
    return result, elapsed[0]


def test_place_100k_shards_under_two_seconds(benchmark):
    shards, containers = build_tier()

    def place():
        return compute_assignment(shards, containers)

    change, elapsed = run_once(benchmark, place)
    print(f"\n100K shards -> 3K containers in {elapsed:.2f}s (paper: <2s)")
    assert elapsed < 2.0
    assert len(change.assignment) == len(shards)


def test_incremental_rebalance_is_faster(benchmark):
    """Periodic rebalancing reuses the existing assignment, so the steady
    state round is cheaper than the cold placement."""
    shards, containers = build_tier(num_shards=50_000, num_containers=1_500)
    first = compute_assignment(shards, containers)

    def rebalance():
        return compute_assignment(shards, containers, current=first.assignment)

    change = benchmark.pedantic(rebalance, rounds=1, iterations=1)
    assert change.num_moves < len(shards) * 0.05, (
        "a quiet tier moves almost nothing"
    )


def test_cache_hit_round_5x_faster_than_cold_compute(benchmark):
    """The decision cache's payoff: an unchanged tier's placement round is
    an input comparison, not a bin-packing run. The issue's acceptance bar
    is ≥5x; the observed gap is far larger."""
    shards, containers = build_tier(num_shards=50_000, num_containers=1_500)
    cache = PlacementCache()

    start = time.perf_counter()
    first = cache.compute(shards, containers)
    cold_elapsed = time.perf_counter() - start
    assert cache.misses == 1

    current = dict(first.assignment)

    def hit_round():
        return cache.compute(shards, containers, current)

    change, hit_elapsed = run_once(benchmark, hit_round)
    assert cache.hits >= 1, "unchanged inputs must be served from the cache"
    assert change.assignment == first.assignment
    assert change.moves == []

    speedup = cold_elapsed / max(hit_elapsed, 1e-9)
    print(
        f"\nunchanged tier (50K shards): cold {cold_elapsed * 1e3:.0f}ms, "
        f"cache hit {hit_elapsed * 1e3:.1f}ms ({speedup:,.0f}x)"
    )
    assert speedup >= 5.0


def test_repair_round_faster_than_cold_compute(benchmark):
    """A bounded delta (one load report changed) re-runs the packing with
    memoized scalar loads — cheaper than cold, identical result."""
    shards, containers = build_tier(num_shards=50_000, num_containers=1_500)
    cache = PlacementCache()
    first = cache.compute(shards, containers)
    current = dict(first.assignment)
    shards = dict(shards)
    shards["shard-025000"] = ResourceVector(cpu=0.9, memory_gb=1.9)

    def repair_round():
        return cache.compute(shards, containers, current)

    change = benchmark.pedantic(repair_round, rounds=1, iterations=1)
    assert cache.repairs >= 1
    fresh = compute_assignment(shards, containers, current=current)
    assert change.assignment == fresh.assignment
    assert change.moves == fresh.moves
