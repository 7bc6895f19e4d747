"""Property suite for the load-aware LPT partition plan.

Three guarantees back the synthetic fleet substrate's use of
:meth:`PartitionPlan.load_aware` (``repro parallel --load-aware``):

* **never worse than modulo** — the greedy pack falls back to the modulo
  fold whenever it would lose on max-partition cost, so attaching the
  load-aware plan can only shrink the wall-clock bound;
* **deterministic** — the plan is a pure function of its inputs, and the
  *packing* (the partition-cost multiset) is a function of the cost
  multiset alone, so permuting which shard carries which cost cannot
  change how well the fleet balances;
* **value semantics** — a plan pickled to a worker answers ownership
  queries identically to the coordinator's original.

Integer costs keep every load sum exact, so the permutation property is
a strict equality rather than a float-tolerance check.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.parallel import PartitionPlan, measure_shard_costs, standard_fleet

COSTS = st.lists(
    st.integers(min_value=0, max_value=10**9), min_size=1, max_size=48
)


@st.composite
def costs_and_width(draw):
    costs = draw(COSTS)
    width = draw(st.integers(min_value=1, max_value=len(costs)))
    return costs, width


@settings(max_examples=120, deadline=None)
@given(case=costs_and_width())
def test_load_aware_never_worse_than_modulo(case):
    costs, width = case
    plan = PartitionPlan.load_aware(len(costs), width, costs)
    modulo = PartitionPlan(len(costs), width)
    assert plan.max_cost(costs) <= modulo.max_cost(costs)
    # Same total spread over the same partition count: beating modulo on
    # max cost means beating it on skew too.
    assert plan.skew(costs) <= modulo.skew(costs) + 1e-12


@settings(max_examples=120, deadline=None)
@given(case=costs_and_width())
def test_plan_is_deterministic(case):
    costs, width = case
    first = PartitionPlan.load_aware(len(costs), width, costs)
    second = PartitionPlan.load_aware(len(costs), width, list(costs))
    assert first == second
    assert first.assignment == second.assignment


@settings(max_examples=80, deadline=None)
@given(case=costs_and_width(), data=st.data())
def test_packing_invariant_under_cost_permutation(case, data):
    """Permuting shard costs permutes the assignment, not the packing."""
    costs, width = case
    permuted = data.draw(st.permutations(costs))
    original = PartitionPlan.lpt(len(costs), width, costs)
    shuffled = PartitionPlan.lpt(len(costs), width, permuted)
    assert sorted(original.partition_costs(costs)) == sorted(
        shuffled.partition_costs(permuted)
    )
    assert original.max_cost(costs) == shuffled.max_cost(permuted)


@settings(max_examples=80, deadline=None)
@given(case=costs_and_width())
def test_plan_tiles_the_shard_space(case):
    costs, width = case
    plan = PartitionPlan.load_aware(len(costs), width, costs)
    covered = sorted(
        shard for p in range(width) for shard in plan.shards_of(p)
    )
    assert covered == list(range(len(costs)))
    for shard in range(len(costs)):
        owners = [p for p in range(width) if plan.owns_shard(shard, p)]
        assert owners == [plan.partition_of_shard(shard)]


@settings(max_examples=80, deadline=None)
@given(case=costs_and_width())
def test_plan_pickle_round_trip_is_stable(case):
    costs, width = case
    plan = PartitionPlan.load_aware(len(costs), width, costs)
    clone = pickle.loads(pickle.dumps(plan))
    assert clone == plan
    assert clone.assignment == plan.assignment
    assert [clone.partition_of_shard(s) for s in range(len(costs))] == [
        plan.partition_of_shard(s) for s in range(len(costs))
    ]
    assert clone.partition_costs(costs) == plan.partition_costs(costs)


def test_lpt_beats_modulo_on_100k_task_fleet():
    """Acceptance: LPT max-partition cost <= modulo's at fleet scale."""
    spec = standard_fleet(
        seed=0, total_tasks=100_000, num_jobs=100, num_shards=256
    )
    costs = measure_shard_costs(spec, rounds=1)
    assert len(costs) == 256
    assert all(c >= 0 for c in costs)
    for width in (2, 4, 8):
        plan = PartitionPlan.load_aware(256, width, costs)
        modulo = PartitionPlan(256, width)
        assert plan.max_cost(costs) <= modulo.max_cost(costs)
    # Measurement is a pure function of (spec, rounds): every process
    # derives the same costs, hence the same plan, without coordination.
    again = measure_shard_costs(
        standard_fleet(
            seed=0, total_tasks=100_000, num_jobs=100, num_shards=256
        ),
        rounds=1,
    )
    assert again == costs
