"""Tests for the fixpoint checker of the declarative optimizer's state."""

import pytest

from repro.cost.overrides import StatisticsOverlay
from repro.optimizer.check import check_fixpoint, exhaustive_cost
from repro.optimizer.declarative import DeclarativeOptimizer
from repro.optimizer.tables import PruningConfig
from repro.relational.expressions import Expression
from repro.workloads.queries import q3s, q5, q5_expression_chain, q8join
from repro.workloads.tpch import tpch_catalog

CATALOG = tpch_catalog(0.01)

CONFIGS = {
    "none": PruningConfig.none(),
    "evita": PruningConfig.evita_raced(),
    "aggsel": PruningConfig.aggsel(),
    "refcount": PruningConfig.aggsel_refcount(),
    "bounding": PruningConfig.aggsel_bounding(),
    "full": PruningConfig.full(),
}

#: The q5 overlay on which a cold pass used to miss the optimum.
Q5_CELL = [(("customer", "lineitem"), 2**-0.5), (("region", "supplier"), 2**0.5)]


def q5_cell_optimizer(pruning: PruningConfig) -> DeclarativeOptimizer:
    overlay = StatisticsOverlay()
    for aliases, factor in Q5_CELL:
        overlay.set_selectivity_factor(Expression(aliases), factor)
    return DeclarativeOptimizer(q5(), CATALOG, pruning=pruning, overlay=overlay)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_cold_and_incremental_states_are_fixpoints(config_name):
    optimizer = q5_cell_optimizer(CONFIGS[config_name])
    optimizer.optimize()
    assert check_fixpoint(optimizer) == []
    delta = optimizer.update_join_selectivity(q5_expression_chain()["C"], 4.0)
    optimizer.reoptimize([delta])
    assert check_fixpoint(optimizer) == []


def test_a_corrupted_cost_is_named():
    optimizer = DeclarativeOptimizer(q3s(), CATALOG)
    optimizer.optimize()
    # The cheapest alternative of the smallest OR node in the chosen plan.
    leaf = optimizer.enumerator.find(optimizer.root_key)
    while optimizer._left[optimizer._best_alt[leaf]] >= 0:
        leaf = optimizer._left[optimizer._best_alt[leaf]]
    and_id = optimizer._best_alt[leaf]
    optimizer._total[and_id] += 1.0
    violations = check_fixpoint(optimizer)
    assert violations
    first = violations[0]
    assert first.rule == "cost"
    assert first.and_key == optimizer.and_key(and_id)
    assert first.stored == first.expected + 1.0
    assert str(optimizer.and_key(and_id)) in str(first)
    # The OR node's BestCost no longer equals its active minimum either.
    assert any(v.rule == "best" and v.or_key == first.and_key.or_key for v in violations)


def test_stale_costs_are_exempt_only_when_recorded():
    optimizer = DeclarativeOptimizer(q3s(), CATALOG)
    optimizer.optimize()
    pruned = [
        and_id
        for and_id in range(len(optimizer._pruned))
        if optimizer._pruned[and_id] and optimizer._costed[and_id]
    ]
    assert pruned
    and_id = pruned[0]
    optimizer._total[and_id] *= 2.0
    assert [v.rule for v in check_fixpoint(optimizer)] == ["stale"]
    optimizer._stale_retained.add(and_id)
    assert check_fixpoint(optimizer) == []


def test_a_wrong_root_is_caught_by_the_exhaustive_recursion():
    optimizer = DeclarativeOptimizer(q3s(), CATALOG)
    result = optimizer.optimize()
    assert exhaustive_cost(optimizer, optimizer.root_key) == pytest.approx(result.cost, rel=1e-9)
    root = optimizer.enumerator.find(optimizer.root_key)
    optimizer._best_value[root] += 5.0
    rules = {v.rule for v in check_fixpoint(optimizer)}
    assert "optimum" in rules and "best" in rules


def test_large_queries_skip_the_exhaustive_recursion():
    optimizer = DeclarativeOptimizer(q8join(), CATALOG)
    optimizer.optimize()
    assert len(optimizer.root_key.expression) > 6
    assert check_fixpoint(optimizer) == []
