"""Regression tests: retained costs of dead regions must not stay stale.

During the initial pass, reference counting kills regions whose parents were
all pruned, and (for efficiency) their retained costs are not maintained while
the rest of the search space keeps improving.  ``reoptimize`` relies on
retained costs to decide re-introduction, so it must refresh the stale ones
before trusting them.  The historical failure mode (set-iteration-order
dependent, so it only surfaced on some runs): a dead region's stale-high
BestCost made the true optimum lose at the root, producing an incremental
cost above the from-scratch cost.
"""

import pytest

from repro.optimizer.baselines.volcano import VolcanoOptimizer
from repro.optimizer.check import check_fixpoint
from repro.optimizer.declarative import DeclarativeOptimizer
from repro.optimizer.tables import PruningConfig
from repro.workloads.queries import q5_expression_chain, q5s
from repro.workloads.tpch import tpch_catalog

CONFIGS = {
    "refcount": PruningConfig.aggsel_refcount(),
    "full": PruningConfig.full(),
}


def assert_retained_costs_consistent(optimizer: DeclarativeOptimizer) -> None:
    """Every stored plan cost must match a recomputation from current state."""
    violations = check_fixpoint(optimizer)
    assert not violations, "\n".join(str(violation) for violation in violations)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("label,factor", [("D", 2.0), ("C", 4.0), ("E", 0.25)])
def test_no_stale_retained_costs_after_reoptimize(config_name, label, factor):
    catalog = tpch_catalog(0.01)
    optimizer = DeclarativeOptimizer(q5s(), catalog, pruning=CONFIGS[config_name])
    optimizer.optimize()
    delta = optimizer.update_join_selectivity(q5_expression_chain()[label], factor)
    optimizer.reoptimize([delta])
    assert_retained_costs_consistent(optimizer)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_reoptimize_matches_scratch_after_refcount_kills(config_name):
    """The historical counterexample: D×2.0 under the refcount config."""
    catalog = tpch_catalog(0.01)
    optimizer = DeclarativeOptimizer(q5s(), catalog, pruning=CONFIGS[config_name])
    optimizer.optimize()
    delta = optimizer.update_join_selectivity(q5_expression_chain()["D"], 2.0)
    result = optimizer.reoptimize([delta])
    scratch = VolcanoOptimizer(
        q5s(), catalog, overlay=optimizer.cost_model.overlay.copy()
    ).optimize()
    assert result.cost == pytest.approx(scratch.cost, rel=1e-6)


def test_repeated_reoptimization_stays_consistent():
    """Several rounds of changes keep retained state consistent throughout."""
    catalog = tpch_catalog(0.01)
    optimizer = DeclarativeOptimizer(q5s(), catalog, pruning=PruningConfig.aggsel_refcount())
    optimizer.optimize()
    expressions = q5_expression_chain()
    for label, factor in [("D", 2.0), ("B", 8.0), ("D", 0.5), ("E", 4.0)]:
        delta = optimizer.update_join_selectivity(expressions[label], factor)
        result = optimizer.reoptimize([delta])
        assert_retained_costs_consistent(optimizer)
        scratch = VolcanoOptimizer(
            q5s(), catalog, overlay=optimizer.cost_model.overlay.copy()
        ).optimize()
        assert result.cost == pytest.approx(scratch.cost, rel=1e-6)
