"""Property-based test of the paper's central invariant.

For *any* sequence of statistics changes, incrementally re-optimizing must
yield the same optimal plan cost as optimizing from scratch under the same
statistics — regardless of which pruning techniques are enabled — and the
retained state must be a fixpoint of the paper's rules after every call
(:func:`~repro.optimizer.check.check_fixpoint`).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.overrides import StatisticsOverlay
from repro.optimizer.baselines.volcano import VolcanoOptimizer
from repro.optimizer.check import check_fixpoint
from repro.optimizer.declarative import DeclarativeOptimizer
from repro.optimizer.tables import PruningConfig
from repro.relational.expressions import Expression
from repro.workloads.queries import q3s, q5, q5_expression_chain, q5s
from repro.workloads.tpch import tpch_catalog

CATALOG = tpch_catalog(0.01)


def assert_fixpoint(optimizer) -> None:
    violations = check_fixpoint(optimizer)
    assert not violations, "\n".join(str(violation) for violation in violations)

factor_values = st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0])

q3s_changes = st.lists(
    st.one_of(
        st.tuples(
            st.just("selectivity"),
            st.sampled_from(["customer orders", "lineitem orders", "customer lineitem orders"]),
            factor_values,
        ),
        st.tuples(
            st.just("scan"), st.sampled_from(["customer", "orders", "lineitem"]), factor_values
        ),
        st.tuples(
            st.just("cardinality"),
            st.sampled_from(["customer", "orders", "lineitem"]),
            factor_values,
        ),
    ),
    min_size=1,
    max_size=5,
)


def apply_change(optimizer, change):
    kind, target, factor = change
    if kind == "selectivity":
        from repro.relational.expressions import Expression

        return optimizer.update_join_selectivity(Expression(target.split()), factor)
    if kind == "scan":
        return optimizer.update_scan_cost(target, factor)
    return optimizer.update_table_cardinality(target, factor)


@given(q3s_changes)
@settings(max_examples=25, deadline=None)
def test_incremental_matches_from_scratch_q3s(changes):
    optimizer = DeclarativeOptimizer(q3s(), CATALOG)
    optimizer.optimize()
    assert_fixpoint(optimizer)
    result = None
    for change in changes:
        delta = apply_change(optimizer, change)
        result = optimizer.reoptimize([delta])
        assert_fixpoint(optimizer)
    scratch = VolcanoOptimizer(
        q3s(), CATALOG, overlay=optimizer.cost_model.overlay.copy()
    ).optimize()
    assert result.cost == pytest.approx(scratch.cost, rel=1e-6)


chain_changes = st.lists(
    st.tuples(st.sampled_from(["A", "B", "C", "D", "E"]), factor_values),
    min_size=1,
    max_size=4,
)


@given(chain_changes, st.sampled_from(["aggsel", "refcount", "bounding", "full", "evita"]))
@settings(max_examples=15, deadline=None)
def test_incremental_matches_from_scratch_q5s_all_configs(changes, config_name):
    configs = {
        "aggsel": PruningConfig.aggsel(),
        "refcount": PruningConfig.aggsel_refcount(),
        "bounding": PruningConfig.aggsel_bounding(),
        "full": PruningConfig.full(),
        "evita": PruningConfig.evita_raced(),
    }
    optimizer = DeclarativeOptimizer(q5s(), CATALOG, pruning=configs[config_name])
    optimizer.optimize()
    assert_fixpoint(optimizer)
    expressions = q5_expression_chain()
    deltas = [
        optimizer.update_join_selectivity(expressions[label], factor)
        for label, factor in changes
    ]
    result = optimizer.reoptimize(deltas)
    assert_fixpoint(optimizer)
    scratch = VolcanoOptimizer(
        q5s(), CATALOG, overlay=optimizer.cost_model.overlay.copy()
    ).optimize()
    assert result.cost == pytest.approx(scratch.cost, rel=1e-6)


# -- kill -> stale -> revive ---------------------------------------------------

#: A q5 overlay under which reference counting kills regions during the cold
#: pass while their children are still improving (their retained costs go
#: stale and the end of optimize() re-costs them).
Q5_STALE_CELL = [(("customer", "lineitem"), 2**-0.5), (("region", "supplier"), 2**0.5)]


def stale_cell_optimizer(pruning: PruningConfig) -> DeclarativeOptimizer:
    overlay = StatisticsOverlay()
    for aliases, factor in Q5_STALE_CELL:
        overlay.set_selectivity_factor(Expression(aliases), factor)
    return DeclarativeOptimizer(q5(), CATALOG, pruning=pruning, overlay=overlay)


def dead_or_nodes(optimizer):
    return {
        or_id for or_id in range(optimizer.enumerator.or_count) if not optimizer._alive[or_id]
    }


def test_kill_stale_revive_sequence():
    """Killed regions go stale in the cold pass, are re-costed, and come back."""
    optimizer = stale_cell_optimizer(PruningConfig.aggsel_refcount())
    cold = optimizer.optimize()
    assert_fixpoint(optimizer)
    killed = dead_or_nodes(optimizer)
    assert killed, "reference counting must kill regions on this cell"
    # The dead-region evaluations of a cold pass are the stale costs it re-derived.
    assert cold.metrics.cost_evals_dead > 0
    assert not optimizer._stale_retained
    delta = optimizer.update_join_selectivity(q5_expression_chain()["A"], 8.0)
    result = optimizer.reoptimize([delta])
    assert_fixpoint(optimizer)
    assert killed - dead_or_nodes(optimizer), "the delta must revive a killed region"
    scratch = VolcanoOptimizer(q5(), CATALOG, overlay=optimizer.cost_model.overlay.copy())
    assert result.cost == pytest.approx(scratch.optimize().cost, rel=1e-9)


@given(chain_changes, st.sampled_from(["refcount", "full"]))
@settings(max_examples=10, deadline=None)
def test_kill_stale_revive_rounds_keep_the_fixpoint(changes, config_name):
    """One reoptimize() per change, from the stale cell: kills and revivals in
    any order leave a fixpoint that equals a from-scratch optimum."""
    pruning = {"refcount": PruningConfig.aggsel_refcount(), "full": PruningConfig.full()}
    optimizer = stale_cell_optimizer(pruning[config_name])
    optimizer.optimize()
    expressions = q5_expression_chain()
    for label, factor in changes:
        delta = optimizer.update_join_selectivity(expressions[label], factor)
        result = optimizer.reoptimize([delta])
        assert_fixpoint(optimizer)
        scratch = VolcanoOptimizer(q5(), CATALOG, overlay=optimizer.cost_model.overlay.copy())
        assert result.cost == pytest.approx(scratch.optimize().cost, rel=1e-6)
