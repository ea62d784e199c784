"""The int-keyed memo: public key semantics, tie-breaks and retained state.

The declarative optimizer keys its state by dense ids; ``OrKey``, ``AndKey``
and ``SearchSpaceEntry`` remain the value types of its API.  These tests pin
what callers see: freshly built keys work, key equality, hashing and ordering
are those of the frozen dataclasses, exact cost ties resolve the same way in
every process, and a retained optimizer holds no per-row objects the garbage
collector would have to scan.
"""

import gc
import os
import subprocess
import sys

import pytest

from repro.common.errors import OptimizationError
from repro.optimizer.declarative import DeclarativeOptimizer
from repro.optimizer.pruning.bounds import INFINITY
from repro.optimizer.tables import AndKey, OrKey, PruningConfig
from repro.relational.expressions import Expression
from repro.relational.plan import PhysicalOperator
from repro.relational.predicates import ComparisonOp
from repro.relational.properties import ANY_PROPERTY, PhysicalProperty
from repro.relational.query import QueryBuilder
from repro.workloads.queries import q3s, q5
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


def theta_query():
    """Two theta joins: nested loops in both orientations cost exactly the same."""
    return (
        QueryBuilder("THETA")
        .scan("customer")
        .scan("orders")
        .scan("nation")
        .join_on("customer.c_custkey", "orders.o_custkey", ComparisonOp.LT)
        .join_on("customer.c_nationkey", "nation.n_nationkey", ComparisonOp.GT)
        .build()
    )


class TestPublicKeys:
    def test_best_cost_with_a_freshly_built_key(self):
        optimizer = DeclarativeOptimizer(q3s(), CATALOG)
        result = optimizer.optimize()
        fresh_root = OrKey(Expression(["lineitem", "orders", "customer"]), PhysicalProperty())
        assert fresh_root is not optimizer.root_key
        assert optimizer.best_cost(fresh_root) == result.cost
        leaf = OrKey(Expression.leaf("customer"), ANY_PROPERTY)
        assert 0 < optimizer.best_cost(leaf) < result.cost

    def test_sorted_property_key_is_found_by_value(self):
        optimizer = DeclarativeOptimizer(q3s(), CATALOG, pruning=PruningConfig.none())
        optimizer.optimize()
        sorted_keys = [
            entry.left
            for entry in optimizer.search_space_rows()
            if entry.physical_op is PhysicalOperator.SORT_MERGE_JOIN
        ]
        assert sorted_keys
        key = sorted_keys[0]
        fresh = OrKey(Expression(key.expression.aliases), PhysicalProperty.sorted_on(key.prop.column))
        assert optimizer.best_cost(fresh) == optimizer.best_cost(key)

    def test_unknown_keys(self):
        optimizer = DeclarativeOptimizer(q3s(), CATALOG)
        optimizer.optimize()
        unknown = OrKey(Expression.of("customer", "lineitem"), ANY_PROPERTY)
        with pytest.raises(OptimizationError):
            optimizer.best_cost(unknown)
        assert optimizer.bound(unknown) == INFINITY
        assert optimizer.bound(OrKey(Expression.of("nation"), ANY_PROPERTY)) == INFINITY

    def test_key_equality_hash_and_order(self):
        left = OrKey(Expression.of("a", "b"), ANY_PROPERTY)
        right = OrKey(Expression.of("b", "a"), ANY_PROPERTY)
        assert left == right and hash(left) == hash(right)
        assert OrKey(Expression.of("a")) < left
        assert AndKey(Expression.of("a", "b"), ANY_PROPERTY, 1) < AndKey(
            Expression.of("a", "b"), ANY_PROPERTY, 2
        )
        assert AndKey(Expression.of("b", "a"), ANY_PROPERTY, 3).or_key == left
        keys = [
            OrKey(Expression.of("b", "c")),
            OrKey(Expression.of("c")),
            OrKey(Expression.of("a", "b", "c")),
            OrKey(Expression.of("a")),
        ]
        assert [str(key) for key in sorted(keys)] == [
            "(a)|-",
            "(c)|-",
            "(b c)|-",
            "(a b c)|-",
        ]

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_rows_are_the_enumerators_entries(self, config_name):
        optimizer = DeclarativeOptimizer(q3s(), CATALOG, pruning=CONFIGS[config_name])
        optimizer.optimize()
        rows = optimizer.search_space_rows()
        assert {row.key for row in rows} == optimizer.active_search_space()
        for row in rows:
            expanded = optimizer.enumerator.expand(row.key.or_key)
            assert expanded[row.key.index - 1] == row
            assert optimizer.bound(row.key.or_key) >= 0.0


class TestTieBreaks:
    """Of exactly equal-cost alternatives the first enumerated one wins."""

    @staticmethod
    def assert_first_orientation(plan):
        for node in plan.iter_nodes():
            if node.operator is PhysicalOperator.NESTED_LOOP_JOIN:
                smallest = sorted(node.expression.aliases)[0]
                assert smallest in node.children[0].expression, node.pretty()

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_first_enumerated_alternative_wins(self, config_name):
        optimizer = DeclarativeOptimizer(theta_query(), CATALOG, pruning=CONFIGS[config_name])
        self.assert_first_orientation(optimizer.optimize().plan)
        delta = optimizer.update_table_cardinality("orders", 2.0)
        self.assert_first_orientation(optimizer.reoptimize([delta]).plan)

    def test_winner_does_not_depend_on_the_hash_seed(self):
        script = (
            "from tests.optimizer.test_int_memo import CATALOG, theta_query\n"
            "from repro.optimizer.declarative import DeclarativeOptimizer\n"
            "optimizer = DeclarativeOptimizer(theta_query(), CATALOG)\n"
            "print(optimizer.optimize().plan.pretty())\n"
            "delta = optimizer.update_table_cardinality('orders', 2.0)\n"
            "print(optimizer.reoptimize([delta]).plan.pretty())\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        outputs = set()
        for seed in ("1", "2"):
            environment = dict(os.environ, PYTHONHASHSEED=seed)
            environment["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(root, "src"), root, environment.get("PYTHONPATH", "")]
            )
            completed = subprocess.run(
                [sys.executable, "-c", script],
                cwd=root,
                env=environment,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.add(completed.stdout)
        assert len(outputs) == 1


class TestRetainedState:
    def test_memo_holds_no_per_row_objects(self):
        """Tracked objects an optimized query keeps alive stay below one per
        alternative (keys and rows as objects were about ten per alternative)."""
        query = q5()
        gc.collect()
        before = len(gc.get_objects())
        optimizer = DeclarativeOptimizer(query, CATALOG)
        optimizer.optimize()
        gc.collect()
        retained = len(gc.get_objects()) - before
        _, and_nodes = optimizer.search_space_size()
        assert retained < and_nodes, (retained, and_nodes)
