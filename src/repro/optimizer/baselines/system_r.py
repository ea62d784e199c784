"""A System-R-style bottom-up dynamic-programming optimizer.

Connected subexpressions are optimized in increasing size order.  For each
expression the optimizer keeps the cheapest plan per *interesting property*
(unsorted, sorted on each join column, indexed access for leaves), exactly the
per-equivalence-class pruning of classic dynamic programming.  No
branch-and-bound limits are applied — the search is exhaustive over connected
subexpressions, which is why the paper finds it close to Volcano but with
"simpler (thus, slightly faster) exploration logic" for small queries and no
entry pruning.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from repro.common.errors import OptimizationError
from repro.optimizer.baselines.base import ProceduralOptimizerBase
from repro.optimizer.declarative import OptimizationResult
from repro.optimizer.metrics import OptimizationMetrics
from repro.optimizer.tables import OrKey, SearchSpaceEntry
from repro.relational.expressions import ColumnRef, Expression
from repro.relational.plan import PhysicalPlan
from repro.relational.properties import ANY_PROPERTY, PhysicalProperty

_INFINITY = float("inf")
_EPSILON = 1e-9


@dataclass
class _Entry:
    """Best plan found so far for one expression-property pair."""

    cost: float = _INFINITY
    entry: Optional[SearchSpaceEntry] = None
    local: float = 0.0
    cardinality: float = 0.0


class SystemROptimizer(ProceduralOptimizerBase):
    """Bottom-up dynamic programming over connected subexpressions."""

    name = "system-r"

    def optimize(self) -> OptimizationResult:
        started = time.perf_counter()
        self._table: Dict[OrKey, _Entry] = {}
        self._alternatives_costed = 0
        aliases = sorted(self.query.aliases)
        expressions = self._connected_expressions(aliases)
        for expression in expressions:
            for prop in self._interesting_properties(expression):
                self._optimize_pair(OrKey(expression, prop))
        root = self._table.get(self.root_key)
        if root is None or root.entry is None:
            raise OptimizationError("System-R optimizer found no plan for the query")
        plan = self._build_plan(self.root_key)
        if self.query.has_aggregation:
            plan = self.cost_model.aggregate_plan(plan)
        elapsed = time.perf_counter() - started
        metrics = self._collect_metrics(elapsed)
        return OptimizationResult(plan, plan.total_cost, metrics, self.name)

    def reoptimize(self) -> OptimizationResult:
        """Non-incremental re-optimization: run the whole DP again."""
        self.invalidate_statistics()
        return self.optimize()

    # ------------------------------------------------------------------
    # Enumeration order
    # ------------------------------------------------------------------

    def _connected_expressions(self, aliases: List[str]) -> List[Expression]:
        """Every connected subexpression, smallest first (DP order)."""
        expressions: List[Expression] = []
        for size in range(1, len(aliases) + 1):
            for subset in combinations(aliases, size):
                if self.query.is_connected(subset):
                    expressions.append(Expression(subset))
        if not any(len(expression) == len(aliases) for expression in expressions):
            # Disconnected join graph: fall back to every subset so the cross
            # products needed to answer the query are still enumerated.
            expressions = [
                Expression(subset)
                for size in range(1, len(aliases) + 1)
                for subset in combinations(aliases, size)
            ]
        return expressions

    def _interesting_properties(self, expression: Expression) -> List[PhysicalProperty]:
        """ANY plus sort/index orders on join columns local to the expression."""
        properties: List[PhysicalProperty] = [ANY_PROPERTY]
        columns: List[ColumnRef] = []
        for predicate in self.query.join_predicates:
            for column in (predicate.left, predicate.right):
                if column.alias in expression and column not in columns:
                    columns.append(column)
        for column in columns:
            properties.append(PhysicalProperty.sorted_on(column))
        if expression.is_leaf:
            alias = expression.sole_alias
            table = self.query.relation(alias).table
            for column in columns:
                if column.alias == alias and self.catalog.index_on(table, column.column):
                    properties.append(PhysicalProperty.indexed_on(column))
        return properties

    # ------------------------------------------------------------------
    # DP step
    # ------------------------------------------------------------------

    def _optimize_pair(self, or_key: OrKey) -> None:
        best = self._table.setdefault(or_key, _Entry())
        for entry in self.enumerator.expand(or_key):
            total = self._cost_alternative(entry)
            if total is None:
                continue
            cost, local, cardinality = total
            self._alternatives_costed += 1
            if cost < best.cost - _EPSILON:
                best.cost = cost
                best.entry = entry
                best.local = local
                best.cardinality = cardinality

    def _cost_alternative(self, entry: SearchSpaceEntry) -> Optional[Tuple[float, float, float]]:
        local, cardinality = self.cost_model.local_cost(entry, self.enumerator)
        total = local
        for child in entry.children():
            child_entry = self._table.get(child)
            if child_entry is None or child_entry.entry is None:
                # The unary sort enforcer depends on the ANY property of the
                # same expression, which may not be filled in yet; compute it
                # on demand (still bottom-up with respect to expression size).
                if child.expression == entry.key.expression:
                    self._optimize_pair(child)
                    child_entry = self._table.get(child)
                if child_entry is None or child_entry.entry is None:
                    return None
            total += child_entry.cost
        return total, local, cardinality

    # ------------------------------------------------------------------
    # Plan construction & metrics
    # ------------------------------------------------------------------

    def _build_plan(self, or_key: OrKey) -> PhysicalPlan:
        entry_state = self._table.get(or_key)
        if entry_state is None or entry_state.entry is None:
            raise OptimizationError(f"no plan in the DP table for {or_key}")
        entry = entry_state.entry
        children = tuple(self._build_plan(child) for child in entry.children())
        return PhysicalPlan(
            operator=entry.physical_op,
            expression=or_key.expression,
            output_property=or_key.prop,
            children=children,
            local_cost=entry_state.local,
            total_cost=entry_state.cost,
            cardinality=entry_state.cardinality,
        )

    def _collect_metrics(self, elapsed: float) -> OptimizationMetrics:
        or_enumerated = len(self._table)
        and_enumerated = self._alternatives_costed
        winners = sum(1 for entry in self._table.values() if entry.entry is not None)
        return OptimizationMetrics(
            or_nodes_enumerated=or_enumerated,
            or_nodes_pruned=0,
            and_nodes_enumerated=and_enumerated,
            and_nodes_pruned=max(0, and_enumerated - winners),
            plan_costs_computed=and_enumerated,
            elapsed_seconds=elapsed,
        )
