"""The physical cost model: the paper's ``Fn_scancost`` / ``Fn_nonscancost``.

Costs combine I/O (pages read, random vs sequential) and CPU (per-tuple work)
into a single scalar, as in classical System-R / Volcano cost models.  The
model is deliberately simple but consistent: every optimizer implementation in
the library calls exactly these functions, so differences between them come
only from search strategy and pruning — as in the paper's evaluation setup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.catalog.catalog import Catalog
from repro.common.errors import OptimizationError
from repro.cost.overrides import StatisticsOverlay
from repro.cost.summaries import ExpressionSummary, SummaryProvider
from repro.relational.expressions import Expression
from repro.relational.plan import PhysicalOperator, PhysicalPlan
from repro.relational.properties import ANY_PROPERTY, PhysicalProperty, PropertyKind
from repro.relational.query import Query


@dataclass(frozen=True)
class CostParameters:
    """Tunable constants of the cost model."""

    page_size_bytes: float = 8192.0
    sequential_page_cost: float = 1.0
    random_page_cost: float = 3.0
    cpu_tuple_cost: float = 0.01
    cpu_operator_cost: float = 0.0025
    hash_build_tuple_cost: float = 0.02
    sort_tuple_cost: float = 0.015
    index_probe_cost: float = 0.25
    #: gathering one matching row through its row id (dict build / column
    #: gather) costs about twice what streaming it in a sequential scan does
    #: — measured against the physical structures in repro.storage.
    index_fetch_tuple_cost: float = 0.02
    output_tuple_cost: float = 0.005


class CostModel:
    """Computes local operator costs and combines them into plan costs."""

    def __init__(
        self,
        query: Query,
        catalog: Catalog,
        summaries: Optional[SummaryProvider] = None,
        parameters: Optional[CostParameters] = None,
        overlay: Optional[StatisticsOverlay] = None,
    ) -> None:
        self.query = query
        self.catalog = catalog
        self.parameters = parameters or CostParameters()
        if summaries is not None:
            self.summaries = summaries
            self.overlay = summaries.overlay
        else:
            self.overlay = overlay if overlay is not None else StatisticsOverlay()
            self.summaries = SummaryProvider(query, catalog, self.overlay)

    # ------------------------------------------------------------------
    # Summaries (Fn_scansummary / Fn_nonscansummary)
    # ------------------------------------------------------------------

    def summary(self, expression: Expression) -> ExpressionSummary:
        return self.summaries.summary(expression)

    # ------------------------------------------------------------------
    # Scan costs (Fn_scancost)
    # ------------------------------------------------------------------

    def scan_cost(
        self,
        alias: str,
        operator: PhysicalOperator,
        output_property: PhysicalProperty,
    ) -> float:
        """Cost of producing the filtered base relation behind *alias*."""
        params = self.parameters
        table_name = self.query.relation(alias).table
        table = self.catalog.table(table_name)
        base_rows = self.summaries.base_cardinality(alias)
        # Overlay-aware output estimate: observed-cardinality feedback on the
        # leaf expression must move scan costs, or the incremental
        # re-optimizer could never flip an access path.
        out_rows = self.summaries.summary(Expression.leaf(alias)).cardinality
        pages = self._pages(base_rows, table.row_width_bytes)
        filter_count = len(self.query.filters_for(alias))
        cpu = base_rows * (params.cpu_tuple_cost + filter_count * params.cpu_operator_cost)

        if operator is PhysicalOperator.SEQ_SCAN:
            cost = pages * params.sequential_page_cost + cpu
        elif operator is PhysicalOperator.INDEX_SCAN:
            # Calibrated against the physical structures in repro.storage: a
            # hash index reaches its bucket in one flat probe, an ordered
            # index bisects (log2 descent); matching rows are then gathered
            # with random access.  Unlike a sequential scan, per-tuple work
            # scales with the *matching* rows, not the whole table.
            index = self._scan_index(alias, output_property)
            if index is not None and index.kind == "hash":
                descent = params.index_probe_cost
            else:
                descent = params.index_probe_cost * math.log2(max(base_rows, 2.0))
            if output_property.kind is PropertyKind.INDEXED:
                # The inner of an index-NL join: rows are delivered lazily
                # through equality probes (whose per-probe work the join's
                # local cost carries), touching each matching row once —
                # amortized sequential, not per-row random, access.
                cost = (
                    descent
                    + pages * params.sequential_page_cost
                    + out_rows * params.cpu_tuple_cost
                )
            else:
                matching_fraction = out_rows / max(base_rows, 1.0)
                fetched_pages = max(1.0, pages * matching_fraction)
                cost = (
                    descent
                    + fetched_pages * params.random_page_cost
                    + out_rows * params.index_fetch_tuple_cost
                )
        elif operator is PhysicalOperator.SORTED_SCAN:
            # Sequential scan followed by an in-memory sort of the survivors.
            sort_cost = self._sort_cost(out_rows)
            cost = pages * params.sequential_page_cost + cpu + sort_cost
        else:
            raise OptimizationError(f"{operator} is not a scan operator")

        cost += out_rows * params.output_tuple_cost
        return cost * self.overlay.scan_cost_factor(alias)

    def _scan_index(self, alias: str, output_property: PhysicalProperty):
        """The catalog index an index scan on *alias* would use (kind matters)."""
        table = self.query.relation(alias).table
        prop = output_property
        if prop.kind is PropertyKind.SORTED and prop.column is not None:
            return self.catalog.usable_index(table, prop.column.column, "sorted")
        if prop.kind is PropertyKind.INDEXED and prop.column is not None:
            return self.catalog.usable_index(table, prop.column.column, "point")
        for predicate in self.query.filters_for(alias):
            sargable = predicate.sargable
            if sargable is None:
                continue
            index = self.catalog.usable_index(table, sargable.column.column, sargable.shape)
            if index is not None:
                return index
        return None

    # ------------------------------------------------------------------
    # Join / aggregate local costs (Fn_nonscancost)
    # ------------------------------------------------------------------

    def join_local_cost(
        self,
        operator: PhysicalOperator,
        output: ExpressionSummary,
        left: ExpressionSummary,
        right: ExpressionSummary,
        inner_index=None,
    ) -> float:
        """Cost of the join operator itself, excluding its children."""
        params = self.parameters
        left_rows = left.cardinality
        right_rows = right.cardinality
        out_rows = output.cardinality

        if operator is PhysicalOperator.HASH_JOIN:
            # Build a hash table on the smaller (right) input, probe with left.
            cost = (
                right_rows * params.hash_build_tuple_cost
                + left_rows * params.cpu_tuple_cost
                + out_rows * params.cpu_operator_cost
            )
        elif operator is PhysicalOperator.SORT_MERGE_JOIN:
            # Inputs are required to arrive sorted; the merge itself is linear.
            cost = (
                left_rows + right_rows
            ) * params.cpu_tuple_cost + out_rows * params.cpu_operator_cost
        elif operator is PhysicalOperator.INDEX_NL_JOIN:
            # Outer (left) probes an index on the inner (right) per tuple:
            # flat per-probe work for a hash index, a log2 bisect descent for
            # an ordered one (the default when the index kind is unknown).
            if inner_index is not None and inner_index.kind == "hash":
                cost = (
                    left_rows * params.index_probe_cost + out_rows * params.cpu_tuple_cost
                )
            else:
                probe_depth = math.log2(max(right_rows, 2.0))
                cost = (
                    left_rows * params.index_probe_cost * probe_depth / 4.0
                    + out_rows * params.cpu_tuple_cost
                )
        elif operator is PhysicalOperator.NESTED_LOOP_JOIN:
            cost = (
                left_rows * right_rows * params.cpu_operator_cost + out_rows * params.cpu_tuple_cost
            )
        else:
            raise OptimizationError(f"{operator} is not a join operator")

        cost += out_rows * params.output_tuple_cost
        return cost

    def local_cost(self, entry, enumerator) -> Tuple[float, float]:
        """``(local cost, output cardinality)`` of one alternative's root operator.

        *entry* is a search-space alternative; *enumerator* (the
        :class:`~repro.optimizer.search_space.SearchSpaceEnumerator` that
        produced it) names the index an indexed nested-loop join probes.  The
        one cost function every optimizer prices alternatives with.
        """
        left, right = entry.left, entry.right
        return self.operator_cost(
            entry.physical_op,
            entry.key.expression,
            entry.key.prop,
            None if left is None else left.expression,
            None if right is None else right.expression,
            None if right is None else right.prop,
            enumerator,
        )

    def operator_cost(
        self,
        operator: PhysicalOperator,
        expression: Expression,
        prop: PhysicalProperty,
        left: Optional[Expression],
        right: Optional[Expression],
        right_prop: Optional[PhysicalProperty],
        enumerator,
    ) -> Tuple[float, float]:
        """:meth:`local_cost` of an alternative given by its parts: the
        operator, the OR node it belongs to and its children's expressions
        (plus the inner's property, which names an indexed join's index)."""
        summary = self.summary(expression)
        if operator.is_scan:
            local = self.scan_cost(expression.sole_alias, operator, prop)
        elif operator is PhysicalOperator.SORT:
            local = self.sort_enforcer_cost(summary)
        elif operator.is_join:
            assert left is not None and right is not None and right_prop is not None
            left_summary = self.summary(left)
            right_summary = self.summary(right)
            inner_index = None
            if operator is PhysicalOperator.INDEX_NL_JOIN:
                target = enumerator.index_scan_target(right, right_prop)
                if target is not None:
                    inner_index = target[1]
            local = self.join_local_cost(
                operator, summary, left_summary, right_summary, inner_index=inner_index
            )
        else:  # pragma: no cover - defensive
            raise OptimizationError(f"cannot cost operator {operator}")
        return local, summary.cardinality

    def aggregate_plan(self, plan: PhysicalPlan) -> PhysicalPlan:
        """*plan* under the query's final hash aggregate (the caller checks
        that the query aggregates)."""
        summary = self.summary(self.query.root_expression)
        if self.query.group_by:
            groups = 1.0
            for column in self.query.group_by:
                groups *= summary.distinct_values(column)
            groups = min(groups, summary.cardinality)
        else:
            groups = 1.0
        local = self.aggregate_cost(summary, groups)
        return PhysicalPlan(
            operator=PhysicalOperator.HASH_AGGREGATE,
            expression=plan.expression,
            output_property=ANY_PROPERTY,
            children=(plan,),
            local_cost=local,
            total_cost=plan.total_cost + local,
            cardinality=groups,
        )

    def aggregate_cost(self, input_summary: ExpressionSummary, group_count: float) -> float:
        params = self.parameters
        return (
            input_summary.cardinality * (params.cpu_tuple_cost + params.hash_build_tuple_cost)
            + group_count * params.output_tuple_cost
        )

    def sort_enforcer_cost(self, summary: ExpressionSummary) -> float:
        """Cost of sorting an intermediate result to satisfy a sort property."""
        return self._sort_cost(summary.cardinality)

    # ------------------------------------------------------------------
    # Combination (Fn_sum)
    # ------------------------------------------------------------------

    @staticmethod
    def combine(local_cost: float, *child_costs: float) -> float:
        """The paper's ``Fn_sum``: plan cost = local cost + children costs."""
        return local_cost + sum(child_costs)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _pages(self, rows: float, row_width: float) -> float:
        return max(1.0, rows * row_width / self.parameters.page_size_bytes)

    def _sort_cost(self, rows: float) -> float:
        rows = max(rows, 1.0)
        return self.parameters.sort_tuple_cost * rows * math.log2(rows + 1.0)
