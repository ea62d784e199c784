"""A Volcano-style top-down optimizer with memoization and branch-and-bound.

This is the paper's strongest procedural comparison point: goal-directed
top-down enumeration where each expression-property pair (group) is optimized
on demand, results are memoized, and a cost limit is threaded down the
recursion so alternatives whose partial cost already exceeds the limit are
abandoned ("branch-and-bound pruning").
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.common.errors import OptimizationError
from repro.optimizer.baselines.base import ProceduralOptimizerBase
from repro.optimizer.declarative import OptimizationResult
from repro.optimizer.metrics import OptimizationMetrics
from repro.optimizer.tables import OrKey, SearchSpaceEntry
from repro.relational.plan import PhysicalPlan

_INFINITY = float("inf")
_EPSILON = 1e-9


@dataclass
class _Group:
    """Memo entry for one expression-property pair."""

    best_cost: float = _INFINITY
    best_entry: Optional[SearchSpaceEntry] = None
    best_local: float = 0.0
    best_cardinality: float = 0.0
    #: the limit this group was last optimized under; if a later request has a
    #: larger limit and the group found no plan, it must be re-optimized.
    optimized_limit: float = -_INFINITY
    alternatives_enumerated: int = 0
    alternatives_pruned: int = 0
    exploration_cut: bool = False


class VolcanoOptimizer(ProceduralOptimizerBase):
    """Top-down, memoizing, branch-and-bound optimizer."""

    name = "volcano"

    def optimize(self) -> OptimizationResult:
        started = time.perf_counter()
        self._memo: Dict[OrKey, _Group] = {}
        self._in_progress: Set[OrKey] = set()
        self._optimize_group(self.root_key, _INFINITY)
        root = self._memo.get(self.root_key)
        if root is None or root.best_entry is None:
            raise OptimizationError("Volcano optimizer found no plan for the query")
        plan = self._build_plan(self.root_key)
        if self.query.has_aggregation:
            plan = self.cost_model.aggregate_plan(plan)
        elapsed = time.perf_counter() - started
        metrics = self._collect_metrics(elapsed)
        return OptimizationResult(plan, plan.total_cost, metrics, self.name)

    def reoptimize(self) -> OptimizationResult:
        """Non-incremental re-optimization: run the whole search again."""
        self.invalidate_statistics()
        return self.optimize()

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def _optimize_group(self, or_key: OrKey, limit: float) -> float:
        """Optimize one group under a cost limit; return its best cost."""
        group = self._memo.get(or_key)
        if group is not None:
            found = group.best_entry is not None
            if found and group.best_cost <= limit + _EPSILON:
                return group.best_cost
            if not found and limit <= group.optimized_limit + _EPSILON:
                return _INFINITY
            # Otherwise: previously optimized under a tighter limit without
            # success, and the caller now tolerates more — re-optimize.
        if or_key in self._in_progress:
            # The only same-expression dependency is SORTED -> ANY, which is
            # acyclic; anything else indicates an enumeration bug.
            raise OptimizationError(f"cyclic dependency while optimizing {or_key}")

        group = group or _Group()
        self._memo[or_key] = group
        self._in_progress.add(or_key)
        try:
            self._explore_group(or_key, group, limit)
        finally:
            self._in_progress.discard(or_key)
        group.optimized_limit = max(group.optimized_limit, limit)
        return group.best_cost if group.best_entry is not None else _INFINITY

    def _explore_group(self, or_key: OrKey, group: _Group, limit: float) -> None:
        alternatives = self.enumerator.expand(or_key)
        group.alternatives_enumerated = max(group.alternatives_enumerated, len(alternatives))
        bound = min(limit, group.best_cost)
        pruned_this_round = 0
        for entry in alternatives:
            cost = self._cost_alternative(entry, bound)
            if cost is None:
                pruned_this_round += 1
                group.exploration_cut = True
                continue
            total, local, cardinality = cost
            if total < group.best_cost - _EPSILON:
                group.best_cost = total
                group.best_entry = entry
                group.best_local = local
                group.best_cardinality = cardinality
                bound = min(bound, total)
        # Record the pruning of the latest exploration only (a group may be
        # re-explored under a looser limit; counts must not accumulate past
        # the number of alternatives that exist).
        group.alternatives_pruned = pruned_this_round

    def _cost_alternative(
        self, entry: SearchSpaceEntry, bound: float
    ) -> Optional[Tuple[float, float, float]]:
        """Cost one alternative under a bound; None when it exceeds the bound."""
        local, cardinality = self.cost_model.local_cost(entry, self.enumerator)
        running = local
        if running > bound + _EPSILON:
            return None
        child_costs = []
        for child in entry.children():
            child_limit = bound - running
            child_cost = self._optimize_group(child, child_limit)
            if child_cost == _INFINITY or running + child_cost > bound + _EPSILON:
                return None
            child_costs.append(child_cost)
            running += child_cost
        return running, local, cardinality

    # ------------------------------------------------------------------
    # Plan construction & metrics
    # ------------------------------------------------------------------

    def _build_plan(self, or_key: OrKey) -> PhysicalPlan:
        group = self._memo.get(or_key)
        if group is None or group.best_entry is None:
            raise OptimizationError(f"no plan memoized for {or_key}")
        entry = group.best_entry
        children = tuple(self._build_plan(child) for child in entry.children())
        return PhysicalPlan(
            operator=entry.physical_op,
            expression=or_key.expression,
            output_property=or_key.prop,
            children=children,
            local_cost=group.best_local,
            total_cost=group.best_cost,
            cardinality=group.best_cardinality,
        )

    def _collect_metrics(self, elapsed: float) -> OptimizationMetrics:
        or_enumerated = len(self._memo)
        or_pruned = sum(1 for group in self._memo.values() if group.exploration_cut)
        and_enumerated = sum(group.alternatives_enumerated for group in self._memo.values())
        and_pruned = sum(group.alternatives_pruned for group in self._memo.values())
        return OptimizationMetrics(
            or_nodes_enumerated=or_enumerated,
            or_nodes_pruned=or_pruned,
            and_nodes_enumerated=and_enumerated,
            and_nodes_pruned=and_pruned,
            plan_costs_computed=and_enumerated - and_pruned,
            elapsed_seconds=elapsed,
        )
