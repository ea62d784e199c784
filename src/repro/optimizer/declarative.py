"""The declarative, incrementally-maintainable query optimizer (the paper's core).

The optimizer's state is a set of materialized views mirroring Figure 1 of the
paper:

* ``SearchSpace`` — the active physical alternatives (:attr:`active`),
* ``PlanCost`` — the costed alternatives (:attr:`plan_costs`), with *all*
  computed costs (even pruned ones) retained inside a grouped min-aggregate so
  "next-best" plans can be recovered after deletions/updates,
* ``BestCost`` / ``BestPlan`` — the per-OR-node minimum, read off the
  aggregate,
* ``Bound`` — branch-and-bound limits maintained by
  :class:`~repro.optimizer.pruning.bounds.BoundsManager`.

Rules R1–R5 (plan enumeration) correspond to :meth:`_handle_explore`,
R6–R8 (cost estimation) to :meth:`_handle_cost`, and R9–R10 (plan selection)
to the grouped min-aggregate plus :meth:`best_plan`.  All propagation happens
through a single work queue of delta events, so there is no fixed top-down or
bottom-up control flow — any processing order converges to the same state,
which is what makes incremental re-optimization (:meth:`reoptimize`) possible:
statistics changes are simply injected as cost-update events into the same
queue.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.catalog.catalog import Catalog
from repro.common.errors import OptimizationError
from repro.cost.cost_model import CostModel, CostParameters
from repro.cost.overrides import ChangeKind, StatisticsDelta, StatisticsOverlay
from repro.datalog.aggregates import GroupedMinAggregate
from repro.datalog.refcount import ReferenceCounter, RefTransition
from repro.optimizer.metrics import MetricsRecorder, OptimizationMetrics
from repro.optimizer.pruning.bounds import INFINITY, BoundChange, BoundsManager
from repro.optimizer.search_space import EnumerationOptions, SearchSpaceEnumerator
from repro.optimizer.tables import (
    AndKey,
    OrKey,
    PlanCostEntry,
    PruningConfig,
    SearchSpaceEntry,
)
from repro.relational.expressions import Expression
from repro.relational.plan import PhysicalOperator, PhysicalPlan
from repro.relational.properties import ANY_PROPERTY
from repro.relational.query import Query

_EPSILON = 1e-9


@dataclass
class _OrState:
    """Book-keeping for one OR node (expression-property pair)."""

    key: OrKey
    explored: bool = False
    alive: bool = True
    alternatives: Dict[int, SearchSpaceEntry] = field(default_factory=dict)


@dataclass
class OptimizationResult:
    """Outcome of an (re-)optimization run."""

    plan: PhysicalPlan
    cost: float
    metrics: OptimizationMetrics
    optimizer: str = "declarative"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.optimizer}] cost={self.cost:.3f}\n{self.plan.pretty()}"


class DeclarativeOptimizer:
    """Rule-based optimizer with pruning and incremental re-optimization."""

    def __init__(
        self,
        query: Query,
        catalog: Catalog,
        pruning: Optional[PruningConfig] = None,
        cost_parameters: Optional[CostParameters] = None,
        enumeration: Optional[EnumerationOptions] = None,
        overlay: Optional[StatisticsOverlay] = None,
    ) -> None:
        self.query = query
        self.catalog = catalog
        self.pruning = pruning if pruning is not None else PruningConfig.full()
        self.cost_model = CostModel(query, catalog, parameters=cost_parameters, overlay=overlay)
        self.enumerator = SearchSpaceEnumerator(query, catalog, enumeration)
        self.root_key = OrKey(query.root_expression, ANY_PROPERTY)
        self.recorder = MetricsRecorder()
        self._reset_state()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def optimize(self) -> OptimizationResult:
        """Run initial optimization from scratch and return the best plan."""
        self._reset_state()
        self.recorder.start()
        self._enqueue(("explore", self.root_key))
        self._run()
        # Reference counting can kill a region while its children's minima
        # are still improving; the costs it retains are then stale and can
        # hide the optimum from the regions above.  Refresh them, the way
        # reoptimize() does, so a cold pass returns the optimum.
        stale, self._stale_retained = self._stale_retained, set()
        if stale:
            self._refresh(self._affected_alternatives((), extra=stale))
        metrics = self._collect_metrics(incremental=False)
        plan = self.best_plan()
        self._optimized = True
        return OptimizationResult(plan, plan.total_cost, metrics, "declarative")

    def reoptimize(self, deltas: Sequence[StatisticsDelta]) -> OptimizationResult:
        """Incrementally re-optimize after the given statistics changes."""
        if not self._optimized:
            raise OptimizationError("call optimize() before reoptimize()")
        self.recorder.start()
        for delta in deltas:
            self.cost_model.summaries.invalidate_containing(delta.expression)
        # Retained costs of regions killed while a pass was still improving
        # their children are stale; refresh them together with the
        # delta-affected entries (a noop-only pass leaves them untouched —
        # they cannot influence the outcome until some cost actually changes).
        stale: Set[AndKey] = set()
        if any(not delta.is_noop for delta in deltas):
            stale = self._stale_retained
            self._stale_retained = set()
        self._refresh(self._affected_alternatives(deltas, extra=stale))
        metrics = self._collect_metrics(incremental=True)
        plan = self.best_plan()
        return OptimizationResult(plan, plan.total_cost, metrics, "declarative-incremental")

    # -- statistics-change helpers (return deltas to feed to reoptimize) ----

    def update_join_selectivity(self, expression: Expression, factor: float) -> StatisticsDelta:
        """Record that the join producing *expression* is ``factor`` times as
        selective as originally estimated."""
        delta = self.cost_model.overlay.set_selectivity_factor(expression, factor)
        self.cost_model.summaries.invalidate_containing(expression)
        return delta

    def update_scan_cost(self, alias: str, factor: float) -> StatisticsDelta:
        """Record that scanning *alias* now costs ``factor`` times the estimate."""
        return self.cost_model.overlay.set_scan_cost_factor(alias, factor)

    def update_table_cardinality(self, alias: str, factor: float) -> StatisticsDelta:
        """Record that *alias* holds ``factor`` times the estimated rows."""
        delta = self.cost_model.overlay.set_table_cardinality_factor(alias, factor)
        self.cost_model.summaries.invalidate_containing(Expression.leaf(alias))
        return delta

    def observe_cardinality(self, expression: Expression, observed_rows: float) -> StatisticsDelta:
        """Record an observed cardinality for *expression* (adaptive feedback).

        The observation is converted into a selectivity factor relative to the
        estimate the optimizer would produce *without* an override on this
        expression (but with every other current override applied), so that
        after the update the estimated cardinality of ``expression`` matches
        ``observed_rows``.  Callers feeding several observations should apply
        them smallest-expression first (the runtime monitor does).
        """
        overlay = self.cost_model.overlay
        current_factor = overlay.own_selectivity_factor(expression)
        self.cost_model.summaries.invalidate_containing(expression)
        estimate = self.cost_model.summary(expression).cardinality
        baseline = estimate / current_factor if current_factor > 0 else estimate
        factor = observed_rows / baseline if baseline > 0 else 1.0
        factor = min(max(factor, 1e-6), 1e6)
        delta = overlay.set_selectivity_factor(expression, factor)
        self.cost_model.summaries.invalidate_containing(expression)
        return delta

    # -- read-only views ------------------------------------------------------

    def best_cost(self, or_key: Optional[OrKey] = None) -> float:
        key = or_key if or_key is not None else self.root_key
        value = self._best.value(key)
        if value is None:
            raise OptimizationError(f"no plan cost known for {key}")
        return value

    def best_plan(self) -> PhysicalPlan:
        """Extract the currently-best physical plan from the optimizer state."""
        plan = self._build_plan(self.root_key, set())
        if self.query.has_aggregation:
            plan = self.cost_model.aggregate_plan(plan)
        return plan

    def search_space_size(self) -> Tuple[int, int]:
        """(OR nodes, AND nodes) currently enumerated in the memo."""
        and_count = sum(len(state.alternatives) for state in self._or_states.values())
        return len(self._or_states), and_count

    def active_search_space(self) -> Set[AndKey]:
        """The current contents of the ``SearchSpace`` view."""
        return set(self._active)

    def search_space_rows(self) -> List[SearchSpaceEntry]:
        """Active SearchSpace entries (handy for examples reproducing Table 1)."""
        rows = []
        for state in self._or_states.values():
            for entry in state.alternatives.values():
                if entry.key in self._active:
                    rows.append(entry)
        return sorted(rows, key=lambda entry: (len(entry.key.expression), str(entry.key)))

    def bound(self, or_key: OrKey) -> float:
        return self._bounds.bound(or_key) if self._bounds is not None else INFINITY

    # ------------------------------------------------------------------
    # State & queue
    # ------------------------------------------------------------------

    def _reset_state(self) -> None:
        self._or_states: Dict[OrKey, _OrState] = {}
        self._active: Set[AndKey] = set()
        self._pruned: Set[AndKey] = set()
        self._plan_costs: Dict[AndKey, PlanCostEntry] = {}
        self._best: GroupedMinAggregate[OrKey, AndKey] = GroupedMinAggregate()
        self._refcounts: ReferenceCounter[OrKey] = ReferenceCounter()
        self._parents_of: Dict[OrKey, Set[AndKey]] = {}
        self._bounds: Optional[BoundsManager] = (
            BoundsManager() if self.pruning.recursive_bounding else None
        )
        self._queue: Deque[Tuple] = deque()
        # Retained alternatives of refcount-killed regions whose stored costs
        # went stale (a child's BestCost changed while the region was dead).
        # optimize() refreshes them before it returns, reoptimize() before it
        # trusts retained state.
        self._stale_retained: Set[AndKey] = set()
        self._optimized = False
        # During incremental re-optimization (and the refresh that ends a cold
        # pass) even pruned/dead regions are kept cost-consistent: their
        # retained costs feed next-best recovery and re-introduction
        # decisions.  The initial pass skips them and records what it skipped
        # in _stale_retained.
        self._incremental_pass = False

    def _refresh(self, and_keys: Sequence[AndKey]) -> None:
        """Re-cost *and_keys* and propagate, dead and pruned regions included."""
        self._incremental_pass = True
        try:
            for and_key in and_keys:
                self._enqueue(("cost", and_key))
            self._run()
        finally:
            self._incremental_pass = False

    def _enqueue(self, event: Tuple) -> None:
        self._queue.append(event)

    def _run(self) -> None:
        handlers = {
            "explore": self._handle_explore,
            "cost": self._handle_cost,
            "best_changed": self._handle_best_changed,
            "bound_changed": self._handle_bound_changed,
        }
        steps = 0
        limit = 5_000_000
        while self._queue:
            steps += 1
            if steps > limit:
                raise OptimizationError("optimizer propagation did not converge")
            event = self._queue.popleft()
            handlers[event[0]](*event[1:])

    def _or_state(self, or_key: OrKey) -> _OrState:
        state = self._or_states.get(or_key)
        if state is None:
            state = _OrState(key=or_key)
            self._or_states[or_key] = state
            self.recorder.touch_or(or_key)
        return state

    # ------------------------------------------------------------------
    # Plan enumeration (rules R1-R5)
    # ------------------------------------------------------------------

    def _handle_explore(self, or_key: OrKey) -> None:
        state = self._or_state(or_key)
        if state.explored or not state.alive:
            return
        state.explored = True
        self.recorder.touch_or(or_key)
        for entry in self.enumerator.expand(or_key):
            state.alternatives[entry.key.index] = entry
            self.recorder.touch_and(entry.key)
            for child in entry.children():
                self._parents_of.setdefault(child, set()).add(entry.key)
            self._activate(entry)

    def _activate(self, entry: SearchSpaceEntry) -> None:
        """Insert an alternative into the SearchSpace view."""
        and_key = entry.key
        if and_key in self._active:
            return
        self._active.add(and_key)
        self._pruned.discard(and_key)
        self.recorder.touch_and(and_key)
        self._acquire_children(entry)
        self._enqueue(("cost", and_key))

    def _acquire_children(self, entry: SearchSpaceEntry) -> None:
        for child in entry.children():
            child_state = self._or_state(child)
            if self.pruning.reference_counting:
                self._refcounts.increment(child)
            if not child_state.explored:
                self._enqueue(("explore", child))
            elif not child_state.alive:
                self._revive(child)

    def _release_children(self, entry: SearchSpaceEntry) -> None:
        for child in entry.children():
            if not self.pruning.reference_counting:
                continue
            transition = self._refcounts.decrement(child)
            if transition is RefTransition.BECAME_DEAD and child != self.root_key:
                self._kill(child)

    # ------------------------------------------------------------------
    # Reference counting (§3.2 / §4.2)
    # ------------------------------------------------------------------

    def _kill(self, or_key: OrKey) -> None:
        """All parent plans of this OR node are gone: prune its plans."""
        state = self._or_states.get(or_key)
        if state is None or not state.alive:
            return
        state.alive = False
        self.recorder.touch_or(or_key)
        for entry in state.alternatives.values():
            and_key = entry.key
            if and_key in self._active:
                self._active.remove(and_key)
                self._pruned.add(and_key)
                self.recorder.touch_and(and_key)
                self._clear_contributions(entry)
                self._release_children(entry)

    def _revive(self, or_key: OrKey) -> None:
        """An OR node regained a parent: re-introduce (and re-cost) its plans."""
        state = self._or_state(or_key)
        if state.alive:
            return
        state.alive = True
        self.recorder.touch_or(or_key)
        if not state.explored:
            self._enqueue(("explore", or_key))
            return
        # Costs computed while the node was dead may be stale; re-derive every
        # alternative, letting the pruning filter re-activate the viable ones.
        for entry in state.alternatives.values():
            self._enqueue(("cost", entry.key))

    # ------------------------------------------------------------------
    # Cost estimation (rules R6-R8)
    # ------------------------------------------------------------------

    def _handle_cost(self, and_key: AndKey) -> None:
        state = self._or_states.get(and_key.or_key)
        if state is None:
            return
        if not state.alive and not self._incremental_pass:
            # The region died between enqueue and processing, so the update
            # this event would have applied is dropped: the retained cost may
            # now be stale.  Remember it for the next reoptimize() refresh.
            if and_key in self._plan_costs:
                self._stale_retained.add(and_key)
            return
        entry = state.alternatives.get(and_key.index)
        if entry is None:
            return
        child_costs: List[float] = []
        for child in entry.children():
            best = self._best.value(child)
            if best is None:
                # Re-enqueued when the child's first BestCost appears.  If the
                # child was never explored (its whole region was pruned before
                # producing a cost) and this alternative is still of interest,
                # trigger its exploration so the cost can eventually be derived.
                child_state = self._or_states.get(child)
                if (
                    child_state is not None
                    and not child_state.explored
                    and (and_key in self._active or self._incremental_pass)
                ):
                    child_state.alive = True
                    self._enqueue(("explore", child))
                return
            child_costs.append(best)
        local_cost, cardinality = self.cost_model.local_cost(entry, self.enumerator)
        total_cost = self.cost_model.combine(local_cost, *child_costs)

        previous = self._plan_costs.get(and_key)
        if previous is not None and abs(previous.total_cost - total_cost) < _EPSILON and abs(
            previous.local_cost - local_cost
        ) < _EPSILON:
            # Costs are unchanged, but the pruning decision may still need to
            # be revisited (e.g. this alternative is the best plan of a group
            # that was just revived, so its children must be re-acquired).
            self._apply_pruning_filter(and_key, total_cost)
            return
        left_cost = child_costs[0] if child_costs else 0.0
        right_cost = child_costs[1] if len(child_costs) > 1 else 0.0
        self._plan_costs[and_key] = PlanCostEntry(
            key=and_key,
            local_cost=local_cost,
            total_cost=total_cost,
            left_cost=left_cost,
            right_cost=right_cost,
            cardinality=cardinality,
        )
        self._stale_retained.discard(and_key)
        self.recorder.touch_and(and_key)
        self.recorder.record_plan_cost()

        or_key = and_key.or_key
        if previous is None:
            change = self._best.insert(or_key, total_cost, and_key)
        else:
            change = self._best.update(or_key, previous.total_cost, total_cost, and_key)

        self._apply_pruning_filter(and_key, total_cost)
        if change is not None:
            old_value = change.old_value.value if change.old_value is not None else None
            self._enqueue(("best_changed", or_key, old_value, change.value.value))
        self._refresh_contributions(entry)

    # ------------------------------------------------------------------
    # Aggregate selection with tuple source suppression (§3.1 / §4.1)
    # ------------------------------------------------------------------

    def _apply_pruning_filter(self, and_key: AndKey, total_cost: float) -> None:
        if not self.pruning.aggregate_selection:
            return
        or_key = and_key.or_key
        threshold = self._best.value(or_key)
        if threshold is None:
            threshold = INFINITY
        if self._bounds is not None:
            threshold = min(threshold, self._bounds.bound(or_key))
        if total_cost > threshold + _EPSILON:
            self._prune_alternative(and_key)
        else:
            state = self._or_states.get(or_key)
            if state is not None and state.alive:
                self._unprune_alternative(and_key)

    def _prune_alternative(self, and_key: AndKey) -> None:
        if and_key in self._pruned and and_key not in self._active:
            return
        newly_pruned = and_key not in self._pruned
        self._pruned.add(and_key)
        if newly_pruned:
            self.recorder.touch_and(and_key)
        if not self.pruning.tuple_source_suppression:
            return
        if and_key in self._active:
            self._active.remove(and_key)
            self.recorder.touch_and(and_key)
            state = self._or_states[and_key.or_key]
            entry = state.alternatives[and_key.index]
            self._clear_contributions(entry)
            self._release_children(entry)

    def _unprune_alternative(self, and_key: AndKey) -> None:
        state = self._or_states[and_key.or_key]
        entry = state.alternatives[and_key.index]
        was_pruned = and_key in self._pruned
        self._pruned.discard(and_key)
        if and_key not in self._active:
            self._active.add(and_key)
            self.recorder.touch_and(and_key)
            self._acquire_children(entry)
            self._refresh_contributions(entry)
            self._enqueue(("cost", and_key))
        elif was_pruned:
            self.recorder.touch_and(and_key)

    # ------------------------------------------------------------------
    # Plan selection (rules R9-R10) and propagation of BestCost deltas
    # ------------------------------------------------------------------

    def _handle_best_changed(
        self, or_key: OrKey, old_value: Optional[float], new_value: float
    ) -> None:
        self.recorder.touch_or(or_key)
        state = self._or_states.get(or_key)
        if state is None:
            return

        # Dynamic-programming effect of aggregate selection: once a cheaper
        # plan is known, equivalent plans that are now worse get suppressed,
        # and the new minimum (which may have been pruned earlier with a stale
        # cost) is re-introduced.
        if self.pruning.aggregate_selection:
            best_entry = self._best.current(or_key)
            if best_entry is not None:
                for index, entry in state.alternatives.items():
                    and_key = entry.key
                    cost = self._plan_costs.get(and_key)
                    if cost is None:
                        continue
                    if and_key == best_entry.payload:
                        if and_key in self._pruned and state.alive:
                            self._unprune_alternative(and_key)
                    elif and_key in self._active and cost.total_cost > best_entry.value + _EPSILON:
                        self._prune_alternative(and_key)

        # Propagate to parents: their total costs depend on this BestCost.
        # During incremental maintenance pruned/dead parents are re-costed too,
        # so that their retained entries stay consistent with the new bests.
        # During the initial pass dead parents are skipped for efficiency, but
        # their retained costs are now stale: remember them so reoptimize()
        # can refresh them before they feed re-introduction decisions.
        for parent in self._parents_of.get(or_key, ()):  # noqa: B020 - set iteration
            parent_state = self._or_states.get(parent.or_key)
            if parent_state is None:
                continue
            if parent_state.alive or self._incremental_pass:
                self._enqueue(("cost", parent))
            else:
                self._stale_retained.add(parent)

        # Recursive bounding: BestCost feeds the Bound relation (rule r4).
        if self._bounds is not None:
            change = self._bounds.update_best_cost(or_key, new_value)
            if change is not None:
                self._enqueue(("bound_changed", or_key, change.old_bound, change.new_bound))

    # ------------------------------------------------------------------
    # Recursive bounding (§3.3 / §4.3)
    # ------------------------------------------------------------------

    def _refresh_contributions(self, entry: SearchSpaceEntry) -> None:
        """Recompute the bound this alternative passes down to its children."""
        if self._bounds is None or entry.is_leaf:
            return
        and_key = entry.key
        cost = self._plan_costs.get(and_key)
        active = and_key in self._active
        parent_bound = self._bounds.bound(and_key.or_key)
        changes: List[Optional[BoundChange]] = []
        if not active or cost is None or parent_bound == INFINITY:
            changes.append(self._bounds.set_contribution(entry.left, and_key, "left", None))
            if entry.right is not None:
                changes.append(self._bounds.set_contribution(entry.right, and_key, "right", None))
        elif entry.is_unary:
            assert entry.left is not None
            changes.append(
                self._bounds.set_contribution(
                    entry.left, and_key, "left", parent_bound - cost.local_cost
                )
            )
        else:
            assert entry.left is not None and entry.right is not None
            left_best = self._best.value(entry.left)
            right_best = self._best.value(entry.right)
            left_bound = (
                parent_bound - cost.local_cost - right_best
                if right_best is not None
                else INFINITY
            )
            right_bound = (
                parent_bound - cost.local_cost - left_best
                if left_best is not None
                else INFINITY
            )
            changes.append(self._bounds.set_contribution(entry.left, and_key, "left", left_bound))
            changes.append(
                self._bounds.set_contribution(entry.right, and_key, "right", right_bound)
            )
        for change in changes:
            if change is not None:
                self._enqueue(("bound_changed", change.or_key, change.old_bound, change.new_bound))

    def _clear_contributions(self, entry: SearchSpaceEntry) -> None:
        if self._bounds is None or entry.is_leaf:
            return
        for side, child in (("left", entry.left), ("right", entry.right)):
            if child is None:
                continue
            change = self._bounds.set_contribution(child, entry.key, side, None)
            if change is not None:
                self._enqueue(("bound_changed", change.or_key, change.old_bound, change.new_bound))

    def _handle_bound_changed(self, or_key: OrKey, old_bound: float, new_bound: float) -> None:
        if self._bounds is None:
            return
        self.recorder.touch_or(or_key)
        state = self._or_states.get(or_key)
        if state is None:
            return
        if new_bound < old_bound:
            # Tighter bound: prune active plans that now exceed it.
            for entry in state.alternatives.values():
                cost = self._plan_costs.get(entry.key)
                if (
                    cost is not None
                    and entry.key in self._active
                    and cost.total_cost > new_bound + _EPSILON
                ):
                    self._prune_alternative(entry.key)
        else:
            # Looser bound: the best previously-pruned plan may be viable again.
            candidates = [
                (self._plan_costs[entry.key].total_cost, entry.key)
                for entry in state.alternatives.values()
                if entry.key in self._pruned and entry.key in self._plan_costs
            ]
            viable = [item for item in candidates if item[0] <= new_bound + _EPSILON]
            if viable and state.alive:
                if self.pruning.aggregate_selection:
                    viable = [min(viable)]
                for _, and_key in viable:
                    self._unprune_alternative(and_key)
        # The bound of this OR node feeds the bounds of its children through
        # every active alternative (rules r1-r2).
        for entry in state.alternatives.values():
            if entry.key in self._active:
                self._refresh_contributions(entry)

    # ------------------------------------------------------------------
    # Incremental re-optimization seeding
    # ------------------------------------------------------------------

    def _affected_alternatives(
        self, deltas: Sequence[StatisticsDelta], extra: Set[AndKey] = frozenset()
    ) -> List[AndKey]:
        affected: Set[AndKey] = set(extra)
        for or_key, state in self._or_states.items():
            # Dead (pruned) regions are included as well: their retained costs
            # must stay consistent with the new statistics, otherwise they can
            # never be correctly re-introduced (§4.1's "recomputation of
            # pruned state").
            for delta in deltas:
                if delta.is_noop:
                    continue
                if delta.kind is ChangeKind.SCAN_COST:
                    hit = or_key.expression == delta.expression
                else:
                    hit = delta.expression.aliases <= or_key.expression.aliases
                if hit:
                    affected.update(entry.key for entry in state.alternatives.values())
                    break
        ordered = sorted(
            affected,
            key=lambda key: (len(key.expression), 0 if key.prop.is_any else 1, key.index),
        )
        return ordered

    # ------------------------------------------------------------------
    # Plan extraction
    # ------------------------------------------------------------------

    def _build_plan(self, or_key: OrKey, visiting: Set[OrKey]) -> PhysicalPlan:
        if or_key in visiting:
            raise OptimizationError(f"cycle while extracting plan at {or_key}")
        extreme = self._best.current(or_key)
        if extreme is None:
            raise OptimizationError(f"no costed plan available for {or_key}")
        and_key = extreme.payload
        state = self._or_states[or_key]
        entry = state.alternatives[and_key.index]
        cost = self._plan_costs[and_key]
        visiting = visiting | {or_key}
        children = tuple(self._build_plan(child, visiting) for child in entry.children())
        details: Tuple[Tuple[str, object], ...] = ()
        if entry.physical_op is PhysicalOperator.INDEX_SCAN:
            target = self.enumerator.index_scan_target(or_key.expression, or_key.prop)
            if target is not None:
                column, index = target
                details = (("index", index.name), ("index_column", str(column)))
        return PhysicalPlan(
            operator=entry.physical_op,
            expression=or_key.expression,
            output_property=or_key.prop,
            children=children,
            local_cost=cost.local_cost,
            total_cost=cost.total_cost,
            cardinality=cost.cardinality,
            details=details,
        )

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def _collect_metrics(self, incremental: bool) -> OptimizationMetrics:
        or_enumerated = len(self._or_states)
        and_enumerated = sum(len(state.alternatives) for state in self._or_states.values())
        or_pruned = 0
        for or_key, state in self._or_states.items():
            has_active = any(entry.key in self._active for entry in state.alternatives.values())
            if not state.alive or (state.explored and not has_active):
                or_pruned += 1
        metrics = OptimizationMetrics(
            or_nodes_enumerated=or_enumerated,
            or_nodes_pruned=or_pruned,
            and_nodes_enumerated=and_enumerated,
            and_nodes_pruned=len(self._pruned),
            plan_costs_computed=self.recorder.plan_costs_computed,
            elapsed_seconds=self.recorder.elapsed(),
        )
        if incremental:
            metrics.or_nodes_touched = self.recorder.touched_or_count
            metrics.and_nodes_touched = self.recorder.touched_and_count
            metrics.or_nodes_total = or_enumerated
            metrics.and_nodes_total = and_enumerated
        return metrics
