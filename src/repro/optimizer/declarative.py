"""The declarative, incrementally-maintainable query optimizer (the paper's core).

The optimizer's state is a set of materialized views mirroring Figure 1 of the
paper:

* ``SearchSpace`` — the active physical alternatives (AND nodes),
* ``PlanCost`` — the costed alternatives, with *all* computed costs (even
  pruned ones) retained so "next-best" plans can be recovered after
  deletions/updates,
* ``BestCost`` / ``BestPlan`` — the per-OR-node minimum over ``PlanCost``,
* ``Bound`` — branch-and-bound limits maintained by
  :class:`~repro.optimizer.pruning.bounds.BoundsManager`.

Rules R1–R5 (plan enumeration) correspond to :meth:`_handle_explore`,
R6–R8 (cost estimation) to :meth:`_handle_cost`, and R9–R10 (plan selection)
to :meth:`_update_best` plus :meth:`best_plan`.  All propagation happens
through a single work queue of delta events, so there is no fixed top-down or
bottom-up control flow — any processing order converges to the same state,
which is what makes incremental re-optimization (:meth:`reoptimize`) possible:
statistics changes are simply injected as cost-update events into the same
queue.

**The memo is int-keyed.**  The enumerator interns every expression-property
pair it meets into a dense OR id; the alternatives of an OR node get
consecutive AND ids when it is explored.  Every view is then a column indexed
by those ids: flags in byte arrays, child ids and costs in typed arrays,
reference counts and bounds in dicts of ints and floats.  No per-row Python
object is built or hashed on the hot path, and a retained optimizer holds a
few dozen containers the garbage collector can skip instead of thousands of
keys and rows it must scan.  :class:`OrKey`, :class:`AndKey` and
:class:`SearchSpaceEntry` are built only at the API boundary
(:meth:`best_cost`, :meth:`bound`, :meth:`active_search_space`,
:meth:`search_space_rows`, :meth:`search_space_size`, plan extraction).
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, List, Optional, Sequence, Set, Tuple

from repro.catalog.catalog import Catalog
from repro.common.errors import OptimizationError
from repro.cost.cost_model import CostModel, CostParameters
from repro.cost.overrides import ChangeKind, StatisticsDelta, StatisticsOverlay
from repro.datalog.refcount import ReferenceCounter, RefTransition
from repro.optimizer.metrics import MetricsRecorder, OptimizationMetrics
from repro.optimizer.pruning.bounds import INFINITY, BoundsManager
from repro.optimizer.search_space import (
    ANY_PROP_ID,
    EnumerationOptions,
    SearchSpaceEnumerator,
)
from repro.optimizer.tables import AndKey, OrKey, PruningConfig, SearchSpaceEntry
from repro.relational.expressions import Expression
from repro.relational.plan import LogicalOperator, PhysicalOperator, PhysicalPlan
from repro.relational.properties import ANY_PROPERTY
from repro.relational.query import Query

_EPSILON = 1e-9

# Event kinds, indexed like ``metrics.EVENT_KINDS``.  An event is a tuple
# ``(kind, *args)``: (EXPLORE, or_id), (COST, and_id),
# (BEST_CHANGED, or_id, new best), (BOUND_CHANGED, or_id, old bound, new bound).
_EXPLORE, _COST, _BEST_CHANGED, _BOUND_CHANGED = range(4)

_NO_ID = -1


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
        self._queue.append((_EXPLORE, self._root))
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
        stale: Set[int] = set()
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

    # -- read-only views (the API boundary: ids become keys here) ------------

    def best_cost(self, or_key: Optional[OrKey] = None) -> float:
        key = or_key if or_key is not None else self.root_key
        or_id = self.enumerator.find(key)
        if or_id is None or self._best_alt[or_id] == _NO_ID:
            raise OptimizationError(f"no plan cost known for {key}")
        return self._best_value[or_id]

    def best_plan(self) -> PhysicalPlan:
        """Extract the currently-best physical plan from the optimizer state."""
        plan = self._build_plan(self._root, ())
        if self.query.has_aggregation:
            plan = self.cost_model.aggregate_plan(plan)
        return plan

    def search_space_size(self) -> Tuple[int, int]:
        """(OR nodes, AND nodes) currently enumerated in the memo."""
        return self.enumerator.or_count, len(self._and_or)

    def active_search_space(self) -> Set[AndKey]:
        """The current contents of the ``SearchSpace`` view."""
        return {self.and_key(and_id) for and_id in self._active_ids()}

    def search_space_rows(self) -> List[SearchSpaceEntry]:
        """Active SearchSpace entries (handy for examples reproducing Table 1)."""
        rows = [self.entry(and_id) for and_id in self._active_ids()]
        return sorted(rows, key=lambda entry: (len(entry.key.expression), str(entry.key)))

    def bound(self, or_key: OrKey) -> float:
        or_id = self.enumerator.find(or_key)
        if self._bounds is None or or_id is None:
            return INFINITY
        return self._bounds.bound(or_id)

    def and_key(self, and_id: int) -> AndKey:
        """The public key of AND node *and_id*."""
        or_id = self._and_or[and_id]
        enumerator = self.enumerator
        return AndKey(
            enumerator.or_expressions[or_id],
            enumerator.props[enumerator.or_prop_ids[or_id]],
            and_id - self._first_alt[or_id] + 1,
        )

    def entry(self, and_id: int) -> SearchSpaceEntry:
        """The ``SearchSpace`` row of AND node *and_id*."""
        key = self.and_key(and_id)
        left, right = self._left[and_id], self._right[and_id]
        enumerator = self.enumerator
        return SearchSpaceEntry(
            key=key,
            logical_op=LogicalOperator.SCAN if key.expression.is_leaf else LogicalOperator.JOIN,
            physical_op=self._and_op[and_id],
            left=None if left == _NO_ID else enumerator.or_key(left),
            right=None if right == _NO_ID else enumerator.or_key(right),
        )

    def alternatives(self, or_id: int) -> range:
        """The AND ids of OR node *or_id*'s alternatives (empty until explored)."""
        first = self._first_alt[or_id]
        return range(first, first + self._alt_count[or_id])

    def _active_ids(self) -> Iterable[int]:
        active = self._active
        return (and_id for and_id in range(len(active)) if active[and_id])

    # ------------------------------------------------------------------
    # State & queue
    # ------------------------------------------------------------------

    def _reset_state(self) -> None:
        enumerator = self.enumerator
        enumerator.reset_ids()
        # Per OR id.  An OR node has state from the moment it is interned:
        # the root here, children when their parent is explored.
        self._explored = bytearray()
        self._alive = bytearray()
        self._first_alt = array("l")
        self._alt_count = array("l")
        self._best_alt = array("l")  # the BestPlan alternative, or _NO_ID
        self._best_value = array("d")  # BestCost, valid when _best_alt is set
        # Parents of an OR node, as a linked list of links ``2 * and_id +
        # side`` (side 0: the parent's left child, 1: its right child).
        self._parent_head = array("l")
        self._parent_tail = array("l")
        self._parent_next = array("l")
        # Per AND id: the SearchSpace row ...
        self._and_or = array("l")
        self._and_op: List[PhysicalOperator] = []
        self._left = array("l")
        self._right = array("l")
        self._active = bytearray()
        self._pruned = bytearray()
        # ... and its PlanCost row (valid when _costed is set).  _cost_seq is
        # when the total last changed: of equal-cost alternatives, the one
        # that has held its cost longest is BestPlan.
        self._costed = bytearray()
        self._local = array("d")
        self._total = array("d")
        self._cardinality = array("d")
        self._cost_seq = array("q")
        self._next_seq = 0
        self._refcounts: ReferenceCounter[int] = ReferenceCounter()
        self._bounds: Optional[BoundsManager] = (
            BoundsManager() if self.pruning.recursive_bounding else None
        )
        self._queue: Deque[Tuple] = deque()
        # Retained alternatives of refcount-killed regions whose stored costs
        # went stale (a child's BestCost changed while the region was dead).
        # optimize() refreshes them before it returns, reoptimize() before it
        # trusts retained state.
        self._stale_retained: Set[int] = set()
        self._optimized = False
        # During incremental re-optimization (and the refresh that ends a cold
        # pass) even pruned/dead regions are kept cost-consistent: their
        # retained costs feed next-best recovery and re-introduction
        # decisions.  The initial pass skips them and records what it skipped
        # in _stale_retained.
        self._incremental_pass = False
        self._root = enumerator.intern(self.query.root_expression, ANY_PROP_ID)
        self._grow_or_state()

    def _grow_or_state(self) -> None:
        """Give every newly interned OR node its (unexplored, alive) state."""
        new = self.enumerator.or_count - len(self._alive)
        if new <= 0:
            return
        touch = self.recorder.touch_or
        for or_id in range(len(self._alive), self.enumerator.or_count):
            touch(or_id)
        self._explored.extend(bytes(new))
        self._alive.extend(b"\x01" * new)
        unset = array("l", [_NO_ID]) * new
        self._first_alt.extend(array("l", [0]) * new)
        self._alt_count.extend(array("l", [0]) * new)
        self._best_alt.extend(unset)
        self._best_value.extend(array("d", [0.0]) * new)
        self._parent_head.extend(unset)
        self._parent_tail.extend(unset)

    def _refresh(self, and_ids: Sequence[int]) -> None:
        """Re-cost *and_ids* and propagate, dead and pruned regions included."""
        self._incremental_pass = True
        try:
            self._queue.extend((_COST, and_id) for and_id in and_ids)
            self._run()
        finally:
            self._incremental_pass = False

    def _run(self) -> None:
        explore, cost = self._handle_explore, self._handle_cost
        best_changed, bound_changed = self._handle_best_changed, self._handle_bound_changed
        queue = self._queue
        popleft = queue.popleft
        counts = self.recorder.events
        steps = 0
        limit = 5_000_000
        while queue:
            steps += 1
            if steps > limit:
                raise OptimizationError("optimizer propagation did not converge")
            event = popleft()
            kind = event[0]
            counts[kind] += 1
            if kind == _COST:
                cost(event[1])
            elif kind == _BEST_CHANGED:
                best_changed(event[1], event[2])
            elif kind == _BOUND_CHANGED:
                bound_changed(event[1], event[2], event[3])
            else:
                explore(event[1])

    # ------------------------------------------------------------------
    # Plan enumeration (rules R1-R5)
    # ------------------------------------------------------------------

    def _handle_explore(self, or_id: int) -> None:
        if self._explored[or_id] or not self._alive[or_id]:
            return
        self._explored[or_id] = 1
        self.recorder.touch_or(or_id)
        alternatives = self.enumerator.expand_ids(or_id)
        self._grow_or_state()
        first = len(self._and_or)
        self._first_alt[or_id] = first
        self._alt_count[or_id] = len(alternatives)
        touch_and = self.recorder.touch_and
        for and_id, (physical_op, left, right) in enumerate(alternatives, start=first):
            self._and_or.append(or_id)
            self._and_op.append(physical_op)
            self._left.append(left)
            self._right.append(right)
            self._active.append(0)
            self._pruned.append(0)
            self._costed.append(0)
            self._local.append(0.0)
            self._total.append(0.0)
            self._cardinality.append(0.0)
            self._cost_seq.append(0)
            self._parent_next.extend((_NO_ID, _NO_ID))
            touch_and(and_id)
            if left != _NO_ID:
                self._link_parent(left, 2 * and_id)
            if right != _NO_ID:
                self._link_parent(right, 2 * and_id + 1)
            self._activate(and_id)

    def _link_parent(self, child: int, link: int) -> None:
        tail = self._parent_tail[child]
        if tail == _NO_ID:
            self._parent_head[child] = link
        else:
            self._parent_next[tail] = link
        self._parent_tail[child] = link

    def _activate(self, and_id: int) -> None:
        """Insert an alternative into the SearchSpace view."""
        if self._active[and_id]:
            return
        self._active[and_id] = 1
        self._pruned[and_id] = 0
        self.recorder.touch_and(and_id)
        self._acquire_children(and_id)
        self._queue.append((_COST, and_id))

    def _acquire_children(self, and_id: int) -> None:
        for child in (self._left[and_id], self._right[and_id]):
            if child == _NO_ID:
                continue
            if self.pruning.reference_counting:
                self._refcounts.increment(child)
            if not self._explored[child]:
                self._queue.append((_EXPLORE, child))
            elif not self._alive[child]:
                self._revive(child)

    def _release_children(self, and_id: int) -> None:
        if not self.pruning.reference_counting:
            return
        for child in (self._left[and_id], self._right[and_id]):
            if child == _NO_ID:
                continue
            transition = self._refcounts.decrement(child)
            if transition is RefTransition.BECAME_DEAD and child != self._root:
                self._kill(child)

    # ------------------------------------------------------------------
    # Reference counting (§3.2 / §4.2)
    # ------------------------------------------------------------------

    def _kill(self, or_id: int) -> None:
        """All parent plans of this OR node are gone: prune its plans."""
        if not self._alive[or_id]:
            return
        self._alive[or_id] = 0
        self.recorder.touch_or(or_id)
        active = self._active
        for and_id in self.alternatives(or_id):
            if active[and_id]:
                active[and_id] = 0
                self._pruned[and_id] = 1
                self.recorder.touch_and(and_id)
                self._clear_contributions(and_id)
                self._release_children(and_id)

    def _revive(self, or_id: int) -> None:
        """An OR node regained a parent: re-introduce (and re-cost) its plans."""
        if self._alive[or_id]:
            return
        self._alive[or_id] = 1
        self.recorder.touch_or(or_id)
        if not self._explored[or_id]:
            self._queue.append((_EXPLORE, or_id))
            return
        # Costs computed while the node was dead may be stale; re-derive every
        # alternative, letting the pruning filter re-activate the viable ones.
        self._queue.extend((_COST, and_id) for and_id in self.alternatives(or_id))

    # ------------------------------------------------------------------
    # Cost estimation (rules R6-R8)
    # ------------------------------------------------------------------

    def _handle_cost(self, and_id: int) -> None:
        or_id = self._and_or[and_id]
        alive = self._alive[or_id]
        if not alive and not self._incremental_pass:
            # The region died between enqueue and processing, so the update
            # this event would have applied is dropped: the retained cost may
            # now be stale.  Remember it for the next reoptimize() refresh.
            if self._costed[and_id]:
                self._stale_retained.add(and_id)
            return
        best_alt, best_value = self._best_alt, self._best_value
        left, right = self._left[and_id], self._right[and_id]
        child_costs: Tuple[float, ...] = ()
        for child in (left, right):
            if child == _NO_ID:
                break
            if best_alt[child] == _NO_ID:
                # Re-enqueued when the child's first BestCost appears.  If the
                # child was never explored (its whole region was pruned before
                # producing a cost) and this alternative is still of interest,
                # trigger its exploration so the cost can eventually be derived.
                if not self._explored[child] and (
                    self._active[and_id] or self._incremental_pass
                ):
                    self._alive[child] = 1
                    self._queue.append((_EXPLORE, child))
                return
            child_costs += (best_value[child],)
        recorder = self.recorder
        if alive:
            recorder.cost_evals_live += 1
        else:
            recorder.cost_evals_dead += 1
        enumerator = self.enumerator
        expressions, props, prop_ids = (
            enumerator.or_expressions,
            enumerator.props,
            enumerator.or_prop_ids,
        )
        local_cost, cardinality = self.cost_model.operator_cost(
            self._and_op[and_id],
            expressions[or_id],
            props[prop_ids[or_id]],
            None if left == _NO_ID else expressions[left],
            None if right == _NO_ID else expressions[right],
            None if right == _NO_ID else props[prop_ids[right]],
            enumerator,
        )
        total_cost = self.cost_model.combine(local_cost, *child_costs)

        costed = self._costed[and_id]
        if (
            costed
            and abs(self._total[and_id] - total_cost) < _EPSILON
            and abs(self._local[and_id] - local_cost) < _EPSILON
        ):
            # Costs are unchanged, but the pruning decision may still need to
            # be revisited (e.g. this alternative is the best plan of a group
            # that was just revived, so its children must be re-acquired).
            self._apply_pruning_filter(and_id, total_cost)
            return
        previous = self._total[and_id] if costed else None
        self._costed[and_id] = 1
        self._local[and_id] = local_cost
        self._total[and_id] = total_cost
        self._cardinality[and_id] = cardinality
        self._stale_retained.discard(and_id)
        recorder.touch_and(and_id)
        recorder.record_plan_cost()

        changed = self._update_best(or_id, and_id, previous, total_cost)
        new_best = best_value[or_id]
        self._apply_pruning_filter(and_id, total_cost)
        if changed:
            self._queue.append((_BEST_CHANGED, or_id, new_best))
        self._refresh_contributions(and_id)

    # ------------------------------------------------------------------
    # Plan selection (rules R9-R10): BestCost / BestPlan
    # ------------------------------------------------------------------

    def _update_best(
        self, or_id: int, and_id: int, previous: Optional[float], total_cost: float
    ) -> bool:
        """Fold *and_id*'s new total into its OR node's minimum.

        Returns whether BestCost or BestPlan changed.  Every alternative's
        last cost stays in ``PlanCost``, so when the best one gets worse the
        next best is recovered by a scan of the OR node's alternatives.
        """
        if previous is None or total_cost != previous:
            self._cost_seq[and_id] = self._next_seq
            self._next_seq += 1
        best = self._best_alt[or_id]
        if best == _NO_ID:
            self._best_alt[or_id] = and_id
            self._best_value[or_id] = total_cost
            return True
        best_value = self._best_value[or_id]
        if best == and_id:
            if total_cost <= best_value:
                self._best_value[or_id] = total_cost
                return total_cost != best_value
            best = self._rescan_best(or_id)
            self._best_alt[or_id] = best
            self._best_value[or_id] = self._total[best]
            return True
        if total_cost < best_value:
            self._best_alt[or_id] = and_id
            self._best_value[or_id] = total_cost
            return True
        return False

    def _rescan_best(self, or_id: int) -> int:
        costed, total, seq = self._costed, self._total, self._cost_seq
        best = _NO_ID
        for and_id in self.alternatives(or_id):
            if costed[and_id] and (
                best == _NO_ID
                or total[and_id] < total[best]
                or (total[and_id] == total[best] and seq[and_id] < seq[best])
            ):
                best = and_id
        return best

    # ------------------------------------------------------------------
    # Aggregate selection with tuple source suppression (§3.1 / §4.1)
    # ------------------------------------------------------------------

    def _apply_pruning_filter(self, and_id: int, total_cost: float) -> None:
        if not self.pruning.aggregate_selection:
            return
        or_id = self._and_or[and_id]
        threshold = (
            self._best_value[or_id] if self._best_alt[or_id] != _NO_ID else INFINITY
        )
        if self._bounds is not None:
            threshold = min(threshold, self._bounds.bound(or_id))
        if total_cost > threshold + _EPSILON:
            self._prune_alternative(and_id)
        elif self._alive[or_id]:
            self._unprune_alternative(and_id)

    def _prune_alternative(self, and_id: int) -> None:
        pruned, active = self._pruned, self._active
        if pruned[and_id] and not active[and_id]:
            return
        if not pruned[and_id]:
            pruned[and_id] = 1
            self.recorder.touch_and(and_id)
        if not self.pruning.tuple_source_suppression:
            return
        if active[and_id]:
            active[and_id] = 0
            self.recorder.touch_and(and_id)
            self._clear_contributions(and_id)
            self._release_children(and_id)

    def _unprune_alternative(self, and_id: int) -> None:
        was_pruned = self._pruned[and_id]
        self._pruned[and_id] = 0
        if not self._active[and_id]:
            self._active[and_id] = 1
            self.recorder.touch_and(and_id)
            self._acquire_children(and_id)
            self._refresh_contributions(and_id)
            self._queue.append((_COST, and_id))
        elif was_pruned:
            self.recorder.touch_and(and_id)

    # ------------------------------------------------------------------
    # Propagation of BestCost deltas
    # ------------------------------------------------------------------

    def _handle_best_changed(self, or_id: int, new_value: float) -> None:
        self.recorder.touch_or(or_id)

        # Dynamic-programming effect of aggregate selection: once a cheaper
        # plan is known, equivalent plans that are now worse get suppressed,
        # and the new minimum (which may have been pruned earlier with a stale
        # cost) is re-introduced.
        if self.pruning.aggregate_selection:
            best = self._best_alt[or_id]
            if best != _NO_ID:
                limit = self._best_value[or_id] + _EPSILON
                costed, total = self._costed, self._total
                for and_id in self.alternatives(or_id):
                    if not costed[and_id]:
                        continue
                    if and_id == best:
                        if self._pruned[and_id] and self._alive[or_id]:
                            self._unprune_alternative(and_id)
                    elif self._active[and_id] and total[and_id] > limit:
                        self._prune_alternative(and_id)

        # Propagate to parents: their total costs depend on this BestCost.
        # During incremental maintenance pruned/dead parents are re-costed too,
        # so that their retained entries stay consistent with the new bests.
        # During the initial pass dead parents are skipped for efficiency, but
        # their retained costs are now stale: remember them so reoptimize()
        # can refresh them before they feed re-introduction decisions.
        and_or, alive, queue = self._and_or, self._alive, self._queue
        link = self._parent_head[or_id]
        while link != _NO_ID:
            parent = link >> 1
            if alive[and_or[parent]] or self._incremental_pass:
                queue.append((_COST, parent))
            else:
                self._stale_retained.add(parent)
            link = self._parent_next[link]

        # Recursive bounding: BestCost feeds the Bound relation (rule r4).
        if self._bounds is not None:
            change = self._bounds.update_best_cost(or_id, new_value)
            if change is not None:
                queue.append((_BOUND_CHANGED, or_id, change.old_bound, change.new_bound))

    # ------------------------------------------------------------------
    # Recursive bounding (§3.3 / §4.3)
    # ------------------------------------------------------------------

    def _refresh_contributions(self, and_id: int) -> None:
        """Recompute the bound this alternative passes down to its children.

        A contribution is keyed ``2 * and_id + side``, like its parent link.
        """
        bounds = self._bounds
        left, right = self._left[and_id], self._right[and_id]
        if bounds is None or left == _NO_ID:
            return
        parent_bound = bounds.bound(self._and_or[and_id])
        link = 2 * and_id
        if not self._active[and_id] or not self._costed[and_id] or parent_bound == INFINITY:
            left_change = bounds.set_contribution(left, link, None)
            right_change = (
                bounds.set_contribution(right, link + 1, None) if right != _NO_ID else None
            )
        elif right == _NO_ID:
            left_change = bounds.set_contribution(
                left, link, parent_bound - self._local[and_id]
            )
            right_change = None
        else:
            best_alt, best_value = self._best_alt, self._best_value
            local = self._local[and_id]
            left_bound = (
                parent_bound - local - best_value[right]
                if best_alt[right] != _NO_ID
                else INFINITY
            )
            right_bound = (
                parent_bound - local - best_value[left]
                if best_alt[left] != _NO_ID
                else INFINITY
            )
            left_change = bounds.set_contribution(left, link, left_bound)
            right_change = bounds.set_contribution(right, link + 1, right_bound)
        for change in (left_change, right_change):
            if change is not None:
                self._queue.append(
                    (_BOUND_CHANGED, change.or_key, change.old_bound, change.new_bound)
                )

    def _clear_contributions(self, and_id: int) -> None:
        bounds = self._bounds
        if bounds is None:
            return
        for side, child in enumerate((self._left[and_id], self._right[and_id])):
            if child == _NO_ID:
                continue
            change = bounds.set_contribution(child, 2 * and_id + side, None)
            if change is not None:
                self._queue.append(
                    (_BOUND_CHANGED, change.or_key, change.old_bound, change.new_bound)
                )

    def _handle_bound_changed(self, or_id: int, old_bound: float, new_bound: float) -> None:
        if self._bounds is None:
            return
        self.recorder.touch_or(or_id)
        costed, total, active, pruned = self._costed, self._total, self._active, self._pruned
        alternatives = self.alternatives(or_id)
        if new_bound < old_bound:
            # Tighter bound: prune active plans that now exceed it.
            limit = new_bound + _EPSILON
            for and_id in alternatives:
                if costed[and_id] and active[and_id] and total[and_id] > limit:
                    self._prune_alternative(and_id)
        else:
            # Looser bound: the best previously-pruned plan may be viable again.
            limit = new_bound + _EPSILON
            viable = [
                (total[and_id], and_id)
                for and_id in alternatives
                if pruned[and_id] and costed[and_id] and total[and_id] <= limit
            ]
            if viable and self._alive[or_id]:
                if self.pruning.aggregate_selection:
                    viable = [min(viable)]
                for _, and_id in viable:
                    self._unprune_alternative(and_id)
        # The bound of this OR node feeds the bounds of its children through
        # every active alternative (rules r1-r2).
        for and_id in alternatives:
            if active[and_id]:
                self._refresh_contributions(and_id)

    # ------------------------------------------------------------------
    # Incremental re-optimization seeding
    # ------------------------------------------------------------------

    def _affected_alternatives(
        self, deltas: Sequence[StatisticsDelta], extra: Set[int] = frozenset()
    ) -> List[int]:
        """The AND ids a refresh re-costs, smallest expression first.

        An OR node is hit by a scan-cost delta on exactly its expression, and
        by any other delta on a subset of its relations: one alias-bitmask
        test per OR node.
        """
        affected: Set[int] = set(extra)
        enumerator = self.enumerator
        hits = []
        for delta in deltas:
            if delta.is_noop:
                continue
            mask = enumerator.alias_mask(delta.expression)
            if mask >= 0:
                hits.append((delta.kind is ChangeKind.SCAN_COST, mask))
        if hits:
            # Dead (pruned) regions are included as well: their retained costs
            # must stay consistent with the new statistics, otherwise they can
            # never be correctly re-introduced (§4.1's "recomputation of
            # pruned state").
            for or_id, or_mask in enumerate(enumerator.or_masks):
                for exact, mask in hits:
                    if or_mask == mask if exact else or_mask & mask == mask:
                        affected.update(self.alternatives(or_id))
                        break
        masks, prop_ids, and_or, first_alt = (
            enumerator.or_masks,
            enumerator.or_prop_ids,
            self._and_or,
            self._first_alt,
        )

        def order(and_id: int) -> Tuple[int, int, int, int]:
            or_id = and_or[and_id]
            return (
                bin(masks[or_id]).count("1"),
                0 if prop_ids[or_id] == ANY_PROP_ID else 1,
                and_id - first_alt[or_id],
                and_id,
            )

        return sorted(affected, key=order)

    # ------------------------------------------------------------------
    # Plan extraction
    # ------------------------------------------------------------------

    def _build_plan(self, or_id: int, visiting: Tuple[int, ...]) -> PhysicalPlan:
        enumerator = self.enumerator
        if or_id in visiting:
            raise OptimizationError(f"cycle while extracting plan at {enumerator.or_key(or_id)}")
        and_id = self._best_alt[or_id]
        if and_id == _NO_ID:
            raise OptimizationError(f"no costed plan available for {enumerator.or_key(or_id)}")
        visiting = visiting + (or_id,)
        children = tuple(
            self._build_plan(child, visiting)
            for child in (self._left[and_id], self._right[and_id])
            if child != _NO_ID
        )
        expression = enumerator.or_expressions[or_id]
        prop = enumerator.props[enumerator.or_prop_ids[or_id]]
        operator = self._and_op[and_id]
        details: Tuple[Tuple[str, object], ...] = ()
        if operator is PhysicalOperator.INDEX_SCAN:
            target = enumerator.index_scan_target(expression, prop)
            if target is not None:
                column, index = target
                details = (("index", index.name), ("index_column", str(column)))
        return PhysicalPlan(
            operator=operator,
            expression=expression,
            output_property=prop,
            children=children,
            local_cost=self._local[and_id],
            total_cost=self._total[and_id],
            cardinality=self._cardinality[and_id],
            details=details,
        )

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def _collect_metrics(self, incremental: bool) -> OptimizationMetrics:
        or_enumerated, and_enumerated = self.search_space_size()
        active = self._active
        or_pruned = 0
        for or_id in range(or_enumerated):
            if not self._alive[or_id] or (
                self._explored[or_id]
                and not any(active[and_id] for and_id in self.alternatives(or_id))
            ):
                or_pruned += 1
        recorder = self.recorder
        metrics = OptimizationMetrics(
            or_nodes_enumerated=or_enumerated,
            or_nodes_pruned=or_pruned,
            and_nodes_enumerated=and_enumerated,
            and_nodes_pruned=self._pruned.count(1),
            plan_costs_computed=recorder.plan_costs_computed,
            elapsed_seconds=recorder.elapsed(),
            events=recorder.events_by_kind(),
            cost_evals_live=recorder.cost_evals_live,
            cost_evals_dead=recorder.cost_evals_dead,
        )
        if incremental:
            metrics.or_nodes_touched = recorder.touched_or_count
            metrics.and_nodes_touched = recorder.touched_and_count
            metrics.or_nodes_total = or_enumerated
            metrics.and_nodes_total = and_enumerated
        return metrics
