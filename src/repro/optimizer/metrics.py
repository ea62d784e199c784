"""Optimizer metrics: the quantities plotted in the paper's evaluation.

Two families of numbers matter:

* **Pruning ratios** (Figures 4 and 7): of everything the optimizer
  enumerated, how many plan-table entries (OR nodes) and plan alternatives
  (AND nodes) were subsequently pruned from its state.
* **Update ratios** (Figures 5, 6 and 8): during an incremental
  re-optimization, how many OR / AND nodes had their state touched, relative
  to the total state a from-scratch optimization would process.

Beside them, the work itself: the delta events processed, by kind, and the
cost evaluations (one per alternative re-costed), split into those of live
regions and those of dead (refcount-killed) regions kept consistent for
later re-introduction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Set

#: The kinds of delta event the declarative optimizer processes, in the
#: order of :attr:`MetricsRecorder.events`.
EVENT_KINDS = ("explore", "cost", "best_changed", "bound_changed")


@dataclass
class OptimizationMetrics:
    """Counters for one optimization (or re-optimization) run."""

    or_nodes_enumerated: int = 0
    or_nodes_pruned: int = 0
    and_nodes_enumerated: int = 0
    and_nodes_pruned: int = 0
    plan_costs_computed: int = 0
    elapsed_seconds: float = 0.0

    # incremental-run specific
    or_nodes_touched: int = 0
    and_nodes_touched: int = 0
    or_nodes_total: int = 0
    and_nodes_total: int = 0

    # work done: delta events by kind, and cost evaluations
    events: Dict[str, int] = field(default_factory=dict)
    cost_evals_live: int = 0
    cost_evals_dead: int = 0

    # -- derived ratios -----------------------------------------------------

    @property
    def pruning_ratio_or(self) -> float:
        if self.or_nodes_enumerated == 0:
            return 0.0
        return self.or_nodes_pruned / self.or_nodes_enumerated

    @property
    def pruning_ratio_and(self) -> float:
        if self.and_nodes_enumerated == 0:
            return 0.0
        return self.and_nodes_pruned / self.and_nodes_enumerated

    @property
    def update_ratio_or(self) -> float:
        if self.or_nodes_total == 0:
            return 0.0
        return self.or_nodes_touched / self.or_nodes_total

    @property
    def update_ratio_and(self) -> float:
        if self.and_nodes_total == 0:
            return 0.0
        return self.and_nodes_touched / self.and_nodes_total

    @property
    def cost_evals(self) -> int:
        return self.cost_evals_live + self.cost_evals_dead

    @property
    def events_processed(self) -> int:
        return sum(self.events.values())

    def work(self) -> Dict[str, object]:
        """The work counters: events by kind, cost evaluations, wall time."""
        return {
            "events": dict(self.events),
            "cost_evals_live": self.cost_evals_live,
            "cost_evals_dead": self.cost_evals_dead,
            "wall_ms": self.elapsed_seconds * 1e3,
        }

    def as_dict(self) -> Dict[str, float]:
        return {
            "or_nodes_enumerated": self.or_nodes_enumerated,
            "or_nodes_pruned": self.or_nodes_pruned,
            "and_nodes_enumerated": self.and_nodes_enumerated,
            "and_nodes_pruned": self.and_nodes_pruned,
            "plan_costs_computed": self.plan_costs_computed,
            "elapsed_seconds": self.elapsed_seconds,
            "pruning_ratio_or": self.pruning_ratio_or,
            "pruning_ratio_and": self.pruning_ratio_and,
            "or_nodes_touched": self.or_nodes_touched,
            "and_nodes_touched": self.and_nodes_touched,
            "update_ratio_or": self.update_ratio_or,
            "update_ratio_and": self.update_ratio_and,
            "events_processed": self.events_processed,
            "cost_evals": self.cost_evals,
            "cost_evals_live": self.cost_evals_live,
            "cost_evals_dead": self.cost_evals_dead,
        }


class MetricsRecorder:
    """Records touched node sets and work counters for one run.

    Node keys are opaque (the declarative optimizer touches OR and AND ids).
    :attr:`events` counts processed events per kind, indexed like
    :data:`EVENT_KINDS`; the optimizer bumps it and the cost-evaluation
    counters directly on its hot path.
    """

    def __init__(self) -> None:
        self._touched_or: Set[Hashable] = set()
        self._touched_and: Set[Hashable] = set()
        # Called on the optimizer's hot path: the sets' own ``add``, so a
        # touch costs no Python frame.  start() clears, never replaces, them.
        self.touch_or: Callable[[Hashable], None] = self._touched_or.add
        self.touch_and: Callable[[Hashable], None] = self._touched_and.add
        self._start: Optional[float] = None
        self.plan_costs_computed = 0
        self.events: List[int] = [0] * len(EVENT_KINDS)
        self.cost_evals_live = 0
        self.cost_evals_dead = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self._touched_or.clear()
        self._touched_and.clear()
        self.plan_costs_computed = 0
        self.events[:] = [0] * len(EVENT_KINDS)
        self.cost_evals_live = 0
        self.cost_evals_dead = 0
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        if self._start is None:
            return 0.0
        return time.perf_counter() - self._start

    # -- recording -------------------------------------------------------------

    def record_plan_cost(self) -> None:
        self.plan_costs_computed += 1

    # -- reporting --------------------------------------------------------------

    @property
    def touched_or_count(self) -> int:
        return len(self._touched_or)

    @property
    def touched_and_count(self) -> int:
        return len(self._touched_and)

    def events_by_kind(self) -> Dict[str, int]:
        return dict(zip(EVENT_KINDS, self.events))
