"""Recursive bounding (§3.3 / §4.3): the ``Bound`` relation.

``Bound(expr, prop)`` is the tightest cost any plan for that OR node may have
and still participate in the optimal plan.  It is the minimum of

* the best known cost of an equivalent plan (``BestCost``), and
* the loosest bound any *parent* plan can tolerate (``MaxBound``), where a
  parent alternative ``p`` with bound ``B`` and local cost ``l`` can tolerate
  ``B - l - BestCost(sibling)`` for this child (rules r1–r4 of the paper).

The :class:`BoundsManager` stores the current bound per OR node and every
parent contribution, grouped by child, with the group's maximum cached (so
removing one parent recovers the next-loosest bound by a rescan of that
group), and reports every bound change so the optimizer can prune or
re-introduce plans incrementally.  Keys are opaque: the declarative
optimizer passes OR ids for children and ``2 * and_id + side`` for
contributions, so the state holds only ints and floats.
"""

from __future__ import annotations

from typing import Dict, Hashable, NamedTuple, Optional

INFINITY = float("inf")


class BoundChange(NamedTuple):
    """A change to one OR node's bound value."""

    or_key: Hashable
    old_bound: float
    new_bound: float

    @property
    def increased(self) -> bool:
        return self.new_bound > self.old_bound

    @property
    def decreased(self) -> bool:
        return self.new_bound < self.old_bound


class BoundsManager:
    """Incrementally maintained branch-and-bound limits per OR node."""

    def __init__(self) -> None:
        # child -> {contribution key: value}, and the maximum of each group
        self._contributions: Dict[Hashable, Dict[Hashable, float]] = {}
        self._max_contribution: Dict[Hashable, float] = {}
        self._child_of: Dict[Hashable, Hashable] = {}
        self._best_costs: Dict[Hashable, float] = {}
        self._bounds: Dict[Hashable, float] = {}

    # -- reads ------------------------------------------------------------

    def bound(self, or_key: Hashable) -> float:
        return self._bounds.get(or_key, INFINITY)

    def best_cost(self, or_key: Hashable) -> float:
        return self._best_costs.get(or_key, INFINITY)

    def max_parent_bound(self, or_key: Hashable) -> float:
        return self._max_contribution.get(or_key, INFINITY)

    # -- updates ------------------------------------------------------------

    def update_best_cost(self, or_key: Hashable, value: Optional[float]) -> Optional[BoundChange]:
        """Record a new BestCost for an OR node (None clears it)."""
        if value is None:
            self._best_costs.pop(or_key, None)
        else:
            self._best_costs[or_key] = value
        return self._recompute(or_key)

    def set_contribution(
        self, child: Hashable, key: Hashable, value: Optional[float]
    ) -> Optional[BoundChange]:
        """Set / update / remove one parent contribution to *child*'s bound.

        *key* names the contribution: one parent alternative and the side
        the child sits on.
        """
        old_child = self._child_of.get(key)
        if value is None:
            if old_child is None:
                return None
            self._remove(old_child, key)
            return self._recompute(old_child)
        if old_child is None:
            self._add(child, key, value)
            return self._recompute(child)
        if old_child == child:
            old_value = self._contributions[child][key]
            if old_value == value:
                return None
            self._replace(child, key, old_value, value)
            return self._recompute(child)
        # The contribution moved to a different child group (should not happen
        # for a fixed search space, but handle it for safety).
        self._remove(old_child, key)
        self._add(child, key, value)
        first = self._recompute(old_child)
        second = self._recompute(child)
        return second if second is not None else first

    # -- internals ------------------------------------------------------------

    def _add(self, child: Hashable, key: Hashable, value: float) -> None:
        group = self._contributions.get(child)
        if group is None:
            self._contributions[child] = {key: value}
            self._max_contribution[child] = value
        else:
            group[key] = value
            if value > self._max_contribution[child]:
                self._max_contribution[child] = value
        self._child_of[key] = child

    def _replace(self, child: Hashable, key: Hashable, old_value: float, value: float) -> None:
        group = self._contributions[child]
        group[key] = value
        peak = self._max_contribution[child]
        if value >= peak:
            self._max_contribution[child] = value
        elif old_value == peak:
            self._max_contribution[child] = max(group.values())

    def _remove(self, child: Hashable, key: Hashable) -> None:
        group = self._contributions[child]
        old_value = group.pop(key)
        del self._child_of[key]
        if not group:
            del self._contributions[child]
            del self._max_contribution[child]
        elif old_value == self._max_contribution[child]:
            self._max_contribution[child] = max(group.values())

    def _recompute(self, or_key: Hashable) -> Optional[BoundChange]:
        old_bound = self._bounds.get(or_key, INFINITY)
        new_bound = min(
            self._best_costs.get(or_key, INFINITY),
            self._max_contribution.get(or_key, INFINITY),
        )
        if new_bound == old_bound:
            return None
        if new_bound == INFINITY:
            self._bounds.pop(or_key, None)
        else:
            self._bounds[or_key] = new_bound
        return BoundChange(or_key, old_bound, new_bound)
