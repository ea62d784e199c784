"""A checker of the declarative optimizer's fixpoint.

After :meth:`~repro.optimizer.declarative.DeclarativeOptimizer.optimize` or
:meth:`~repro.optimizer.declarative.DeclarativeOptimizer.reoptimize` the
retained state must satisfy the paper's rules under the current statistics
overlay.  :func:`check_fixpoint` recomputes every rule from the cost model and
returns the violations, smallest expression first, so a failure names the
first wrong node rather than only a wrong root:

* ``best``: each alive, explored OR node's BestCost equals the minimum over
  its active (costed) alternatives;
* ``cost``: each active alternative's stored total equals
  ``combine(local cost, child BestCosts)``;
* ``stale``: a pruned or dead alternative's stored total is just as current,
  unless the optimizer has recorded it as stale;
* ``optimum``: for queries of up to :data:`EXHAUSTIVE_LIMIT` relations, the
  root's BestCost equals an unpruned exhaustive recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.optimizer.tables import AndKey, OrKey

#: Largest query (in relations) whose optimum is recomputed exhaustively.
EXHAUSTIVE_LIMIT = 6

_REL_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Violation:
    """One broken rule, at one OR node (and alternative, where it applies)."""

    rule: str
    or_key: OrKey
    and_key: Optional[AndKey]
    stored: Optional[float]
    expected: float

    def __str__(self) -> str:
        where = self.and_key if self.and_key is not None else self.or_key
        return f"{self.rule} at {where}: stored {self.stored}, expected {self.expected}"


def _close(left: float, right: float) -> bool:
    return abs(left - right) <= _REL_TOLERANCE * max(1.0, abs(left), abs(right))


def check_fixpoint(optimizer) -> List[Violation]:
    """The violated rules of *optimizer*'s retained state, smallest expression first."""
    violations: List[Violation] = []
    enumerator, cost_model = optimizer.enumerator, optimizer.cost_model
    best_alt, best_value = optimizer._best_alt, optimizer._best_value
    costed, total, active = optimizer._costed, optimizer._total, optimizer._active
    stale = optimizer._stale_retained

    def best_of(or_id: int) -> Optional[float]:
        return None if best_alt[or_id] < 0 else best_value[or_id]

    for or_id in range(enumerator.or_count):
        or_key = enumerator.or_key(or_id)
        active_totals = []
        for and_id in optimizer.alternatives(or_id):
            if not costed[and_id]:
                continue
            if active[and_id]:
                active_totals.append(total[and_id])
            child_bests = [
                best_of(child)
                for child in (optimizer._left[and_id], optimizer._right[and_id])
                if child >= 0
            ]
            if any(best is None for best in child_bests):
                continue
            entry = optimizer.entry(and_id)
            local, _ = cost_model.local_cost(entry, enumerator)
            expected = cost_model.combine(local, *child_bests)
            if _close(total[and_id], expected):
                continue
            if active[and_id]:
                rule = "cost"
            elif and_id not in stale:
                rule = "stale"
            else:
                continue
            violations.append(Violation(rule, or_key, entry.key, total[and_id], expected))
        if optimizer._alive[or_id] and optimizer._explored[or_id] and active_totals:
            expected = min(active_totals)
            stored = best_of(or_id)
            if stored is None or not _close(stored, expected):
                violations.append(Violation("best", or_key, None, stored, expected))

    root = optimizer.root_key
    if len(root.expression) <= EXHAUSTIVE_LIMIT:
        expected = exhaustive_cost(optimizer, root)
        stored = best_of(optimizer._root)
        if stored is None or not _close(stored, expected):
            violations.append(Violation("optimum", root, None, stored, expected))

    # Smallest expression first; at one OR node its alternatives' costs (the
    # likelier cause) before its BestCost.
    violations.sort(
        key=lambda violation: (
            len(violation.or_key.expression),
            str(violation.or_key),
            violation.and_key is None,
            violation.and_key.index if violation.and_key is not None else 0,
        )
    )
    return violations


def exhaustive_cost(optimizer, or_key: OrKey) -> float:
    """The optimum cost of *or_key* by unpruned recursion over the full space."""
    enumerator, cost_model = optimizer.enumerator, optimizer.cost_model
    memo: Dict[OrKey, float] = {}

    def best(key: OrKey) -> float:
        found = memo.get(key)
        if found is not None:
            return found
        result = float("inf")
        for entry in enumerator.expand(key):
            local, _ = cost_model.local_cost(entry, enumerator)
            result = min(result, cost_model.combine(local, *map(best, entry.children())))
        memo[key] = result
        return result

    return best(or_key)
