"""Row types and keys of the optimizer's materialized views.

The paper's optimizer state consists of a handful of relations (Figure 1):
``SearchSpace`` (AND nodes: physical alternatives), ``PlanCost`` (costed
alternatives), ``BestCost`` / ``BestPlan`` (OR nodes: the cheapest alternative
per expression-property pair) and ``Bound`` (branch-and-bound limits).  This
module defines the keys and rows of those relations as the optimizer shows
them to its callers, and the pruning configuration that controls which of
the paper's three techniques are active.  Inside, the declarative optimizer
keys the same relations by dense int ids (see ``declarative.py``); these
value types appear only at its API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.relational.expressions import Expression
from repro.relational.plan import LogicalOperator, PhysicalOperator
from repro.relational.properties import ANY_PROPERTY, PhysicalProperty


@dataclass(frozen=True, order=True)
class OrKey:
    """Identity of an OR node: an expression-property pair."""

    expression: Expression
    prop: PhysicalProperty = ANY_PROPERTY

    def __str__(self) -> str:
        return f"{self.expression}|{self.prop}"


@dataclass(frozen=True, order=True)
class AndKey:
    """Identity of an AND node: one physical alternative of an OR node."""

    expression: Expression
    prop: PhysicalProperty
    index: int

    @property
    def or_key(self) -> OrKey:
        return OrKey(self.expression, self.prop)

    def __str__(self) -> str:
        return f"{self.expression}|{self.prop}#{self.index}"


@dataclass(frozen=True)
class SearchSpaceEntry:
    """One row of ``SearchSpace``: a physical alternative and its child slots.

    ``left`` / ``right`` are the OR keys of the children (``None`` for scans;
    unary operators such as an explicit sort enforcer only use ``left``).
    """

    key: AndKey
    logical_op: LogicalOperator
    physical_op: PhysicalOperator
    left: Optional[OrKey] = None
    right: Optional[OrKey] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

    @property
    def is_unary(self) -> bool:
        return self.left is not None and self.right is None

    @property
    def is_binary(self) -> bool:
        return self.left is not None and self.right is not None

    def children(self) -> Tuple[OrKey, ...]:
        if self.is_leaf:
            return ()
        if self.is_unary:
            assert self.left is not None
            return (self.left,)
        assert self.left is not None and self.right is not None
        return (self.left, self.right)

    def __str__(self) -> str:
        children = ", ".join(str(child) for child in self.children())
        return f"{self.key} {self.physical_op.value}({children})"


@dataclass(frozen=True)
class PruningConfig:
    """Which of the paper's pruning techniques are enabled.

    * ``aggregate_selection`` — §3.1: only propagate a PlanCost tuple if it is
      cheaper than the current best for its expression-property pair.
    * ``tuple_source_suppression`` — §3.1: cascade those prunes into the
      SearchSpace relation (requires aggregate selection).
    * ``reference_counting`` — §3.2: drop expression-property pairs whose
      parent plans have all been pruned.
    * ``recursive_bounding`` — §3.3: full branch-and-bound limits propagated
      through the ``Bound`` relation (requires aggregate selection).
    """

    aggregate_selection: bool = True
    tuple_source_suppression: bool = True
    reference_counting: bool = True
    recursive_bounding: bool = True

    def __post_init__(self) -> None:
        if self.tuple_source_suppression and not self.aggregate_selection:
            raise ValueError("tuple source suppression requires aggregate selection")
        if self.recursive_bounding and not self.aggregate_selection:
            raise ValueError("recursive bounding requires aggregate selection")

    # -- presets matching the paper's experiment legends -------------------

    @classmethod
    def none(cls) -> "PruningConfig":
        """No pruning at all (the paper's >2 minute configuration)."""
        return cls(False, False, False, False)

    @classmethod
    def evita_raced(cls) -> "PruningConfig":
        """Evita Raced-style: prune only against equivalent plans; never drop
        plan-table entries."""
        return cls(
            aggregate_selection=True,
            tuple_source_suppression=False,
            reference_counting=False,
            recursive_bounding=False,
        )

    @classmethod
    def aggsel(cls) -> "PruningConfig":
        """Aggregate selection with tuple source suppression only."""
        return cls(True, True, False, False)

    @classmethod
    def aggsel_refcount(cls) -> "PruningConfig":
        return cls(True, True, True, False)

    @classmethod
    def aggsel_bounding(cls) -> "PruningConfig":
        return cls(True, True, False, True)

    @classmethod
    def full(cls) -> "PruningConfig":
        """All three techniques (the paper's "All")."""
        return cls(True, True, True, True)

    def label(self) -> str:
        if not self.aggregate_selection:
            return "NoPruning"
        parts = ["AggSel"]
        if self.reference_counting:
            parts.append("RefCount")
        if self.recursive_bounding:
            parts.append("Branch&Bounding")
        if len(parts) == 3:
            return "All"
        return "+".join(parts)
