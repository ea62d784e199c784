"""Search-space enumeration: the paper's ``Fn_split`` / ``Fn_isleaf`` / ``Fn_phyOp``.

Given an expression-property pair (an OR node), :class:`SearchSpaceEnumerator`
produces every physical alternative (AND node) for it in one shot — the merged
logical + physical enumeration of §2.3.  Enumeration is deterministic, so the
alternative indexes assigned here are stable across re-optimizations and can
be used as persistent keys of the optimizer's incremental state.

The declarative optimizer keys its state by dense ints rather than by
:class:`OrKey` values: :meth:`SearchSpaceEnumerator.expand_ids` interns every
expression-property pair it meets, once per optimizer, and reports children
by id.  :meth:`SearchSpaceEnumerator.expand` (the procedural baselines) still
returns :class:`SearchSpaceEntry` rows.

Enumerated alternatives per OR node:

* leaf + ANY: sequential scan, plus an index scan when an index exists on a
  filtered column (an access-path alternative);
* leaf + SORTED(col): sorted scan (scan + sort), plus an index scan when an
  index on ``col`` exists;
* leaf + INDEXED(col): index scan (only emitted when the index exists);
* join + ANY: for every connected partition — pipelined hash join (both
  orientations), sort-merge join (children required sorted on the join
  columns), indexed nested-loop join (when the inner is an indexed leaf), and
  a plain nested-loop join when no equi-join predicate links the two sides;
* join + SORTED(col): a sort enforcer over the ANY plan, plus sort-merge
  joins whose merge column equals the requested column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.catalog.catalog import Catalog
from repro.relational.expressions import ColumnRef, Expression
from repro.relational.schema import Index
from repro.relational.plan import LogicalOperator, PhysicalOperator
from repro.relational.predicates import JoinPredicate
from repro.relational.properties import ANY_PROPERTY, PhysicalProperty, PropertyKind
from repro.relational.query import Query
from repro.optimizer.tables import AndKey, OrKey, SearchSpaceEntry

#: A child slot of an alternative: an expression and the id of the property
#: it must deliver (see :meth:`SearchSpaceEnumerator.prop`).
Slot = Tuple[Expression, int]
#: One raw alternative: its physical operator and its child slots.
Alternative = Tuple[PhysicalOperator, Optional[Slot], Optional[Slot]]

#: Property id of ``ANY_PROPERTY`` in every enumerator.
ANY_PROP_ID = 0

_KIND_TAGS = {PropertyKind.SORTED: "sorted", PropertyKind.INDEXED: "indexed"}


@dataclass(frozen=True)
class EnumerationOptions:
    """Knobs controlling the richness of the enumerated space."""

    left_deep_only: bool = False
    enable_sort_merge: bool = True
    enable_index_nl: bool = True
    enable_index_scans: bool = True


class SearchSpaceEnumerator:
    """Deterministic enumeration of physical alternatives for OR nodes."""

    def __init__(
        self,
        query: Query,
        catalog: Catalog,
        options: Optional[EnumerationOptions] = None,
    ) -> None:
        self.query = query
        self.catalog = catalog
        self.options = options or EnumerationOptions()
        # Properties are interned for the enumerator's lifetime: id -> value.
        self.props: List[PhysicalProperty] = [ANY_PROPERTY]
        self._prop_ids: Dict[Tuple[str, str, str], int] = {}
        self._alias_bits = {alias: 1 << bit for bit, alias in enumerate(sorted(query.aliases))}
        self._alias_count = len(self._alias_bits)
        self.reset_ids()

    # ------------------------------------------------------------------
    # Dense ids of OR nodes
    # ------------------------------------------------------------------

    def reset_ids(self) -> None:
        """Forget every interned OR node; the next id handed out is 0."""
        #: per OR id: its expression, property id and alias bitmask
        self.or_expressions: List[Expression] = []
        self.or_prop_ids: List[int] = []
        self.or_masks: List[int] = []
        # keyed by ``mask | prop_id << alias count``: plain ints, nothing to hash
        self._or_ids: Dict[int, int] = {}
        self._expressions: Dict[FrozenSet[str], Expression] = {}
        self._masks: Dict[FrozenSet[str], int] = {}

    @property
    def or_count(self) -> int:
        return len(self.or_expressions)

    def intern(self, expression: Expression, prop_id: int) -> int:
        """The id of OR node (*expression*, property *prop_id*), assigned on first sight."""
        aliases = expression.aliases
        mask = self._masks.get(aliases)
        if mask is None:
            mask = self._masks[aliases] = self.alias_mask(expression)
            self._expressions[aliases] = expression
        key = mask | prop_id << self._alias_count
        or_id = self._or_ids.get(key)
        if or_id is None:
            or_id = self._or_ids[key] = len(self.or_expressions)
            self.or_expressions.append(self._expressions[aliases])
            self.or_prop_ids.append(prop_id)
            self.or_masks.append(mask)
        return or_id

    def find(self, or_key: OrKey) -> Optional[int]:
        """The id of an already interned OR node, or None."""
        mask = self.alias_mask(or_key.expression)
        prop_id = self._find_prop(or_key.prop)
        if mask < 0 or prop_id is None:
            return None
        return self._or_ids.get(mask | prop_id << self._alias_count)

    def or_key(self, or_id: int) -> OrKey:
        return OrKey(self.or_expressions[or_id], self.props[self.or_prop_ids[or_id]])

    def alias_mask(self, expression: Expression) -> int:
        """Bitmask of *expression*'s aliases (-1 if one is not in the query)."""
        bits = self._alias_bits
        mask = 0
        for alias in expression.aliases:
            bit = bits.get(alias)
            if bit is None:
                return -1
            mask |= bit
        return mask

    def prop(self, kind: PropertyKind, column: ColumnRef) -> int:
        """The id of the SORTED / INDEXED property on *column*."""
        key = (_KIND_TAGS[kind], column.alias, column.column)
        prop_id = self._prop_ids.get(key)
        if prop_id is None:
            prop_id = len(self.props)
            self._prop_ids[key] = prop_id
            self.props.append(PhysicalProperty(kind, column))
        return prop_id

    def _find_prop(self, prop: PhysicalProperty) -> Optional[int]:
        if prop.is_any:
            return ANY_PROP_ID
        assert prop.column is not None
        return self._prop_ids.get((_KIND_TAGS[prop.kind], prop.column.alias, prop.column.column))

    # ------------------------------------------------------------------
    # Fn_isleaf
    # ------------------------------------------------------------------

    @staticmethod
    def is_leaf(expression: Expression) -> bool:
        return expression.is_leaf

    # ------------------------------------------------------------------
    # Fn_split (merged logical + physical enumeration)
    # ------------------------------------------------------------------

    def expand(self, or_key: OrKey) -> List[SearchSpaceEntry]:
        """All physical alternatives for one expression-property pair."""
        expression, prop = or_key.expression, or_key.prop
        logical_op = LogicalOperator.SCAN if expression.is_leaf else LogicalOperator.JOIN
        entries: List[SearchSpaceEntry] = []
        for index, (physical_op, left, right) in enumerate(
            self._alternatives(expression, prop), start=1
        ):
            entries.append(
                SearchSpaceEntry(
                    key=AndKey(expression, prop, index),
                    logical_op=logical_op,
                    physical_op=physical_op,
                    left=None if left is None else OrKey(left[0], self.props[left[1]]),
                    right=None if right is None else OrKey(right[0], self.props[right[1]]),
                )
            )
        return entries

    def expand_ids(self, or_id: int) -> List[Tuple[PhysicalOperator, int, int]]:
        """The alternatives of OR node *or_id* as ``(operator, left id, right id)``.

        Children are interned in order, left before right; -1 marks an
        absent child.
        """
        expression = self.or_expressions[or_id]
        prop = self.props[self.or_prop_ids[or_id]]
        intern = self.intern
        return [
            (
                physical_op,
                -1 if left is None else intern(*left),
                -1 if right is None else intern(*right),
            )
            for physical_op, left, right in self._alternatives(expression, prop)
        ]

    def _alternatives(self, expression: Expression, prop: PhysicalProperty) -> List[Alternative]:
        if expression.is_leaf:
            return self._scan_alternatives(expression, prop)
        return self._join_alternatives(expression, prop)

    # -- scans ----------------------------------------------------------

    def _scan_alternatives(
        self, expression: Expression, prop: PhysicalProperty
    ) -> List[Alternative]:
        alias = expression.sole_alias
        table = self.query.relation(alias).table
        alternatives: List[Alternative] = []
        if prop.is_any:
            alternatives.append((PhysicalOperator.SEQ_SCAN, None, None))
            if self.options.enable_index_scans and self._filtered_index_column(alias):
                alternatives.append((PhysicalOperator.INDEX_SCAN, None, None))
        elif prop.kind is PropertyKind.SORTED:
            assert prop.column is not None
            alternatives.append((PhysicalOperator.SORTED_SCAN, None, None))
            if (
                self.options.enable_index_scans
                and prop.column.alias == alias
                and self.catalog.usable_index(table, prop.column.column, "sorted") is not None
            ):
                alternatives.append((PhysicalOperator.INDEX_SCAN, None, None))
        elif prop.kind is PropertyKind.INDEXED:
            assert prop.column is not None
            if (
                prop.column.alias == alias
                and self.catalog.usable_index(table, prop.column.column, "point") is not None
            ):
                alternatives.append((PhysicalOperator.INDEX_SCAN, None, None))
        return alternatives

    def _filtered_index_column(self, alias: str) -> Optional[ColumnRef]:
        """A column of *alias* with a sargable filter a physical index serves.

        Only simple comparison/BETWEEN conjuncts qualify (an index cannot
        serve a disjunction or an arithmetic expression over the column),
        and the index kind must match the predicate shape: hash indexes
        serve equality only, ordered indexes serve everything.
        """
        table = self.query.relation(alias).table
        for predicate in self.query.filters_for(alias):
            sargable = predicate.sargable
            if (
                sargable is not None
                and self.catalog.usable_index(table, sargable.column.column, sargable.shape)
                is not None
            ):
                return sargable.column
        return None

    def index_scan_target(
        self, expression: Expression, prop: PhysicalProperty
    ) -> Optional[Tuple[ColumnRef, "Index"]]:
        """The (column, catalog index) an INDEX_SCAN on this OR node uses.

        This is what plan extraction stamps into ``PhysicalPlan.details`` so
        ``EXPLAIN`` can render the access path and the engines can detect a
        since-dropped index.
        """
        alias = expression.sole_alias
        table = self.query.relation(alias).table
        if prop.kind is PropertyKind.SORTED and prop.column is not None:
            index = self.catalog.usable_index(table, prop.column.column, "sorted")
            return (prop.column, index) if index is not None else None
        if prop.kind is PropertyKind.INDEXED and prop.column is not None:
            index = self.catalog.usable_index(table, prop.column.column, "point")
            return (prop.column, index) if index is not None else None
        for predicate in self.query.filters_for(alias):
            sargable = predicate.sargable
            if sargable is None:
                continue
            index = self.catalog.usable_index(table, sargable.column.column, sargable.shape)
            if index is not None:
                return (sargable.column, index)
        return None

    # -- joins ----------------------------------------------------------

    def _join_alternatives(
        self, expression: Expression, prop: PhysicalProperty
    ) -> List[Alternative]:
        if prop.kind is PropertyKind.INDEXED:
            # Indexes exist only on base relations; no way to deliver this.
            return []
        alternatives: List[Alternative] = []
        if prop.kind is PropertyKind.SORTED:
            # An explicit sort enforcer over the unconstrained plan.
            alternatives.append((PhysicalOperator.SORT, (expression, ANY_PROP_ID), None))
        for left, right in self._valid_partitions(expression):
            predicates = self.query.predicates_between(left, right)
            equi = [predicate for predicate in predicates if predicate.is_equijoin]
            if prop.is_any:
                alternatives.extend(self._any_join_alternatives(left, right, equi, predicates))
            else:
                assert prop.column is not None
                alternatives.extend(self._sorted_join_alternatives(left, right, equi, prop.column))
        return alternatives

    def _valid_partitions(self, expression: Expression) -> List[Tuple[Expression, Expression]]:
        """Connected, non-cross-product splits (falling back if none exist)."""
        connected: List[Tuple[Expression, Expression]] = []
        fallback: List[Tuple[Expression, Expression]] = []
        for left, right in expression.partitions():
            if self.options.left_deep_only and not (left.is_leaf or right.is_leaf):
                continue
            if not self.query.is_connected(left.aliases) or not self.query.is_connected(
                right.aliases
            ):
                continue
            pair = (left, right)
            if self.query.predicates_between(left, right):
                connected.append(pair)
            else:
                fallback.append(pair)
        return connected if connected else fallback

    def _any_join_alternatives(
        self,
        left: Expression,
        right: Expression,
        equi: List[JoinPredicate],
        predicates: List[JoinPredicate],
    ) -> List[Alternative]:
        alternatives: List[Alternative] = []
        left_any, right_any = (left, ANY_PROP_ID), (right, ANY_PROP_ID)
        if equi:
            # Pipelined hash join, both orientations (build side differs).
            alternatives.append((PhysicalOperator.HASH_JOIN, left_any, right_any))
            alternatives.append((PhysicalOperator.HASH_JOIN, right_any, left_any))
            predicate = equi[0]
            left_column = predicate.column_for(left)
            right_column = predicate.column_for(right)
            if self.options.enable_sort_merge:
                alternatives.append(
                    (
                        PhysicalOperator.SORT_MERGE_JOIN,
                        (left, self.prop(PropertyKind.SORTED, left_column)),
                        (right, self.prop(PropertyKind.SORTED, right_column)),
                    )
                )
            if self.options.enable_index_nl:
                alternatives.extend(
                    self._index_nl_alternatives(left, right, left_column, right_column)
                )
        elif not predicates:
            # Cross product (only reachable for disconnected join graphs).
            alternatives.append((PhysicalOperator.NESTED_LOOP_JOIN, left_any, right_any))
        else:
            # Theta join: nested loops in both orientations.
            alternatives.append((PhysicalOperator.NESTED_LOOP_JOIN, left_any, right_any))
            alternatives.append((PhysicalOperator.NESTED_LOOP_JOIN, right_any, left_any))
        return alternatives

    def _index_nl_alternatives(
        self,
        left: Expression,
        right: Expression,
        left_column: ColumnRef,
        right_column: ColumnRef,
    ) -> List[Alternative]:
        """Indexed nested-loop joins: the indexed leaf side becomes the inner."""
        alternatives: List[Alternative] = []
        if right.is_leaf and self._has_index(right, right_column):
            alternatives.append(
                (
                    PhysicalOperator.INDEX_NL_JOIN,
                    (left, ANY_PROP_ID),
                    (right, self.prop(PropertyKind.INDEXED, right_column)),
                )
            )
        if left.is_leaf and self._has_index(left, left_column):
            alternatives.append(
                (
                    PhysicalOperator.INDEX_NL_JOIN,
                    (right, ANY_PROP_ID),
                    (left, self.prop(PropertyKind.INDEXED, left_column)),
                )
            )
        return alternatives

    def _sorted_join_alternatives(
        self,
        left: Expression,
        right: Expression,
        equi: List[JoinPredicate],
        required_column: ColumnRef,
    ) -> List[Alternative]:
        """Sort-merge joins that natively deliver the requested sort order."""
        alternatives: List[Alternative] = []
        if not (self.options.enable_sort_merge and equi):
            return alternatives
        predicate = equi[0]
        left_column = predicate.column_for(left)
        right_column = predicate.column_for(right)
        if required_column in (left_column, right_column):
            alternatives.append(
                (
                    PhysicalOperator.SORT_MERGE_JOIN,
                    (left, self.prop(PropertyKind.SORTED, left_column)),
                    (right, self.prop(PropertyKind.SORTED, right_column)),
                )
            )
        return alternatives

    # -- helpers ----------------------------------------------------------

    def _has_index(self, expression: Expression, column: ColumnRef) -> bool:
        alias = expression.sole_alias
        if column.alias != alias:
            return False
        table = self.query.relation(alias).table
        # Equality join probes: any index kind can serve them.
        return self.catalog.usable_index(table, column.column, "point") is not None

    # ------------------------------------------------------------------
    # Exhaustive-universe helper (used for metrics denominators and tests)
    # ------------------------------------------------------------------

    def full_universe_size(self) -> Tuple[int, int]:
        """(OR nodes, AND nodes) of the complete un-pruned search space.

        Runs a breadth-first expansion of every reachable expression-property
        pair without any pruning.  Used as the denominator when reporting
        update ratios, and by tests validating enumeration completeness.
        """
        root = OrKey(self.query.root_expression, ANY_PROPERTY)
        seen: Dict[OrKey, int] = {}
        frontier = [root]
        and_count = 0
        while frontier:
            or_key = frontier.pop()
            if or_key in seen:
                continue
            entries = self.expand(or_key)
            seen[or_key] = len(entries)
            and_count += len(entries)
            for entry in entries:
                for child in entry.children():
                    if child not in seen:
                        frontier.append(child)
        return len(seen), and_count
