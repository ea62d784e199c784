"""An in-memory execution engine for physical plans.

The engine executes the :class:`~repro.relational.plan.PhysicalPlan` trees
produced by any of the optimizers over Python-dict rows.  It exists for the
experiments that need *observed* behaviour: runtime cardinalities feeding the
incremental re-optimizer (Figure 6), and the adaptive stream processing
experiments (Figures 9, 10 and Table 3).

Rows are dictionaries keyed by qualified column names (``"alias.column"``);
scans perform the qualification and apply pushed-down filters.  The engine
also records the observed cardinality of every operator output, keyed by the
operator's expression, which is exactly the feedback the adaptive monitor
turns into statistics deltas.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ExecutionError
from repro.relational import scalar
from repro.relational.expressions import Expression
from repro.relational.plan import PhysicalOperator, PhysicalPlan
from repro.relational.predicates import JoinPredicate
from repro.relational.query import AggregateFunction, Query
from repro.storage import access
from repro.storage.buffers import sequential_sum

if TYPE_CHECKING:  # the vectorized package imports this module
    from repro.engine.vectorized.columns import ColumnTable

Row = Dict[str, object]
Table = List[Row]


def _scan_key(ref) -> str:
    """Scans evaluate filters over base rows keyed by unqualified names."""
    return ref.column


@dataclass
class ExecutionResult:
    """The root's output columns plus per-expression observed cardinalities
    and timing.

    ``output`` holds the result as columns — list columns as tuples, typed
    buffers as they are — so a retained result costs CPython's cyclic GC
    nothing.  :attr:`rows` is a dict-per-row view of it, built on first
    access.
    """

    output: Optional["ColumnTable"] = None
    observed_cardinalities: Dict[Expression, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    operator_timings: Dict[str, float] = field(default_factory=dict)
    # Per-operator output counts keyed like operator_timings: the stable
    # per-node labels from PhysicalPlan.operator_keys() ("op (aliases)#n").
    # Unlike observed_cardinalities this keeps operators with the same
    # expression apart (an aggregate shares its child's expression, and a
    # self-join shape can repeat a whole operator label).
    operator_cardinalities: Dict[str, int] = field(default_factory=dict)
    #: which engine produced this result ("row" or "vectorized")
    engine: str = "row"
    #: name of the query that ran — lets a monitor shared across many
    #: statements (the Database-wide monitor) keep observations apart per
    #: query instead of conflating same-alias expressions.
    query_name: str = ""
    #: worker count when the morsel-parallel executor ran this statement
    #: (None for the serial engines, so serial EXPLAIN ANALYZE output is
    #: unchanged).
    workers: Optional[int] = None
    #: which parallel executor kind ran ("thread" or "process"); None for
    #: the serial engines.  After a no-shm fallback this truthfully reads
    #: "thread" even though "process" was requested.
    executor: Optional[str] = None
    #: per-operator seconds spent inside pool workers (thread or process),
    #: keyed like operator_timings.  The serial engines leave this empty;
    #: the parallel executors fill it so worker-side work is attributed to
    #: the operator that fanned it out (operator_timings only measures the
    #: dispatching thread, which for a process pool is mostly waiting).
    operator_worker_seconds: Dict[str, float] = field(default_factory=dict)
    #: per hash-aggregate operator (keyed like operator_timings): "kernel"
    #: when the typed aggregate kernels computed it, else the reason
    #: (repro.common.errors.REFUSAL_REASONS) it ran the generic path.  The
    #: row engine, which has no kernels, leaves this empty.
    aggregate_paths: Dict[str, str] = field(default_factory=dict)
    _rows: Optional[Table] = field(default=None, init=False, repr=False, compare=False)

    @property
    def rows(self) -> Table:
        """The output as one dict per row (keyed like the output columns)."""
        if self._rows is None:
            self._rows = self.output.to_rows() if self.output is not None else []
        return self._rows

    @property
    def row_count(self) -> int:
        return self.output.row_count if self.output is not None else 0


def _pivot(rows: Table) -> "ColumnTable":
    """The row engine's output rows as the frozen columns both engines hand
    back.  Columns appear in first-seen key order; a row lacking a key reads
    as NULL there, as ``row.get`` did."""
    from repro.engine.vectorized.columns import ColumnTable

    names: Dict[str, None] = {}
    for row in rows:
        if row.keys() != names.keys():
            names.update(dict.fromkeys(row))
    columns = {name: tuple([row.get(name) for row in rows]) for name in names}
    return ColumnTable(columns, len(rows))


class PlanExecutor:
    """Executes physical plans over in-memory data.

    ``data`` values may be row-dict sequences or columnar ``ColumnTable``
    stores (anything exposing ``to_rows()``); the row engine materializes the
    latter into rows at the scan.  ``parameters`` supplies the values for
    prepared-statement slots (:class:`~repro.relational.predicates.ParameterRef`
    filter constants) — the plan itself is reused unchanged.
    """

    def __init__(
        self,
        query: Query,
        data: Mapping[str, object],
        parameters: Optional[Sequence[object]] = None,
    ) -> None:
        self.query = query
        self.data = data
        self.parameters = parameters

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def execute(self, plan: PhysicalPlan) -> ExecutionResult:
        started = time.perf_counter()
        result = ExecutionResult(engine="row", query_name=self.query.name)
        # Nodes are entered in pre-order, so consuming the pre-order key list
        # as the recursion descends assigns every node its stable label.
        self._keys: Iterator[str] = iter(plan.operator_keys())
        rows = self._execute_node(plan, result)
        self._attach_derived(rows)
        result.output = _pivot(rows)
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def _attach_derived(self, rows: Table) -> None:
        """Compute the query's ``expr AS name`` columns on the output rows.

        Output rows are keyed by qualified names, so derived expressions
        compile against ``str(ref)``.
        """
        if not self.query.derived:
            return
        compiled = [
            (column.name, scalar.compile_row(column.expr, str, self.parameters))
            for column in self.query.derived
        ]
        try:
            for row in rows:
                for name, evaluate in compiled:
                    row[name] = evaluate(row)
        except scalar.MissingColumnError as error:
            raise ExecutionError(
                f"computed column references {error.ref} which is absent "
                "from the data"
            ) from error

    # ------------------------------------------------------------------
    # Node dispatch
    # ------------------------------------------------------------------

    def _execute_node(self, node: PhysicalPlan, result: ExecutionResult) -> Table:
        operator = node.operator
        operator_key = next(self._keys)
        node_start = time.perf_counter()
        if operator.is_scan:
            rows = self._execute_scan(node)
        elif operator is PhysicalOperator.SORT:
            rows = self._execute_sort(node, result)
        elif operator.is_join:
            rows = self._execute_join(node, result)
        elif operator is PhysicalOperator.HASH_AGGREGATE:
            rows = self._execute_aggregate(node, result)
        else:  # pragma: no cover - defensive
            raise ExecutionError(f"unsupported operator {operator}")
        result.observed_cardinalities[node.expression] = len(rows)
        result.operator_cardinalities[operator_key] = len(rows)
        result.operator_timings[operator_key] = time.perf_counter() - node_start
        return rows

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------

    def _execute_scan(self, node: PhysicalPlan) -> Table:
        alias = node.expression.sole_alias
        relation = self.query.relation(alias)
        base_rows = access.scan_source(self.query, self.data, alias)
        if node.operator is PhysicalOperator.INDEX_SCAN and access.is_physical_store(base_rows):
            return self._execute_index_scan(node, base_rows, alias, relation.table)
        if not isinstance(base_rows, (list, tuple)) and hasattr(base_rows, "to_rows"):
            # A columnar store (ColumnTable): materialize rows at the scan.
            base_rows = base_rows.to_rows()
        # Each CNF conjunct compiles once per execution into a closure tree
        # (prepared-statement slots resolve at compile time, not per row); a
        # row must evaluate to exactly TRUE on every conjunct to survive —
        # SQL three-valued logic makes NULL "filtered out".
        compiled = [
            (predicate, scalar.compile_predicate(predicate.expr, _scan_key, self.parameters))
            for predicate in self.query.filters_for(alias)
        ]
        output: Table = []
        try:
            for base_row in base_rows:
                keep = True
                for _predicate, accept in compiled:
                    if not accept(base_row):
                        keep = False
                        break
                if keep:
                    output.append(
                        {f"{alias}.{name}": value for name, value in base_row.items()}
                    )
        except scalar.MissingColumnError as error:
            raise ExecutionError(
                f"filter references column {error.ref.column!r} which is "
                f"absent from the data for alias {alias!r} "
                f"(table {relation.table!r})"
            ) from error
        return output

    def _execute_index_scan(
        self, node: PhysicalPlan, stored, alias: str, table: str
    ) -> Table:
        """An index-backed scan: fetch candidate row ids, then filter.

        The index serves the sargable conjunct exactly; every pushed-down
        conjunct (including the sargable one) is still applied to the
        candidates, so the output — values *and* order — is identical to a
        sequential scan unless the node's SORTED property asks for key-order
        emission.
        """
        row_ids = access.resolve_index_scan_row_ids(node, self.query, stored, self.parameters)
        compiled = [
            scalar.compile_predicate(predicate.expr, _scan_key, self.parameters)
            for predicate in self.query.filters_for(alias)
        ]
        columns = stored.columns
        names = list(columns)
        output: Table = []
        append = output.append
        try:
            for row_id in row_ids:
                base_row = {name: columns[name][row_id] for name in names}
                keep = True
                for accept in compiled:
                    if not accept(base_row):
                        keep = False
                        break
                if keep:
                    append({f"{alias}.{name}": value for name, value in base_row.items()})
        except scalar.MissingColumnError as error:
            raise ExecutionError(
                f"filter references column {error.ref.column!r} which is "
                f"absent from the data for alias {alias!r} "
                f"(table {table!r})"
            ) from error
        return output

    # ------------------------------------------------------------------
    # Sort enforcer
    # ------------------------------------------------------------------

    def _execute_sort(self, node: PhysicalPlan, result: ExecutionResult) -> Table:
        child_rows = self._execute_node(node.children[0], result)
        column = node.output_property.column
        if column is None:
            return child_rows
        key = str(column)
        return sorted(child_rows, key=lambda row: (row.get(key) is None, row.get(key)))

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------

    def _execute_join(self, node: PhysicalPlan, result: ExecutionResult) -> Table:
        left_node, right_node = node.children[0], node.children[1]
        if node.operator is PhysicalOperator.INDEX_NL_JOIN:
            setup = access.index_nl_setup(right_node, self.query, self.data)
            if setup is not None:
                return self._execute_index_nl_join(node, left_node, right_node, setup, result)
        left_rows = self._execute_node(left_node, result)
        right_rows = self._execute_node(right_node, result)
        predicates = self.query.predicates_between(left_node.expression, right_node.expression)
        equi = [predicate for predicate in predicates if predicate.is_equijoin]
        residual = [predicate for predicate in predicates if not predicate.is_equijoin]
        if equi:
            joined = self._hash_join(left_rows, right_rows, left_node.expression, equi)
        else:
            joined = self._nested_loop(left_rows, right_rows)
        if residual:
            joined = [row for row in joined if self._residual_ok(row, residual)]
        return joined

    def _hash_join(
        self,
        left_rows: Table,
        right_rows: Table,
        left_expression: Expression,
        predicates: List[JoinPredicate],
    ) -> Table:
        left_keys: List[str] = []
        right_keys: List[str] = []
        for predicate in predicates:
            left_column = predicate.column_for(left_expression)
            right_column = predicate.right if left_column == predicate.left else predicate.left
            left_keys.append(str(left_column))
            right_keys.append(str(right_column))
        index: Dict[Tuple, List[Row]] = {}
        for row in right_rows:
            key = tuple(row.get(column) for column in right_keys)
            index.setdefault(key, []).append(row)
        output: Table = []
        for row in left_rows:
            key = tuple(row.get(column) for column in left_keys)
            for match in index.get(key, ()):  # noqa: B020
                combined = dict(row)
                combined.update(match)
                output.append(combined)
        return output

    def _execute_index_nl_join(
        self,
        node: PhysicalPlan,
        left_node: PhysicalPlan,
        right_node: PhysicalPlan,
        setup,
        result: ExecutionResult,
    ) -> Table:
        """A real indexed nested-loop join: probe the inner's index per outer row.

        The inner scan never materializes; its observed cardinality is the
        number of probed candidates that passed the inner's own filters (the
        rows the operator actually produced into the join).  Secondary equi
        conjuncts keep the hash join's key-matching semantics (NULL matches
        NULL), non-equi residuals keep its NULL-rejecting semantics, so an
        index-NL plan returns exactly what the hash-join plan returns, in the
        same order.
        """
        stored, index = setup
        left_rows = self._execute_node(left_node, result)
        right_key = next(self._keys)
        probe_start = time.perf_counter()
        right_alias = right_node.expression.sole_alias
        predicates = self.query.predicates_between(left_node.expression, right_node.expression)
        equi = [predicate for predicate in predicates if predicate.is_equijoin]
        residual = [predicate for predicate in predicates if not predicate.is_equijoin]
        probe = access.probe_predicate(equi, right_node)
        other_equi = [
            (str(predicate.left), str(predicate.right))
            for predicate in equi
            if predicate is not probe
        ]
        left_key = str(probe.column_for(left_node.expression))
        compiled = [
            scalar.compile_predicate(predicate.expr, _scan_key, self.parameters)
            for predicate in self.query.filters_for(right_alias)
        ]
        columns = stored.columns
        names = list(columns)
        lookup = index.lookup
        matched = 0
        output: Table = []
        append = output.append
        try:
            for left_row in left_rows:
                for row_id in lookup(left_row.get(left_key)):
                    base_row = {name: columns[name][row_id] for name in names}
                    keep = True
                    for accept in compiled:
                        if not accept(base_row):
                            keep = False
                            break
                    if not keep:
                        continue
                    matched += 1
                    combined = dict(left_row)
                    combined.update(
                        {f"{right_alias}.{name}": value for name, value in base_row.items()}
                    )
                    if any(
                        combined.get(left_name) != combined.get(right_name)
                        for left_name, right_name in other_equi
                    ):
                        continue
                    if residual and not self._residual_ok(combined, residual):
                        continue
                    append(combined)
        except scalar.MissingColumnError as error:
            raise ExecutionError(
                f"filter references column {error.ref.column!r} which is "
                f"absent from the data for alias {right_alias!r}"
            ) from error
        result.observed_cardinalities[right_node.expression] = matched
        result.operator_cardinalities[right_key] = matched
        result.operator_timings[right_key] = time.perf_counter() - probe_start
        return output

    @staticmethod
    def _nested_loop(left_rows: Table, right_rows: Table) -> Table:
        output: Table = []
        for left_row in left_rows:
            for right_row in right_rows:
                combined = dict(left_row)
                combined.update(right_row)
                output.append(combined)
        return output

    @staticmethod
    def _residual_ok(row: Row, predicates: Iterable[JoinPredicate]) -> bool:
        for predicate in predicates:
            left_value = row.get(str(predicate.left))
            right_value = row.get(str(predicate.right))
            if left_value is None or right_value is None:
                return False
            if not predicate.op.evaluate(left_value, right_value):
                return False
        return True

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def _execute_aggregate(self, node: PhysicalPlan, result: ExecutionResult) -> Table:
        child_rows = self._execute_node(node.children[0], result)
        group_columns = [str(column) for column in self.query.group_by]
        groups: Dict[Tuple, List[Row]] = {}
        for row in child_rows:
            key = tuple(row.get(column) for column in group_columns)
            groups.setdefault(key, []).append(row)
        if not groups and not group_columns:
            groups[()] = []
        # Expression aggregates compile once per execution; the closure then
        # evaluates per joined row inside each group, in group row order.
        compiled = [
            scalar.compile_row(aggregate.expr, str, self.parameters)
            if aggregate.expr is not None
            else None
            for aggregate in self.query.aggregates
        ]
        output: Table = []
        try:
            for key, rows in groups.items():
                out_row: Row = dict(zip(group_columns, key))
                for aggregate, evaluate in zip(self.query.aggregates, compiled):
                    out_row[str(aggregate)] = self._compute_aggregate(aggregate, rows, evaluate)
                output.append(out_row)
        except scalar.MissingColumnError as error:
            raise ExecutionError(
                f"aggregate expression references {error.ref} which is absent "
                "from the data"
            ) from error
        return output

    def _compute_aggregate(self, aggregate, rows: Table, evaluate=None) -> object:
        if evaluate is not None:
            values = [value for value in map(evaluate, rows) if value is not None]
            if aggregate.function is AggregateFunction.COUNT:
                return len(set(values)) if aggregate.distinct else len(values)
        else:
            column = str(aggregate.column) if aggregate.column is not None else None
            if aggregate.function is AggregateFunction.COUNT:
                if column is None:
                    return len(rows)
                values = [row.get(column) for row in rows if row.get(column) is not None]
                return len(set(values)) if aggregate.distinct else len(values)
            values = [row.get(column) for row in rows if row.get(column) is not None]
        if aggregate.distinct:
            values = list(set(values))
        if not values:
            return None
        if aggregate.function is AggregateFunction.SUM:
            return sequential_sum(values)
        if aggregate.function is AggregateFunction.MIN:
            return min(values)
        if aggregate.function is AggregateFunction.MAX:
            return max(values)
        if aggregate.function is AggregateFunction.AVG:
            return sequential_sum(values) / len(values)
        raise ExecutionError(f"unsupported aggregate {aggregate.function}")
