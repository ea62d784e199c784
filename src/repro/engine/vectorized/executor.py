"""Vectorized (columnar, batch-at-a-time) execution of physical plans.

:class:`VectorizedExecutor` executes the same
:class:`~repro.relational.plan.PhysicalPlan` trees as the row engine
(:class:`~repro.engine.executor.PlanExecutor`) but over column arrays instead
of per-row dicts:

* scans pivot the input rows into column arrays batch by batch, applying
  pushed-down filters through selection vectors (index lists) instead of
  constructing a dict per surviving row, and materialize only the columns the
  query references (projection pushdown) when the query declares outputs;
* hash joins build and probe on column slices and late-materialize: a join
  output is a :class:`~repro.engine.vectorized.columns.TableView` pairing
  each source table with a row-index vector, so payload columns are never
  copied through the join cascade — only key columns are gathered, and
  non-equi (theta) predicates fall back to residual evaluation over the
  gathered predicate columns;
* grouped aggregation runs in the typed buffers' numpy kernels (group ids,
  elementwise arithmetic, grouped COUNT/SUM/AVG/MIN/MAX) wherever those are
  exact, and otherwise scans the grouping arrays batch-wise into per-group
  index lists and aggregates each group straight off the value columns;
* the ORDER BY enforcer sorts an index permutation and re-indexes the view.

The engine is a drop-in replacement for the row engine: identical result
rows (same values, same order), identical per-expression
``observed_cardinalities`` (so the adaptive monitor keeps working unchanged)
and identical per-operator cardinality/timing keys (so ``EXPLAIN ANALYZE``
renders the same tree).  Two deliberate, documented differences: every
relation is assumed to have a uniform schema (column set taken from its
first row), and when the query declares projections or aggregates the result
rows carry only the columns the query references — the row engine drags every
scanned column along; the vectorized engine prunes them at the scan.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ExecutionError, KernelRefused
from repro.engine.executor import ExecutionResult
from repro.engine.vectorized.columns import (
    DEFAULT_BATCH_SIZE,
    ColumnTable,
    TableView,
    column_values,
    gather_typed,
    gather_values,
)
from repro.relational import scalar
from repro.relational.plan import PhysicalOperator, PhysicalPlan
from repro.relational.predicates import JoinPredicate
from repro.relational.query import AggregateFunction, Query
from repro.storage import access
from repro.storage.buffers import TypedColumn, group_rows, require_kernels, sequential_sum


class VectorizedExecutor:
    """Executes physical plans over in-memory data, columnar and batched."""

    def __init__(
        self,
        query: Query,
        data: Mapping[str, object],
        batch_size: int = DEFAULT_BATCH_SIZE,
        parameters: Optional[Sequence[object]] = None,
    ) -> None:
        if batch_size <= 0:
            raise ExecutionError("batch_size must be positive")
        self.query = query
        self.data = data
        self.batch_size = batch_size
        #: prepared-statement slot values; plans with ParameterRef filter
        #: constants are executed against these without any re-planning.
        self.parameters = parameters
        #: with no declared outputs (bare builder queries) the row engine's
        #: "every column rides along" behaviour is kept; otherwise scans
        #: materialize only what the query references.
        self._prune_columns = (
            bool(query.projections) or bool(query.derived) or query.has_aggregation
        )
        #: the operator key whose node is currently executing — the parallel
        #: subclasses attribute worker-side morsel time to it.  Maintained
        #: save/restore in _execute_node because a join's own fan-out work
        #: happens after its children return.
        self._current_operator_key: Optional[str] = None

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def execute(self, plan: PhysicalPlan) -> ExecutionResult:
        started = time.perf_counter()
        result = ExecutionResult(engine="vectorized", query_name=self.query.name)
        # Pre-order key consumption mirrors PlanExecutor: identical labels.
        self._keys: Iterator[str] = iter(plan.operator_keys())
        view = self._execute_node(plan, result)
        derived = self._derived_columns(view)
        output = view.materialize(self._output_names(view))
        output.columns.update(derived)
        output.freeze()
        result.output = output
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def _derived_columns(self, view: TableView) -> List[Tuple[str, List[object]]]:
        """Evaluate the query's ``expr AS name`` columns over the root view."""
        if not self.query.derived:
            return []

        def resolve(ref) -> Sequence[object]:
            values = view.column(str(ref))
            if values is None:
                raise scalar.MissingColumnError(ref)
            return values

        indices = range(view.row_count)
        out: List[Tuple[str, List[object]]] = []
        try:
            for column in self.query.derived:
                out.append(
                    (
                        column.name,
                        scalar.evaluate_batch(column.expr, resolve, indices, self.parameters),
                    )
                )
        except scalar.MissingColumnError as error:
            raise ExecutionError(
                f"computed column references {error.ref} which is absent "
                "from the data"
            ) from error
        return out

    def _output_names(self, view: TableView) -> Optional[List[str]]:
        """Columns to materialize at the root (None = all).

        Aggregation output is already minimal.  For plain select blocks the
        session's row shaping needs the projections plus any ORDER BY
        columns; everything else was only ever needed inside the plan.
        """
        if not self._prune_columns or self.query.has_aggregation:
            return None
        names: List[str] = [str(column) for column in self.query.projections]
        for item in self.query.order_by:
            name = str(item.column)
            if name not in names:
                names.append(name)
        return names

    # ------------------------------------------------------------------
    # Node dispatch
    # ------------------------------------------------------------------

    def _execute_node(self, node: PhysicalPlan, result: ExecutionResult) -> TableView:
        operator = node.operator
        operator_key = next(self._keys)
        previous_key = self._current_operator_key
        self._current_operator_key = operator_key
        node_start = time.perf_counter()
        try:
            if operator.is_scan:
                view = self._execute_scan_view(node)
            elif operator is PhysicalOperator.SORT:
                view = self._execute_sort(node, result)
            elif operator.is_join:
                view = self._execute_join(node, result)
            elif operator is PhysicalOperator.HASH_AGGREGATE:
                view = TableView.of_table(self._execute_aggregate(node, result))
            else:  # pragma: no cover - defensive
                raise ExecutionError(f"unsupported operator {operator}")
        finally:
            self._current_operator_key = previous_key
        result.observed_cardinalities[node.expression] = view.row_count
        result.operator_cardinalities[operator_key] = view.row_count
        result.operator_timings[operator_key] = time.perf_counter() - node_start
        return view

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------

    def _execute_scan_view(self, node: PhysicalPlan) -> TableView:
        """Scan dispatch: index-backed scans stay zero-copy views."""
        if node.operator is PhysicalOperator.INDEX_SCAN:
            base_rows = access.scan_source(self.query, self.data, node.expression.sole_alias)
            if access.is_physical_store(base_rows):
                return self._execute_index_scan_view(node, base_rows)
        return TableView.of_table(self._execute_scan(node))

    def _qualified_store(self, stored: ColumnTable, alias: str) -> ColumnTable:
        """A zero-copy alias-qualified façade over a stored table's arrays."""
        if self._prune_columns:
            names = [column.column for column in self.query.columns_of_alias(alias)]
        else:
            names = list(stored.columns)
        columns: Dict[str, List[object]] = {}
        for name in names:
            values = stored.column(name)
            if values is not None:
                columns[f"{alias}.{name}"] = values
        return ColumnTable(columns, stored.row_count)

    def _execute_index_scan_view(self, node: PhysicalPlan, stored) -> TableView:
        """Index-backed scan: candidate row ids become a view's index vector.

        Payload columns are never copied — the view pairs the stored table's
        own arrays with the surviving row ids.  Every pushed-down conjunct is
        re-applied over the candidates, so the result matches a sequential
        scan of the same node exactly.
        """
        alias = node.expression.sole_alias
        table = self.query.relation(alias).table
        row_ids = access.resolve_index_scan_row_ids(node, self.query, stored, self.parameters)
        filters = self.query.filters_for(alias)
        selection: List[int] = row_ids
        if filters and row_ids:

            def resolve(ref) -> List[object]:
                values = stored.column(ref.column)
                if values is None:
                    raise scalar.MissingColumnError(ref)
                return values

            compiled = [
                scalar.compile_filter(predicate.expr, self.parameters)
                for predicate in filters
            ]
            selection = []
            extend = selection.extend
            batch_size = self.batch_size
            try:
                for start in range(0, len(row_ids), batch_size):
                    indices: Sequence[int] = row_ids[start : start + batch_size]
                    for accept in compiled:
                        indices = accept(resolve, indices)
                        if not indices:
                            break
                    else:
                        extend(indices)
            except scalar.MissingColumnError as error:
                raise ExecutionError(
                    f"filter references column {error.ref.column!r} which is "
                    f"absent from the data for alias {alias!r} (table {table!r})"
                ) from error
        return TableView(
            [(self._qualified_store(stored, alias), list(selection))], len(selection)
        )

    def _execute_scan(self, node: PhysicalPlan) -> ColumnTable:
        alias = node.expression.sole_alias
        relation = self.query.relation(alias)
        base_rows = access.scan_source(self.query, self.data, alias)
        if isinstance(base_rows, ColumnTable):
            # Stored columnar table: scan the column arrays directly, no
            # row pivot at all (and zero-copy when there are no filters).
            return self._scan_column_table(base_rows, alias, relation.table)
        if not base_rows:
            return ColumnTable.empty()
        if self._prune_columns:
            names = [column.column for column in self.query.columns_of_alias(alias)]
        else:
            names = list(base_rows[0].keys())
        # Filters compile once per scan into selection-vector transforms
        # (sargable shapes get tight loops, the rest the generic evaluator).
        compiled = [
            scalar.compile_filter(predicate.expr, self.parameters)
            for predicate in self.query.filters_for(alias)
        ]
        output: Dict[str, List[object]] = {f"{alias}.{name}": [] for name in names}
        out_columns = list(output.values())
        batch_size = self.batch_size
        # Track the surviving-row count explicitly: with column pruning a scan
        # can legitimately carry zero columns (e.g. an alias only COUNT(*)ed
        # or cross-joined), and the count must not be inferred from them.
        row_count = 0
        for start in range(0, len(base_rows), batch_size):
            batch = base_rows[start : start + batch_size]
            selection = self._filter_batch(batch, compiled, alias, relation.table)
            if selection is None:  # no filters: keep the whole batch
                row_count += len(batch)
                for name, out in zip(names, out_columns):
                    try:
                        out.extend([row[name] for row in batch])
                    except KeyError:  # ragged rows: fall back to None-filling
                        out.extend([row.get(name) for row in batch])
            elif selection:
                row_count += len(selection)
                for name, out in zip(names, out_columns):
                    try:
                        out.extend([batch[index][name] for index in selection])
                    except KeyError:
                        out.extend([batch[index].get(name) for index in selection])
        return ColumnTable(output, row_count)

    def _filter_batch(
        self,
        batch: Sequence[Mapping[str, object]],
        compiled: Sequence[scalar.FilterFn],
        alias: str,
        table: str,
    ) -> Optional[List[int]]:
        """Selection vector of batch positions passing every filter conjunct.

        Returns ``None`` when there are no filters (caller keeps the batch
        wholesale).  Each conjunct is a compiled selection-vector transform
        (:func:`scalar.compile_filter`); like the row engine, a filter column
        absent from a row still under consideration raises, while rows
        already rejected by an earlier conjunct are never inspected.
        """
        if not compiled:
            return None
        pivots: Dict[str, List[object]] = {}

        def resolve(ref) -> List[object]:
            values = pivots.get(ref.column)
            if values is None:
                values = pivots[ref.column] = [
                    row.get(ref.column, scalar.MISSING) for row in batch
                ]
            return values

        selection: Sequence[int] = range(len(batch))
        try:
            for accept in compiled:
                selection = accept(resolve, selection)
                if not selection:
                    break
        except scalar.MissingColumnError as error:
            raise ExecutionError(
                f"filter references column {error.ref.column!r} which is "
                f"absent from the data for alias {alias!r} (table {table!r})"
            ) from error
        return list(selection)

    def _scan_column_table(self, stored: ColumnTable, alias: str, table: str) -> ColumnTable:
        """Scan a stored columnar table without pivoting through rows.

        Filters run straight over the stored column arrays with selection
        vectors; the output gathers (or, filter-free, aliases zero-copy) only
        the referenced columns.  Semantics match the row-dict scan path: a
        filter on a column absent from the store raises, while a merely
        referenced absent column reads as NULL.
        """
        filters = self.query.filters_for(alias)
        selection: Optional[List[int]] = None
        if filters:

            def resolve(ref) -> List[object]:
                values = stored.column(ref.column)
                if values is None:
                    raise scalar.MissingColumnError(ref)
                return values

            compiled = [
                scalar.compile_filter(predicate.expr, self.parameters)
                for predicate in filters
            ]
            selection = []
            extend = selection.extend
            batch_size = self.batch_size
            try:
                for start in range(0, stored.row_count, batch_size):
                    indices: Sequence[int] = range(
                        start, min(start + batch_size, stored.row_count)
                    )
                    for accept in compiled:
                        indices = accept(resolve, indices)
                        if not indices:
                            break
                    else:
                        extend(indices)
            except scalar.MissingColumnError as error:
                raise ExecutionError(
                    f"filter references column {error.ref.column!r} which is "
                    f"absent from the data for alias {alias!r} (table {table!r})"
                ) from error
        return self._scan_output(stored, alias, selection)

    def _scan_output(
        self, stored: ColumnTable, alias: str, selection: Optional[List[int]]
    ) -> ColumnTable:
        """The scan's referenced columns at *selection* (``None``: all rows, zero-copy).

        Typed buffers are gathered into typed buffers, so the aggregate
        above can hand them to the buffer kernels as they are.
        """
        if self._prune_columns:
            names = [column.column for column in self.query.columns_of_alias(alias)]
        else:
            names = list(stored.columns)
        row_count = stored.row_count if selection is None else len(selection)
        output: Dict[str, List[object]] = {}
        for name in names:
            values = stored.column(name)
            if values is None:
                output[f"{alias}.{name}"] = [None] * row_count
            elif selection is None:
                output[f"{alias}.{name}"] = values
            else:
                output[f"{alias}.{name}"] = gather_typed(values, selection)
        return ColumnTable(output, row_count)

    # ------------------------------------------------------------------
    # Sort enforcer
    # ------------------------------------------------------------------

    def _execute_sort(self, node: PhysicalPlan, result: ExecutionResult) -> TableView:
        child = self._execute_node(node.children[0], result)
        column = node.output_property.column
        if column is None:
            return child
        values = child.column(str(column))
        if values is None:
            return child  # row engine sorts on all-None keys: stable no-op
        values = column_values(values)  # a typed buffer indexes slowly per row
        order = sorted(
            range(child.row_count), key=lambda index: (values[index] is None, values[index])
        )
        return child.gather_view(order)

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------

    def _execute_index_nl_join(
        self,
        node: PhysicalPlan,
        left_node: PhysicalPlan,
        right_node: PhysicalPlan,
        setup,
        result: ExecutionResult,
    ) -> TableView:
        """A real indexed nested-loop join over column arrays.

        The outer's key column drives per-row index probes that accumulate
        (outer position, inner row id) pairs; the inner's own filters then
        run once over the distinct candidate ids (selection-vector style),
        and secondary equi / residual conjuncts trim the pairs with the same
        NULL semantics as the hash-join path.  The inner never materializes:
        the join output is a view straight into the stored column arrays.
        """
        stored, index = setup
        left = self._execute_node(left_node, result)
        right_key = next(self._keys)
        # Probe work below belongs to the inner scan's key, not the join's.
        self._current_operator_key = right_key
        probe_start = time.perf_counter()
        right_alias = right_node.expression.sole_alias
        predicates = self.query.predicates_between(left_node.expression, right_node.expression)
        equi = [predicate for predicate in predicates if predicate.is_equijoin]
        residual = [predicate for predicate in predicates if not predicate.is_equijoin]
        probe = access.probe_predicate(equi, right_node)
        left_values = self._key_column(left, str(probe.column_for(left_node.expression)))

        left_index: List[int] = []
        cand_ids: List[int] = []
        append_left = left_index.append
        extend_left = left_index.extend
        append_right = cand_ids.append
        extend_right = cand_ids.extend
        lookup = index.lookup
        for position, value in enumerate(left_values):
            matches = lookup(value)
            if matches:
                if len(matches) == 1:
                    append_left(position)
                    append_right(matches[0])
                else:
                    extend_left([position] * len(matches))
                    extend_right(matches)

        filters = self.query.filters_for(right_alias)
        if filters and cand_ids:
            surviving = self._filter_candidate_ids(cand_ids, filters, stored, right_alias)
            pairs = [
                (left_position, row_id)
                for left_position, row_id in zip(left_index, cand_ids)
                if row_id in surviving
            ]
            left_index = [pair[0] for pair in pairs]
            cand_ids = [pair[1] for pair in pairs]
        matched = len(cand_ids)

        for predicate in equi:
            if predicate is probe:
                continue
            left_side = self._pair_values(left, stored, left_index, cand_ids, predicate.left)
            right_side = self._pair_values(left, stored, left_index, cand_ids, predicate.right)
            kept = [
                position
                for position in range(len(cand_ids))
                if left_side[position] == right_side[position]
            ]
            left_index = [left_index[position] for position in kept]
            cand_ids = [cand_ids[position] for position in kept]
        if residual and cand_ids:
            left_index, cand_ids = self._apply_inner_residual(
                left, stored, left_index, cand_ids, residual
            )

        result.observed_cardinalities[right_node.expression] = matched
        result.operator_cardinalities[right_key] = matched
        result.operator_timings[right_key] = time.perf_counter() - probe_start
        qualified = self._qualified_store(stored, right_alias)
        return left.gather_view(left_index).merge(TableView([(qualified, cand_ids)], len(cand_ids)))

    def _filter_candidate_ids(
        self, cand_ids: List[int], filters, stored, alias: str
    ) -> set:
        """Row ids among the candidates that pass the inner's own filters."""

        def resolve(ref) -> List[object]:
            values = stored.column(ref.column)
            if values is None:
                raise scalar.MissingColumnError(ref)
            return values

        compiled = [
            scalar.compile_filter(predicate.expr, self.parameters) for predicate in filters
        ]
        unique = sorted(set(cand_ids))
        surviving: set = set()
        batch_size = self.batch_size
        try:
            for start in range(0, len(unique), batch_size):
                indices: Sequence[int] = unique[start : start + batch_size]
                for accept in compiled:
                    indices = accept(resolve, indices)
                    if not indices:
                        break
                else:
                    surviving.update(indices)
        except scalar.MissingColumnError as error:
            raise ExecutionError(
                f"filter references column {error.ref.column!r} which is "
                f"absent from the data for alias {alias!r}"
            ) from error
        return surviving

    def _pair_values(
        self,
        left: TableView,
        stored,
        left_index: List[int],
        cand_ids: List[int],
        column,
    ) -> List[object]:
        """Gather one join-predicate column along the candidate pairs."""
        name = str(column)
        values = left.column(name)
        if values is not None:
            return gather_values(values, left_index)
        stored_values = stored.column(column.column)
        if stored_values is not None:
            return gather_values(stored_values, cand_ids)
        return [None] * len(cand_ids)

    def _apply_inner_residual(
        self,
        left: TableView,
        stored,
        left_index: List[int],
        cand_ids: List[int],
        predicates: Sequence[JoinPredicate],
    ) -> Tuple[List[int], List[int]]:
        """Non-equi conjuncts over the probe pairs (NULL rejects, as in the
        hash-join path's residual evaluation)."""
        sides = [
            (
                self._pair_values(left, stored, left_index, cand_ids, predicate.left),
                self._pair_values(left, stored, left_index, cand_ids, predicate.right),
                predicate.op.comparator,
            )
            for predicate in predicates
        ]
        surviving_left: List[int] = []
        surviving_right: List[int] = []
        for position in range(len(cand_ids)):
            for left_values, right_values, evaluate in sides:
                left_value = left_values[position]
                right_value = right_values[position]
                if left_value is None or right_value is None:
                    break
                if not evaluate(left_value, right_value):
                    break
            else:
                surviving_left.append(left_index[position])
                surviving_right.append(cand_ids[position])
        return surviving_left, surviving_right

    def _execute_join(self, node: PhysicalPlan, result: ExecutionResult) -> TableView:
        left_node, right_node = node.children[0], node.children[1]
        if node.operator is PhysicalOperator.INDEX_NL_JOIN:
            setup = access.index_nl_setup(right_node, self.query, self.data)
            if setup is not None:
                return self._execute_index_nl_join(node, left_node, right_node, setup, result)
        left = self._execute_node(left_node, result)
        right = self._execute_node(right_node, result)
        predicates = self.query.predicates_between(left_node.expression, right_node.expression)
        equi = [predicate for predicate in predicates if predicate.is_equijoin]
        residual = [predicate for predicate in predicates if not predicate.is_equijoin]
        if equi:
            left_index, right_index = self._hash_join_indices(
                left, right, left_node.expression, equi
            )
        else:
            left_index, right_index = self._cross_indices(left.row_count, right.row_count)
        if residual and left_index:
            left_index, right_index = self._apply_residual(
                left, right, left_index, right_index, residual
            )
        return left.gather_view(left_index).merge(right.gather_view(right_index))

    def _key_column(self, view: TableView, name: str) -> List[object]:
        values = view.column(name)
        if values is None:
            # Like the row engine's row.get(): a missing key column joins
            # through None (and None build keys do match None probe keys).
            return [None] * view.row_count
        return values

    def _hash_join_indices(
        self,
        left: TableView,
        right: TableView,
        left_expression,
        predicates: List[JoinPredicate],
    ) -> Tuple[List[int], List[int]]:
        left_names: List[str] = []
        right_names: List[str] = []
        for predicate in predicates:
            left_column = predicate.column_for(left_expression)
            right_column = predicate.right if left_column == predicate.left else predicate.left
            left_names.append(str(left_column))
            right_names.append(str(right_column))
        left_keys = [self._key_column(left, name) for name in left_names]
        right_keys = [self._key_column(right, name) for name in right_names]
        single = len(left_keys) == 1
        batch_size = self.batch_size

        index: Dict[object, List[int]] = defaultdict(list)
        for start in range(0, right.row_count, batch_size):
            if single:
                keys: Sequence[object] = right_keys[0][start : start + batch_size]
            else:
                keys = list(zip(*(column[start : start + batch_size] for column in right_keys)))
            for position, key in enumerate(keys, start):
                index[key].append(position)
        index.default_factory = None  # probe lookups must not create entries

        left_index: List[int] = []
        right_index: List[int] = []
        append_left = left_index.append
        extend_left = left_index.extend
        append_right = right_index.append
        extend_right = right_index.extend
        get = index.get
        for start in range(0, left.row_count, batch_size):
            if single:
                keys = left_keys[0][start : start + batch_size]
            else:
                keys = list(zip(*(column[start : start + batch_size] for column in left_keys)))
            position = start
            for matches in map(get, keys):
                if matches is not None:
                    if len(matches) == 1:
                        append_left(position)
                        append_right(matches[0])
                    else:
                        extend_left([position] * len(matches))
                        extend_right(matches)
                position += 1
        return left_index, right_index

    @staticmethod
    def _cross_indices(left_count: int, right_count: int) -> Tuple[List[int], List[int]]:
        """Left-major cross product, matching the row engine's nested loop."""
        left_index = [i for i in range(left_count) for _ in range(right_count)]
        right_index = list(range(right_count)) * left_count
        return left_index, right_index

    def _apply_residual(
        self,
        left: TableView,
        right: TableView,
        left_index: List[int],
        right_index: List[int],
        predicates: Sequence[JoinPredicate],
    ) -> Tuple[List[int], List[int]]:
        """Filter join candidates through non-equi predicates.

        The predicate columns are gathered along the candidate pairs up
        front; the scan over them is a flat per-pair pass.
        """
        sides = []
        for predicate in predicates:
            sides.append(
                (
                    self._joined_values(left, right, left_index, right_index, predicate.left),
                    self._joined_values(left, right, left_index, right_index, predicate.right),
                    predicate.op.comparator,
                )
            )
        surviving_left: List[int] = []
        surviving_right: List[int] = []
        for position in range(len(left_index)):
            for left_values, right_values, evaluate in sides:
                left_value = left_values[position]
                right_value = right_values[position]
                if left_value is None or right_value is None:
                    break
                if not evaluate(left_value, right_value):
                    break
            else:
                surviving_left.append(left_index[position])
                surviving_right.append(right_index[position])
        return surviving_left, surviving_right

    @staticmethod
    def _joined_values(
        left: TableView,
        right: TableView,
        left_index: List[int],
        right_index: List[int],
        column,
    ) -> List[object]:
        """Gather one predicate column along the join candidate pairs."""
        name = str(column)
        values = left.column(name)
        if values is not None:
            return gather_values(values, left_index)
        values = right.column(name)
        if values is not None:
            return gather_values(values, right_index)
        return [None] * len(left_index)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def _execute_aggregate(self, node: PhysicalPlan, result: ExecutionResult) -> ColumnTable:
        """Grouped aggregation — one body for the serial, thread and process executors.

        The typed kernels (:mod:`repro.storage.buffers`) get the first try,
        on the calling thread.  When they refuse, the generic path runs:
        group index lists from :meth:`_build_groups`, one output column per
        aggregate from :meth:`_aggregate_column_parallel` — the two places
        the parallel executors fan out.  Either way the rows are the row
        engine's, byte for byte.
        """
        child = self._execute_node(node.children[0], result)
        group_columns = [str(column) for column in self.query.group_by]
        try:
            table = self._aggregate_with_kernels(child, group_columns)
        except KernelRefused as refusal:
            result.aggregate_paths[self._current_operator_key] = refusal.reason
        else:
            result.aggregate_paths[self._current_operator_key] = "kernel"
            return table
        single = len(group_columns) == 1
        if not group_columns:
            groups: Dict[object, List[int]] = {(): list(range(child.row_count))}
        else:
            arrays = [self._key_column(child, name) for name in group_columns]
            groups = self._build_groups(arrays, single, child.row_count)

        # Build the output columnar directly: transpose the group keys in one
        # pass and produce each aggregate column with bulk comprehensions.
        group_indices = list(groups.values())
        output: Dict[str, List[object]] = {}
        if single:
            output[group_columns[0]] = list(groups.keys())
        elif group_columns:
            for name, key_values in zip(group_columns, zip(*groups.keys())):
                output[name] = list(key_values)
        for aggregate in self.query.aggregates:
            output[str(aggregate)] = self._aggregate_column_parallel(
                aggregate,
                self._aggregate_input(aggregate, child.column, child.row_count),
                group_indices,
            )
        return ColumnTable(output, len(groups))

    def _aggregate_with_kernels(self, child: TableView, group_columns: List[str]) -> ColumnTable:
        """The operator's output from the typed kernels, or :class:`KernelRefused`.

        All or nothing: one input the kernels cannot take exactly sends the
        whole operator down the generic path, so it reports one reason.
        """
        require_kernels(child.row_count)
        for aggregate in self.query.aggregates:
            if aggregate.distinct:
                raise KernelRefused("distinct")
            # Decided on the source arrays, before anything is gathered or
            # grouped for nothing: every aggregated column is a typed buffer.
            if aggregate.expr is not None:
                inputs = [str(ref) for ref in scalar.columns_of(aggregate.expr)]
            else:
                inputs = [] if aggregate.column is None else [str(aggregate.column)]
            for name in inputs:
                source = child.base_column(name)
                if source is None:
                    raise KernelRefused("missing")
                if not isinstance(source, TypedColumn):
                    raise KernelRefused("text-values")
        gathered: Dict[str, Optional[Sequence[object]]] = {}

        def column(name: str) -> Optional[Sequence[object]]:
            if name not in gathered:  # each view column is gathered once
                gathered[name] = child.column(name, typed=True)
            return gathered[name]

        keys = [column(name) for name in group_columns]
        keys = [[None] * child.row_count if values is None else values for values in keys]
        grouping = group_rows(keys, child.row_count)
        output: Dict[str, List[object]] = {
            name: gather_values(values, grouping.first_rows)
            for name, values in zip(group_columns, keys)
        }
        for aggregate in self.query.aggregates:
            values = self._aggregate_input(aggregate, column, child.row_count, keep_typed=True)
            output[str(aggregate)] = grouping.aggregate(aggregate.function.value, values)
        return ColumnTable(output, grouping.count)

    def _build_groups(
        self, arrays: List[Sequence[object]], single: bool, row_count: int
    ) -> Dict[object, List[int]]:
        """Group key → row positions, keys in first-appearance order."""
        groups: Dict[object, List[int]] = defaultdict(list)
        batch_size = self.batch_size
        for start in range(0, row_count, batch_size):
            if single:
                keys: Sequence[object] = arrays[0][start : start + batch_size]
            else:
                keys = list(zip(*(array[start : start + batch_size] for array in arrays)))
            for position, key in enumerate(keys, start):
                groups[key].append(position)
        return groups

    def _aggregate_column_parallel(
        self, aggregate, values: Optional[Sequence[object]], group_indices: List[List[int]]
    ) -> List[object]:
        """One aggregate's output column; the parallel executors fan this out."""
        return self._aggregate_column(aggregate, values, group_indices)

    def _aggregate_input(
        self, aggregate, column, row_count: int, keep_typed: bool = False
    ) -> Optional[Sequence[object]]:
        """The aggregate's input values aligned with the child's row positions.

        *column* fetches a child column by name (``None`` when absent).
        Returns ``None`` for ``COUNT(*)`` (and for a plain column absent from
        the child, which the aggregation paths read as all-NULL).  Expression
        aggregates evaluate batch-wise over the child's columns in row order,
        so float summation order still matches the row engine; with
        *keep_typed* they stay typed buffers or raise
        :class:`KernelRefused`.
        """
        if aggregate.expr is not None:

            def resolve(ref) -> Sequence[object]:
                values = column(str(ref))
                if values is None:
                    raise scalar.MissingColumnError(ref)
                return values

            try:
                return scalar.evaluate_batch(
                    aggregate.expr, resolve, range(row_count), self.parameters, keep_typed
                )
            except scalar.MissingColumnError as error:
                raise ExecutionError(
                    f"aggregate expression references {error.ref} which is "
                    "absent from the data"
                ) from error
        if aggregate.column is None:
            return None
        return column(str(aggregate.column))

    @staticmethod
    def _aggregate_column(
        aggregate, values: Optional[Sequence[object]], group_indices: List[List[int]]
    ) -> List[object]:
        """One aggregate's output column, one entry per group.

        *values* is the precomputed input sequence from
        :meth:`_aggregate_input` (``None`` for ``COUNT(*)`` / absent column).
        Gathering order (and therefore float summation order) matches the row
        engine's per-group row order exactly.  Columns without NULLs take
        all-comprehension fast paths; the generic path filters per group.
        """
        function = aggregate.function
        is_count_star = aggregate.column is None and aggregate.expr is None
        if function is AggregateFunction.COUNT and is_count_star:
            return [len(indices) for indices in group_indices]
        if values is None:
            # Column absent from the child: every value reads as None.
            empty = 0 if function is AggregateFunction.COUNT else None
            return [empty] * len(group_indices)
        distinct = aggregate.distinct
        clean = None not in values
        if function is AggregateFunction.COUNT:
            if distinct:
                if clean:
                    return [len({values[i] for i in ix}) for ix in group_indices]
                return [len({values[i] for i in ix} - {None}) for ix in group_indices]
            if clean:
                return [len(indices) for indices in group_indices]
            return [sum(1 for i in ix if values[i] is not None) for ix in group_indices]
        if clean and not distinct:
            if function is AggregateFunction.SUM:
                return [
                    sequential_sum(gather_values(values, ix)) if ix else None
                    for ix in group_indices
                ]
            if function is AggregateFunction.MIN:
                return [
                    min(gather_values(values, ix)) if ix else None for ix in group_indices
                ]
            if function is AggregateFunction.MAX:
                return [
                    max(gather_values(values, ix)) if ix else None for ix in group_indices
                ]
            if function is AggregateFunction.AVG:
                return [
                    sequential_sum(gather_values(values, ix)) / len(ix) if ix else None
                    for ix in group_indices
                ]
        if function is AggregateFunction.SUM:
            final = sequential_sum
        elif function is AggregateFunction.MIN:
            final = min
        elif function is AggregateFunction.MAX:
            final = max
        elif function is AggregateFunction.AVG:
            def final(gathered):
                return sequential_sum(gathered) / len(gathered)
        else:  # pragma: no cover - defensive
            raise ExecutionError(f"unsupported aggregate {function}")
        out: List[object] = []
        append = out.append
        for ix in group_indices:
            gathered = [v for v in gather_values(values, ix) if v is not None]
            if distinct:
                gathered = list(set(gathered))
            append(final(gathered) if gathered else None)
        return out
