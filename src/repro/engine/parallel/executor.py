"""Morsel-driven parallel execution on top of the vectorized engine.

:class:`ParallelExecutor` subclasses
:class:`~repro.engine.vectorized.executor.VectorizedExecutor` and replaces
the data-parallel inner loops — scan filtering, hash-join build/probe, and
grouped aggregation — with fixed-size *morsels* (one batch = one morsel,
sized by ``batch_size``) fanned out to a shared thread pool
(:mod:`repro.engine.parallel.pool`).  Everything else — plan dispatch,
operator bookkeeping, sorts, residual predicates — is inherited unchanged.

**Results are byte-identical to the serial engine.**  Every fan-out merges
its per-morsel outputs back in morsel order, so selection vectors, join
pairs and group first-occurrence order come out exactly as the serial loop
produces them; float aggregation keeps the serial engine's left-to-right
summation order (per-group values are computed over the merged index lists,
parallelized only *across* groups, never within one).  Observed
cardinalities are per-node row counts of the merged results, i.e. the sum
over morsels — the adaptive :class:`~repro.adaptive.monitor.RuntimeMonitor`
and incremental re-optimization work unchanged.

Under CPython's GIL, threads only pay off where the per-morsel work releases
the GIL — the typed-buffer filter kernels (:mod:`repro.storage.buffers`) do,
via numpy, which is why typed columns and morsel parallelism ship together.
Pure-Python morsels still interleave on one core; ``workers=1`` (or the
plain :class:`VectorizedExecutor`) remains the exact serial path.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ExecutionError
from repro.engine.parallel.pool import shared_pool
from repro.engine.parallel.stats import record_morsels
from repro.obs.trace import fanout_span
from repro.engine.vectorized.columns import (
    DEFAULT_BATCH_SIZE,
    ColumnTable,
    TableView,
    gather_values,
)
from repro.engine.vectorized.executor import VectorizedExecutor
from repro.relational import scalar
from repro.relational.plan import PhysicalPlan
from repro.relational.query import AggregateFunction, Query
from repro.storage import access
from repro.storage.buffers import INT, TypedColumn

#: Below this many groups, chunking aggregate computation across the pool
#: costs more than it saves; compute the output column serially.
_MIN_GROUPS_TO_CHUNK = 64

#: Below this many index entries, a single-group combinable aggregate is
#: cheaper serial than split into partials.
_MIN_ROWS_TO_SPLIT = 4096


class ParallelExecutor(VectorizedExecutor):
    """The vectorized engine with morsel-parallel scans, joins, aggregates."""

    #: reported in ``ExecutionResult.executor`` and the EXPLAIN ANALYZE
    #: footer; the process subclass overrides it.
    executor_name = "thread"

    def __init__(
        self,
        query: Query,
        data: Mapping[str, object],
        batch_size: int = DEFAULT_BATCH_SIZE,
        workers: int = 2,
        parameters: Optional[Sequence[object]] = None,
    ) -> None:
        super().__init__(query, data, batch_size=batch_size, parameters=parameters)
        if workers < 1:
            raise ExecutionError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._pool = shared_pool(workers)
        #: per-operator seconds spent inside pool workers, keyed by the
        #: fanning-out node's operator key (satellite of ExecutionResult.
        #: operator_worker_seconds).  Guarded by its own lock because thread
        #: pool workers report concurrently.
        self._worker_seconds: Dict[str, float] = {}
        self._worker_seconds_lock = threading.Lock()

    def execute(self, plan: PhysicalPlan):
        result = super().execute(plan)
        result.workers = self.workers
        result.executor = self.executor_name
        result.operator_worker_seconds = dict(self._worker_seconds)
        return result

    def _add_worker_seconds(self, operator_key: Optional[str], seconds: float) -> None:
        key = operator_key or "?"
        with self._worker_seconds_lock:
            self._worker_seconds[key] = self._worker_seconds.get(key, 0.0) + seconds

    # -- morsel scheduling -------------------------------------------------

    def _morsels(self, total: int) -> List[range]:
        """Contiguous fixed-size row ranges; the last one may be short."""
        size = self.batch_size
        return [range(start, min(start + size, total)) for start in range(0, total, size)]

    def _map(self, fn, tasks: Sequence[object]) -> List[object]:
        """Run *fn* over *tasks* on the pool; results in task order.

        Degenerates to an inline loop when there is nothing to overlap.
        Exceptions propagate exactly as from the serial loop (the first
        failing morsel's exception is re-raised here, in task order).
        """
        if self.workers == 1 or len(tasks) <= 1:
            return [fn(task) for task in tasks]
        record_morsels(len(tasks))
        operator_key = self._current_operator_key

        def timed(task):
            started = time.perf_counter()
            try:
                return fn(task)
            finally:
                self._add_worker_seconds(operator_key, time.perf_counter() - started)

        # _map always dispatches to the shared *thread* pool — the process
        # executor routes its fan-outs through _run and only lands here on
        # its thread-fallback paths.
        with fanout_span(
            "morsel-fanout",
            transport="thread",
            morsels=len(tasks),
            operator=operator_key,
        ):
            return list(self._pool.map(timed, tasks))

    # -- scans -------------------------------------------------------------

    def _scan_column_table(self, stored: ColumnTable, alias: str, table: str) -> ColumnTable:
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

            def run_morsel(morsel: range) -> Sequence[int]:
                indices: Sequence[int] = morsel
                for accept in compiled:
                    indices = accept(resolve, indices)
                    if not indices:
                        return ()
                return indices

            try:
                parts = self._map(run_morsel, self._morsels(stored.row_count))
            except scalar.MissingColumnError as error:
                raise ExecutionError(
                    f"filter references column {error.ref.column!r} which is "
                    f"absent from the data for alias {alias!r} (table {table!r})"
                ) from error
            selection = []
            for part in parts:  # merged in morsel order: serial-identical
                selection.extend(part)
        return self._scan_output(stored, alias, selection)

    def _execute_scan(self, node: PhysicalPlan) -> ColumnTable:
        alias = node.expression.sole_alias
        relation = self.query.relation(alias)
        base_rows = access.scan_source(self.query, self.data, alias)
        if isinstance(base_rows, ColumnTable):
            return self._scan_column_table(base_rows, alias, relation.table)
        if not base_rows:
            return ColumnTable.empty()
        if self._prune_columns:
            names = [column.column for column in self.query.columns_of_alias(alias)]
        else:
            names = list(base_rows[0].keys())
        compiled = [
            scalar.compile_filter(predicate.expr, self.parameters)
            for predicate in self.query.filters_for(alias)
        ]

        def run_morsel(morsel: range) -> Tuple[int, List[List[object]]]:
            batch = base_rows[morsel.start : morsel.stop]
            selection = self._filter_batch(batch, compiled, alias, relation.table)
            if selection is None:
                return len(batch), [self._batch_column(batch, name, None) for name in names]
            if not selection:
                return 0, [[] for _ in names]
            return (
                len(selection),
                [self._batch_column(batch, name, selection) for name in names],
            )

        output: Dict[str, List[object]] = {f"{alias}.{name}": [] for name in names}
        out_columns = list(output.values())
        row_count = 0
        for count, columns in self._map(run_morsel, self._morsels(len(base_rows))):
            row_count += count
            for out, part in zip(out_columns, columns):
                out.extend(part)
        return ColumnTable(output, row_count)

    @staticmethod
    def _batch_column(
        batch: Sequence[Mapping[str, object]], name: str, selection: Optional[List[int]]
    ) -> List[object]:
        """One output column of a row-dict morsel (serial engine's gather)."""
        if selection is None:
            try:
                return [row[name] for row in batch]
            except KeyError:  # ragged rows: fall back to None-filling
                return [row.get(name) for row in batch]
        try:
            return [batch[index][name] for index in selection]
        except KeyError:
            return [batch[index].get(name) for index in selection]

    def _execute_index_scan_view(self, node: PhysicalPlan, stored) -> TableView:
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

            def run_morsel(morsel: range) -> Sequence[int]:
                indices: Sequence[int] = row_ids[morsel.start : morsel.stop]
                for accept in compiled:
                    indices = accept(resolve, indices)
                    if not indices:
                        return ()
                return indices

            try:
                parts = self._map(run_morsel, self._morsels(len(row_ids)))
            except scalar.MissingColumnError as error:
                raise ExecutionError(
                    f"filter references column {error.ref.column!r} which is "
                    f"absent from the data for alias {alias!r} (table {table!r})"
                ) from error
            selection = []
            for part in parts:
                selection.extend(part)
        return TableView(
            [(self._qualified_store(stored, alias), list(selection))], len(selection)
        )

    # -- hash join ---------------------------------------------------------

    def _hash_join_indices(
        self,
        left: TableView,
        right: TableView,
        left_expression,
        predicates,
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

        def morsel_keys(keys_columns, morsel: range) -> Sequence[object]:
            if single:
                return keys_columns[0][morsel.start : morsel.stop]
            return list(
                zip(*(column[morsel.start : morsel.stop] for column in keys_columns))
            )

        # Partition-parallel build: each morsel hashes its slice of the build
        # side into a private partial map; partials merge in morsel order, so
        # every key's match list carries positions ascending — exactly the
        # serial build.
        def build(morsel: range) -> Dict[object, List[int]]:
            partial: Dict[object, List[int]] = defaultdict(list)
            for position, key in enumerate(morsel_keys(right_keys, morsel), morsel.start):
                partial[key].append(position)
            return partial

        index: Dict[object, List[int]] = {}
        for partial in self._map(build, self._morsels(right.row_count)):
            for key, positions in partial.items():
                existing = index.get(key)
                if existing is None:
                    index[key] = positions
                else:
                    existing.extend(positions)

        # Partition-parallel probe: morsels emit (left, right) index pair
        # fragments that concatenate in morsel order.
        get = index.get

        def probe(morsel: range) -> Tuple[List[int], List[int]]:
            left_part: List[int] = []
            right_part: List[int] = []
            append_left = left_part.append
            extend_left = left_part.extend
            append_right = right_part.append
            extend_right = right_part.extend
            position = morsel.start
            for matches in map(get, morsel_keys(left_keys, morsel)):
                if matches is not None:
                    if len(matches) == 1:
                        append_left(position)
                        append_right(matches[0])
                    else:
                        extend_left([position] * len(matches))
                        extend_right(matches)
                position += 1
            return left_part, right_part

        left_index: List[int] = []
        right_index: List[int] = []
        for left_part, right_part in self._map(probe, self._morsels(left.row_count)):
            left_index.extend(left_part)
            right_index.extend(right_part)
        return left_index, right_index

    # -- aggregation (VectorizedExecutor._execute_aggregate's two hooks) ----

    def _build_groups(
        self, arrays: List[Sequence[object]], single: bool, row_count: int
    ) -> Dict[object, List[int]]:
        """Morsel-parallel group-by build; overridable by the process executor."""

        def build_groups(morsel: range) -> Dict[object, List[int]]:
            partial: Dict[object, List[int]] = defaultdict(list)
            if single:
                keys: Sequence[object] = arrays[0][morsel.start : morsel.stop]
            else:
                keys = list(zip(*(array[morsel.start : morsel.stop] for array in arrays)))
            for position, key in enumerate(keys, morsel.start):
                partial[key].append(position)
            return partial

        # Per-morsel grouping merged in morsel order: group first-seen
        # order and per-group position order match the serial pass.
        groups: Dict[object, List[int]] = {}
        for partial in self._map(build_groups, self._morsels(row_count)):
            for key, positions in partial.items():
                existing = groups.get(key)
                if existing is None:
                    groups[key] = positions
                else:
                    existing.extend(positions)
        return groups

    def _aggregate_column_parallel(
        self,
        aggregate,
        values: Optional[Sequence[object]],
        group_indices: List[List[int]],
    ) -> List[object]:
        """One aggregate's output column, fanned out without changing values.

        Two exact parallelization axes:

        * many groups — chunk the group list; each chunk runs the serial
          per-group computation, and chunks concatenate in order (each
          group's value is computed by exactly the serial code);
        * one huge group over an int64 buffer — SUM/COUNT/AVG over Python
          ints are associative with arbitrary precision, so per-morsel
          partials combine exactly; MIN/MAX always are.  Floats are *not*
          reassociated — their summation order is part of result parity.

        Expression aggregates evaluate their input column once, serially,
        before the fan-out (batch evaluation order is the parity contract);
        only the per-group gathering parallelizes.  Their value lists are
        never TypedColumns, so the partial-combine SUM/AVG path — exact only
        for int64 buffers — naturally skips them.
        """
        count = len(group_indices)
        if self.workers > 1 and count >= _MIN_GROUPS_TO_CHUNK:
            size = (count + self.workers - 1) // self.workers
            chunks = [group_indices[start : start + size] for start in range(0, count, size)]
            parts = self._map(
                lambda chunk: VectorizedExecutor._aggregate_column(aggregate, values, chunk),
                chunks,
            )
            out: List[object] = []
            for part in parts:
                out.extend(part)
            return out
        if self.workers > 1 and count == 1 and len(group_indices[0]) >= _MIN_ROWS_TO_SPLIT:
            combined = self._combine_single_group(aggregate, values, group_indices[0])
            if combined is not None:
                return combined
        return self._aggregate_column(aggregate, values, group_indices)

    def _combine_single_group(
        self, aggregate, values: Optional[Sequence[object]], indices: List[int]
    ) -> Optional[List[object]]:
        """Partial-combine one group's aggregate, or None when inexact/unsupported."""
        function = aggregate.function
        if aggregate.distinct:
            return None
        is_count_star = aggregate.column is None and aggregate.expr is None
        if function is AggregateFunction.COUNT and is_count_star:
            return [len(indices)]
        if values is None:
            return None
        exact_combine = isinstance(values, TypedColumn) and values.kind == INT
        if function in (AggregateFunction.SUM, AggregateFunction.AVG) and not exact_combine:
            return None  # float sums must keep the serial order
        if function not in (
            AggregateFunction.SUM,
            AggregateFunction.AVG,
            AggregateFunction.MIN,
            AggregateFunction.MAX,
            AggregateFunction.COUNT,
        ):
            return None
        size = self.batch_size
        splits = [indices[start : start + size] for start in range(0, len(indices), size)]

        def partial(split: List[int]) -> Tuple[int, object, object]:
            gathered = [v for v in gather_values(values, split) if v is not None]
            if not gathered:
                return 0, None, None
            return len(gathered), sum(gathered) if exact_combine else None, (
                min(gathered),
                max(gathered),
            )

        total = 0
        total_sum = 0
        low = high = None
        for count, part_sum, extrema in self._map(partial, splits):
            if not count:
                continue
            total += count
            if exact_combine:
                total_sum += part_sum
            part_low, part_high = extrema
            low = part_low if low is None else min(low, part_low)
            high = part_high if high is None else max(high, part_high)
        if function is AggregateFunction.COUNT:
            return [total]
        if total == 0:
            return [None]
        if function is AggregateFunction.SUM:
            return [total_sum]
        if function is AggregateFunction.AVG:
            return [total_sum / total]
        if function is AggregateFunction.MIN:
            return [low]
        return [high]
