"""True multi-core morsel execution over shared-memory typed buffers.

:class:`ProcessParallelExecutor` subclasses the thread-based
:class:`~repro.engine.parallel.executor.ParallelExecutor` and re-routes its
data-parallel fan-outs — scan filtering, hash-join build/probe, and grouped
aggregation — to a persistent pool of **worker processes**
(:class:`~repro.engine.parallel.pool.ProcessMorselPool`), sidestepping the
GIL entirely.  Per statement, the inputs each fan-out needs are installed on
the workers once: typed columns ride in shared-memory segments
(:mod:`repro.storage.shm`, attached zero-copy on the worker side), while
filter expressions, join indexes, and aggregate specs ship pickled.  Workers
then run *exactly the serial engine's inner loops* over their morsel ranges,
and the parent merges the fragments in morsel order — so rows, group order,
float bits, and observed cardinalities stay byte-identical to the serial
engine, same as the thread executor's contract.

Fallback policy (each event is counted in
:mod:`repro.engine.parallel.stats`):

* ``single-morsel`` — the input fits in one morsel; fan-out is pure
  overhead, run the operator on the inherited (thread/serial) path;
* ``demoted-column`` — a filter touches a column demoted to a plain list;
  shipping it would mean pickling the very data the fast path exists to
  avoid copying, so that scan stays on the thread path (join keys and
  aggregate inputs that are lists still ship, pickled and measured —
  they are usually small gathered intermediates, not base columns);
* ``no-shm`` — recorded by :func:`repro.engine.make_executor` when shared
  memory is unavailable and the whole statement falls back to threads.

Everything not listed above (sorts, residual predicates, expression
evaluation, single-group combining) is inherited unchanged.
"""

from __future__ import annotations

import pickle
from collections import defaultdict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.engine.parallel.executor import _MIN_GROUPS_TO_CHUNK, ParallelExecutor
from repro.engine.parallel.pool import next_statement_id, shared_process_pool
from repro.engine.parallel.stats import record_export, record_fallback, record_morsels
from repro.obs.trace import fanout_span
from repro.engine.vectorized.columns import (
    DEFAULT_BATCH_SIZE,
    ColumnTable,
    TableView,
)
from repro.relational import scalar
from repro.relational.plan import PhysicalPlan
from repro.relational.query import Query
from repro.storage import shm
from repro.storage.buffers import TypedColumn

#: Returned by fan-out helpers to mean "run the inherited path instead".
_FALLBACK = object()


class ProcessParallelExecutor(ParallelExecutor):
    """Morsel execution on worker processes; byte-identical to serial."""

    executor_name = "process"

    def __init__(
        self,
        query: Query,
        data: Mapping[str, object],
        batch_size: int = DEFAULT_BATCH_SIZE,
        workers: int = 2,
        parameters: Optional[Sequence[object]] = None,
    ) -> None:
        super().__init__(query, data, batch_size=batch_size, workers=workers, parameters=parameters)
        self._process_pool = shared_process_pool(workers)
        self._stmt = next_statement_id()
        self._exports: List[shm.TableExport] = []
        # (anchor-object, extra, key): anchors are held so identity stays
        # valid; repeated fan-outs over the same columns reuse one export.
        self._export_cache: List[Tuple[object, object, str]] = []
        self._filter_keys: Dict[str, str] = {}
        self._key_count = 0

    def execute(self, plan: PhysicalPlan):
        try:
            return super().execute(plan)
        finally:
            self._release()

    def _release(self) -> None:
        """Drop worker-side state and unlink every segment this statement made."""
        self._process_pool.forget(self._stmt)
        exports, self._exports = self._exports, []
        self._export_cache = []
        self._filter_keys = {}
        for export in exports:
            export.release()

    # -- shipping ----------------------------------------------------------

    def _new_key(self) -> str:
        self._key_count += 1
        return f"t{self._key_count}"

    def _export(
        self,
        columns: Dict[str, object],
        row_count: int,
        anchor: object = None,
        extra: object = None,
    ) -> str:
        """Export *columns* to shared memory and attach them on all workers."""
        if anchor is not None:
            for cached_anchor, cached_extra, key in self._export_cache:
                if cached_anchor is anchor and cached_extra == extra:
                    return key
        with fanout_span("shm-export", operator=self._current_operator_key) as span_attrs:
            export = shm.export_columns(columns, row_count)
            if span_attrs is not None:
                span_attrs["shm_bytes"] = export.shm_bytes
                span_attrs["pickled_bytes"] = export.pickled_bytes
        record_export(export.shm_bytes, export.pickled_bytes)
        self._exports.append(export)
        key = self._new_key()
        with fanout_span("shm-attach", operator=self._current_operator_key):
            self._process_pool.attach(self._stmt, key, export.manifest)
        if anchor is not None:
            self._export_cache.append((anchor, extra, key))
        return key

    def _put(self, fragment: object) -> str:
        """Install a pickled plan fragment on all workers."""
        blob = pickle.dumps(fragment, protocol=pickle.HIGHEST_PROTOCOL)
        record_export(0, len(blob))
        key = self._new_key()
        self._process_pool.put_pickled(self._stmt, key, blob)
        return key

    def _run(self, specs: Sequence[Tuple]) -> List[object]:
        record_morsels(len(specs))
        operator_key = self._current_operator_key
        with fanout_span(
            "morsel-fanout",
            transport="process",
            morsels=len(specs),
            operator=operator_key,
        ):
            results, worker_seconds = self._process_pool.run_tasks_timed(self._stmt, specs)
        self._add_worker_seconds(operator_key, worker_seconds)
        return results

    # -- scans -------------------------------------------------------------

    def _scan_column_table(self, stored: ColumnTable, alias: str, table: str) -> ColumnTable:
        filters = self.query.filters_for(alias)
        selection: Optional[List[int]] = None
        if filters:
            computed = self._process_scan_selection(stored, alias, filters)
            if computed is _FALLBACK:
                return super()._scan_column_table(stored, alias, table)
            selection = computed
        # Output assembly is the serial engine's: gather parent-side from
        # the merged selection.
        return self._scan_output(stored, alias, selection)

    def _process_scan_selection(self, stored: ColumnTable, alias: str, filters):
        """The scan's merged selection vector via worker processes.

        Only the filter-referenced columns ship; returns ``_FALLBACK`` when
        fan-out cannot or should not run (too small, demoted column, or a
        missing column whose diagnostic the inherited path raises).
        """
        morsels = self._morsels(stored.row_count)
        if self.workers == 1 or len(morsels) <= 1:
            record_fallback("single-morsel")
            return _FALLBACK
        needed: Dict[str, object] = {}
        for predicate in filters:
            for ref in scalar.columns_of(predicate.expr):
                column = stored.column(ref.column)
                if column is None:
                    return _FALLBACK
                needed[ref.column] = column
        if any(not isinstance(column, TypedColumn) for column in needed.values()):
            record_fallback("demoted-column")
            return _FALLBACK
        table_key = self._export(
            needed, stored.row_count, anchor=stored, extra=tuple(sorted(needed))
        )
        filters_key = self._filter_keys.get(alias)
        if filters_key is None:
            filters_key = self._put(
                ([predicate.expr for predicate in filters], self.parameters)
            )
            self._filter_keys[alias] = filters_key
        parts = self._run(
            [("scan_filter", table_key, filters_key, m.start, m.stop) for m in morsels]
        )
        selection: List[int] = []
        for part in parts:  # merged in morsel order: serial-identical
            selection.extend(part)
        return selection

    # -- hash join ---------------------------------------------------------

    def _hash_join_indices(
        self,
        left: TableView,
        right: TableView,
        left_expression,
        predicates,
    ) -> Tuple[List[int], List[int]]:
        left_morsels = self._morsels(left.row_count)
        right_morsels = self._morsels(right.row_count)
        if self.workers == 1 or (len(left_morsels) <= 1 and len(right_morsels) <= 1):
            record_fallback("single-morsel")
            return super()._hash_join_indices(left, right, left_expression, predicates)
        left_names: List[str] = []
        right_names: List[str] = []
        for predicate in predicates:
            left_column = predicate.column_for(left_expression)
            right_column = predicate.right if left_column == predicate.left else predicate.left
            left_names.append(str(left_column))
            right_names.append(str(right_column))
        left_keys = [self._key_column(left, name) for name in left_names]
        right_keys = [self._key_column(right, name) for name in right_names]
        count = len(left_keys)
        single = count == 1

        # Build: morsel partials (worker or inline for a single morsel)
        # merged in morsel order — every match list ascending, as serial.
        if len(right_morsels) > 1:
            build_key = self._export(
                {f"k{i}": column for i, column in enumerate(right_keys)}, right.row_count
            )
            partials = self._run(
                [("build", build_key, count, m.start, m.stop) for m in right_morsels]
            )
        else:
            partials = [self._inline_build(right_keys, single, right.row_count)]
        index: Dict[object, List[int]] = {}
        for partial in partials:
            for key, positions in partial.items():
                existing = index.get(key)
                if existing is None:
                    index[key] = positions
                else:
                    existing.extend(positions)

        # Probe: fragments concatenate in morsel order.
        if len(left_morsels) > 1:
            probe_key = self._export(
                {f"k{i}": column for i, column in enumerate(left_keys)}, left.row_count
            )
            index_key = self._put(index)
            parts = self._run(
                [
                    ("probe", probe_key, count, index_key, m.start, m.stop)
                    for m in left_morsels
                ]
            )
        else:
            parts = [self._inline_probe(left_keys, single, left.row_count, index)]
        left_index: List[int] = []
        right_index: List[int] = []
        for left_part, right_part in parts:
            left_index.extend(left_part)
            right_index.extend(right_part)
        return left_index, right_index

    @staticmethod
    def _inline_keys(keys_columns, single: bool, row_count: int) -> Sequence[object]:
        if single:
            return keys_columns[0][0:row_count]
        return list(zip(*(column[0:row_count] for column in keys_columns)))

    @classmethod
    def _inline_build(cls, keys_columns, single: bool, row_count: int):
        partial: Dict[object, List[int]] = defaultdict(list)
        for position, key in enumerate(cls._inline_keys(keys_columns, single, row_count)):
            partial[key].append(position)
        return partial

    @classmethod
    def _inline_probe(cls, keys_columns, single: bool, row_count: int, index):
        get = index.get
        left_part: List[int] = []
        right_part: List[int] = []
        for position, key in enumerate(cls._inline_keys(keys_columns, single, row_count)):
            matches = get(key)
            if matches is not None:
                if len(matches) == 1:
                    left_part.append(position)
                    right_part.append(matches[0])
                else:
                    left_part.extend([position] * len(matches))
                    right_part.extend(matches)
        return left_part, right_part

    # -- aggregation -------------------------------------------------------

    def _build_groups(
        self, arrays: List[Sequence[object]], single: bool, row_count: int
    ) -> Dict[object, List[int]]:
        morsels = self._morsels(row_count)
        if self.workers == 1 or len(morsels) <= 1:
            record_fallback("single-morsel")
            return super()._build_groups(arrays, single, row_count)
        key = self._export(
            {f"k{i}": array for i, array in enumerate(arrays)}, row_count
        )
        partials = self._run([("build", key, len(arrays), m.start, m.stop) for m in morsels])
        groups: Dict[object, List[int]] = {}
        for partial in partials:  # morsel order: first-seen order is serial
            for group_key, positions in partial.items():
                existing = groups.get(group_key)
                if existing is None:
                    groups[group_key] = positions
                else:
                    existing.extend(positions)
        return groups

    def _aggregate_column_parallel(
        self,
        aggregate,
        values: Optional[Sequence[object]],
        group_indices: List[List[int]],
    ) -> List[object]:
        count = len(group_indices)
        if self.workers > 1 and count >= _MIN_GROUPS_TO_CHUNK and values is not None:
            values_key = self._export(
                {"v": values}, len(values), anchor=values, extra="agg-values"
            )
            agg_key = self._put(aggregate)
            size = (count + self.workers - 1) // self.workers
            chunks = [group_indices[start : start + size] for start in range(0, count, size)]
            parts = self._run(
                [("agg_chunk", values_key, agg_key, chunk) for chunk in chunks]
            )
            out: List[object] = []
            for part in parts:  # chunks concatenate in order, as the thread path
                out.extend(part)
            return out
        # COUNT(*) (values is None), few groups, and the single-huge-group
        # combine all stay on the inherited thread/serial path.
        return super()._aggregate_column_parallel(aggregate, values, group_indices)
