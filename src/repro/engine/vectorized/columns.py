"""Column-array storage for the vectorized engine.

A :class:`ColumnTable` is the unit of data exchanged between vectorized
operators: a dict of column name → column array, every array the same
length.  A column is either a plain Python list or a typed buffer
(:class:`repro.storage.buffers.TypedColumn` — ``array('q')``/``array('d')``
plus a null mask) when the schema pins it to INTEGER/FLOAT; both quack the
same, and call sites go through the shared materialization helpers
(:func:`column_values` / :func:`gather_values` / :func:`copy_column`) rather
than touching column internals.  Operators never touch one row at a time
from the outside; they slice the arrays into fixed-size batches, compute
*selection vectors* (lists of row indices that survive a predicate) and
gather the surviving positions into new column arrays.  Rows only exist as
dicts at the very edges: when a scan ingests the session's row-shaped data,
or when a caller asks for the dict view of a result.  The root's output
leaves the engine as a :meth:`frozen <ColumnTable.freeze>` table.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.storage.buffers import (
    BufferTypeError,
    column_values,
    copy_column,
    freeze_column,
    gather_typed,
    gather_values,
    make_column,
)

#: Default number of rows processed per batch.  Large enough that per-batch
#: Python overhead amortizes, small enough that intermediate selection
#: vectors stay cache-friendly.  Doubles as the morsel size of the parallel
#: executor (:mod:`repro.engine.parallel`).
DEFAULT_BATCH_SIZE = 1024

Row = Dict[str, object]

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "ColumnTable",
    "Row",
    "TableView",
    "column_values",
    "copy_column",
    "gather_typed",
    "gather_values",
]


class ColumnTable:
    """An immutable-by-convention columnar table: name → equal-length arrays."""

    __slots__ = ("columns", "row_count")

    def __init__(self, columns: Dict[str, List[object]], row_count: Optional[int] = None):
        self.columns = columns
        if row_count is None:
            row_count = len(next(iter(columns.values()))) if columns else 0
        self.row_count = row_count

    # -- construction ----------------------------------------------------

    @classmethod
    def empty(cls) -> "ColumnTable":
        return cls({}, 0)

    @classmethod
    def with_columns(
        cls,
        names: Sequence[str],
        kinds: Optional[Mapping[str, Optional[str]]] = None,
    ) -> "ColumnTable":
        """An empty table with a fixed column set (a stored base table).

        *kinds* optionally assigns a typed-buffer kind per column
        (``"int"``/``"float"`` from :mod:`repro.storage.buffers`); unmapped
        columns stay plain lists.
        """
        if kinds is None:
            return cls({name: [] for name in names}, 0)
        return cls({name: make_column(kinds.get(name)) for name in names}, 0)

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Row],
        columns: Optional[Sequence[str]] = None,
        kinds: Optional[Mapping[str, Optional[str]]] = None,
    ) -> "ColumnTable":
        """Pivot row dicts into columns (column set from *columns* or first row)."""
        if columns is None:
            columns = list(rows[0].keys()) if rows else []
        table = cls.with_columns(columns, kinds=kinds)
        table.append_rows(rows)
        return table

    # -- mutation (stored base tables only) -------------------------------

    def append_rows(self, rows: Sequence[Row]) -> int:
        """Append row dicts; missing keys fill with None.  Returns rows added.

        This is the storage-side mutation used by INSERT/COPY.  Tables flowing
        *between* operators stay immutable-by-convention.  A typed column that
        cannot hold a batch exactly (adopted data with off-type values, int64
        overflow) demotes itself to a plain list — appends never fail on
        representation, only on constraints.
        """
        for name in self.columns:
            values = self.columns[name]
            batch = [row.get(name) for row in rows]
            if isinstance(values, list):
                values.extend(batch)
                continue
            try:
                values.extend(batch)  # atomic: nothing lands on failure
            except BufferTypeError:
                demoted = values.tolist()
                demoted.extend(batch)
                self.columns[name] = demoted
        self.row_count += len(rows)
        return len(rows)

    # -- access ----------------------------------------------------------

    def column(self, name: str) -> Optional[List[object]]:
        return self.columns.get(name)

    def freeze(self) -> None:
        """Hold every list column as a tuple from now on (see
        :func:`~repro.storage.buffers.freeze_column`): how data that outlives
        a statement is kept.  The column dict is replaced, not mutated, so a
        table adopted from another keeps the other intact."""
        self.columns = {name: freeze_column(values) for name, values in self.columns.items()}

    def to_rows(self) -> List[Row]:
        """Materialize the table back into row dicts (row order preserved)."""
        names = list(self.columns)
        if not names:
            # A zero-column table still has a row count (e.g. a query whose
            # only outputs are computed expressions): emit empty dicts for
            # the derived columns to land in.
            return [{} for _ in range(self.row_count)]
        arrays = (column_values(self.columns[n]) for n in names)
        return [dict(zip(names, values)) for values in zip(*arrays)]


class TableView:
    """A late-materialized result: source tables plus a row-index per source.

    Joins do not copy payload columns around; a join output is a view pairing
    each source :class:`ColumnTable` with the index vector that selects (and
    duplicates) its rows.  :meth:`column` gathers a single column on demand —
    the only per-value work joins ever do is on their key and residual
    columns — and :meth:`materialize` gathers just the columns the final
    consumer asks for.  Because every :meth:`gather_view` flattens the
    composition into direct indices over the base tables, lookup chains never
    grow deeper than one indirection.
    """

    __slots__ = ("sources", "row_count")

    def __init__(
        self,
        sources: List[Tuple[ColumnTable, Optional[List[int]]]],
        row_count: int,
    ) -> None:
        self.sources = sources
        self.row_count = row_count

    @classmethod
    def of_table(cls, table: ColumnTable) -> "TableView":
        return cls([(table, None)], table.row_count)

    def column(self, name: str, typed: bool = False) -> Optional[List[object]]:
        """Gather one column across the view, or ``None`` if unknown.

        With *typed*, a typed buffer is gathered into a typed buffer (the
        aggregate kernels' input) instead of a list of Python values.
        """
        for table, index in self.sources:
            values = table.column(name)
            if values is not None:
                if index is None:
                    return values
                return gather_typed(values, index) if typed else gather_values(values, index)
        return None

    def base_column(self, name: str) -> Optional[List[object]]:
        """The source table's (ungathered) array behind *name*, or ``None``."""
        for table, _ in self.sources:
            values = table.column(name)
            if values is not None:
                return values
        return None

    def column_names(self) -> List[str]:
        names: List[str] = []
        for table, _ in self.sources:
            names.extend(table.columns)
        return names

    def gather_view(self, indices: List[int]) -> "TableView":
        """Select view positions, composing down to base-table indices."""
        sources: List[Tuple[ColumnTable, Optional[List[int]]]] = []
        for table, index in self.sources:
            composed = indices if index is None else [index[i] for i in indices]
            sources.append((table, composed))
        return TableView(sources, len(indices))

    def merge(self, other: "TableView") -> "TableView":
        """Concatenate sources of two equal-length views (join output)."""
        return TableView(self.sources + other.sources, max(self.row_count, other.row_count))

    def materialize(self, names: Optional[Sequence[str]] = None) -> ColumnTable:
        """Gather the named columns (or every column) into a ColumnTable."""
        if names is None:
            names = self.column_names()
        columns: Dict[str, List[object]] = {}
        for name in names:
            values = self.column(name)
            columns[name] = values if values is not None else [None] * self.row_count
        return ColumnTable(columns, self.row_count)
