"""Physical table storage: a columnar store with maintained indexes.

:class:`StoredTable` is what a :class:`~repro.api.database.Database` keeps
per SQL-managed table.  It *is* a
:class:`~repro.engine.vectorized.columns.ColumnTable` (the vectorized engine
scans it zero-copy; the row engine materializes it at the scan) extended with
the table's physical indexes, which every append (``INSERT`` / ``COPY``)
maintains in the same call — a scan can trust an index to be exactly as
fresh as the column arrays it points into.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.common.errors import SchemaError
from repro.engine.vectorized.columns import ColumnTable, Row, copy_column
from repro.relational.schema import Index, Table
from repro.storage.buffers import column_kinds
from repro.storage.indexes import PhysicalIndex, build_index, select_index


class StoredTable(ColumnTable):
    """A stored base table: column arrays plus maintained physical indexes."""

    __slots__ = ("indexes", "sealed")

    def __init__(
        self,
        columns: Dict[str, List[object]],
        row_count: Optional[int] = None,
    ) -> None:
        super().__init__(columns, row_count)
        #: index name → physical structure (each carries its schema ``meta``).
        self.indexes: Dict[str, PhysicalIndex] = {}
        #: set by :meth:`seal`; a sealed table refuses appends.
        self.sealed = False

    # -- construction ----------------------------------------------------

    @classmethod
    def from_column_table(cls, table: ColumnTable) -> "StoredTable":
        """Adopt an existing columnar table's arrays (no copying)."""
        return cls(table.columns, table.row_count)

    @classmethod
    def for_table(cls, table: Table) -> "StoredTable":
        """An empty store typed from the schema: INTEGER/DATE columns get
        int64 buffers, FLOAT columns float64 buffers, the rest plain lists
        (see :mod:`repro.storage.buffers`)."""
        names = table.column_names
        kinds = column_kinds(names, [column.data_type for column in table.columns])
        return cls.with_columns(names, kinds=kinds)

    def copy_for_write(self) -> "StoredTable":
        """An independent, mutable copy: column arrays and indexes cloned.

        This is the write side of copy-on-write versioning
        (:class:`repro.storage.versioning.VersionedTable`): a writer mutates
        the copy and publishes it as a new version, so every reader holding
        the original keeps a table whose arrays and indexes never change
        underneath it.  Typed buffers stay typed buffers across the copy —
        COW must never silently demote a column's representation.
        """
        copied = StoredTable(
            {name: copy_column(values) for name, values in self.columns.items()},
            self.row_count,
        )
        copied.indexes = {name: index.clone() for name, index in self.indexes.items()}
        return copied

    # -- index maintenance ------------------------------------------------

    def create_index(self, meta: Index) -> PhysicalIndex:
        """Build (and register) the physical index described by *meta*.

        A unique index refuses to build over existing duplicate (non-NULL)
        keys — the constraint must hold from the moment the index exists.
        """
        if meta.name in self.indexes:
            raise SchemaError(f"index {meta.name!r} already built on {meta.table!r}")
        values = self.columns.get(meta.column)
        if values is None:
            raise SchemaError(
                f"cannot index {meta.table}.{meta.column}: column not stored"
            )
        if meta.unique:
            present = [value for value in values if value is not None]
            if len(set(present)) != len(present):
                raise SchemaError(
                    f"cannot create unique index {meta.name!r}: column "
                    f"{meta.table}.{meta.column} contains duplicate values"
                )
        index = build_index(meta, values)
        self.indexes[meta.name] = index
        return index

    def drop_index(self, name: str) -> bool:
        """Forget the named physical index; True if it existed."""
        return self.indexes.pop(name, None) is not None

    def seal(self) -> None:
        """Make this table read-only, ready to be published.

        Every index runs its deferred maintenance (the ordered indexes' lazy
        sort) and freezes its row-id containers; list-backed columns become
        tuples.  Typed buffers stay the mutable buffers they are, so the
        table is marked :attr:`sealed` and :meth:`append_rows` refuses up
        front, before any column changes.  The versioned store calls this
        under the table write lock before publishing a version, so a
        published snapshot never mutates itself under concurrent readers,
        and holds its data in containers CPython's cyclic GC does not
        traverse (tuples of atomic values are untracked, typed buffers hold
        no Python objects), so a loaded table adds little to a full
        collection.  Writers are unaffected: :meth:`copy_for_write`
        copies into fresh lists and an unsealed table.
        """
        self.freeze()
        for index in self.indexes.values():
            index.seal()
        self.sealed = True

    def index(self, name: str) -> Optional[PhysicalIndex]:
        return self.indexes.get(name)

    def usable_index(self, column: str, shape: str) -> Optional[PhysicalIndex]:
        """The physical index serving *shape* lookups on *column*, if any.

        Uses the same preference rule as the catalog
        (:func:`repro.storage.indexes.select_index`), so the optimizer's
        chosen access path and the engines' physical lookup always agree.
        """
        metas = [index.meta for index in self.indexes.values() if index.meta.column == column]
        chosen = select_index(metas, shape)
        return self.indexes[chosen.name] if chosen is not None else None

    # -- mutation ---------------------------------------------------------

    def append_rows(self, rows: Sequence[Row]) -> int:
        """Append row dicts, maintaining every index in the same call.

        Unique indexes are checked *before* any column mutates, so a
        violation leaves the table (and every index) untouched; so does
        appending to a :meth:`sealed <seal>` table, which raises TypeError.
        """
        if self.sealed:
            raise TypeError(
                "cannot append to a sealed (published) table; append to a "
                "copy_for_write() copy instead"
            )
        self._check_unique(rows)
        start = self.row_count
        added = super().append_rows(rows)
        for index in self.indexes.values():
            index.insert_values(self.columns[index.meta.column][start:], start)
        return added

    def _check_unique(self, rows: Sequence[Row]) -> None:
        """Reject appends whose non-NULL keys collide on a unique index."""
        for index in self.indexes.values():
            meta = index.meta
            if not meta.unique:
                continue
            seen = set()
            for row in rows:
                value = row.get(meta.column)
                if value is None:
                    continue  # NULLs never collide (SQL unique semantics)
                if value in seen or index.lookup(value):
                    raise SchemaError(
                        f"unique index {meta.name!r} on "
                        f"{meta.table}.{meta.column} violated by duplicate "
                        f"value {value!r}"
                    )
                seen.add(value)
