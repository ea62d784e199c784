"""The catalog: schema plus statistics plus physical metadata.

The catalog is the single source of metadata for every optimizer in the
library (declarative, Volcano-style, System-R-style), mirroring the paper's
shared histogram / cost-estimation components.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence

from repro.common.errors import CatalogError
from repro.catalog.statistics import ColumnStats, TableStats
from repro.relational.schema import Index, Schema, Table


class Catalog:
    """Schema + statistics + index metadata for one database instance.

    Two invalidation granularities feed the plan cache:

    * ``version`` increments on every **schema** mutation (DDL — create
      table, create/drop index).  Schema shape can change how *any* statement
      binds or which access paths exist, so a DDL bump invalidates every
      cached plan.
    * per-table **statistics versions** (:meth:`table_version`) increment on
      statistics-only changes — appends adjusting a row count, ``ANALYZE``
      rebuilding histograms.  Cached plans are stamped with the versions of
      just the tables they reference, so a busy writer appending to one table
      does not flush every other statement's cached plan.  Under the serving
      tier that distinction is load-bearing: without it, any client's INSERT
      would invalidate the whole shared cross-connection plan cache.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._stats: Dict[str, TableStats] = {}
        self.version = 0
        self._table_versions: Dict[str, int] = {}

    def table_version(self, table: str) -> int:
        """The statistics version of one table (0 until first mutation)."""
        return self._table_versions.get(table, 0)

    def _bump_table(self, table: str) -> None:
        self._table_versions[table] = self._table_versions.get(table, 0) + 1

    # -- schema mutation (DDL) --------------------------------------------

    def create_table(self, table: Table, indexes: Sequence[Index] = ()) -> None:
        """Register a new table (and its indexes) created through DDL."""
        self.schema.add_table(table)
        for index in indexes:
            self.schema.add_index(index)
        # A created table starts empty; give it zero-row statistics so the
        # optimizer can plan against it before any ANALYZE.
        self._stats[table.name] = TableStats(row_count=0.0)
        self.version += 1

    def create_index(self, index: Index) -> Index:
        """Register a standalone ``CREATE INDEX``; bumps the catalog version
        so plans cached against the old access paths invalidate."""
        self.schema.add_index(index)
        self.version += 1
        return index

    def drop_index(self, name: str) -> Index:
        """Remove an index (``DROP INDEX``); bumps the catalog version."""
        index = self.schema.drop_index(name)
        self.version += 1
        return index

    # -- statistics maintenance -------------------------------------------

    def analyze_table(
        self, table: str, rows: Sequence[Mapping[str, object]]
    ) -> TableStats:
        """(Re)build a table's statistics — row count and histograms — from
        row dicts (pivoted into columns for :meth:`analyze_columns`)."""
        names = self.schema.table(table).column_names
        columns = {name: [row.get(name) for row in rows] for name in names}
        return self.analyze_columns(table, columns, len(rows))

    def analyze_columns(
        self, table: str, columns: Mapping[str, Iterable[object]], row_count: int
    ) -> TableStats:
        """(Re)build a table's statistics from column arrays (name → values)."""
        stats = TableStats.from_columns(
            columns, row_count, column_names=self.schema.table(table).column_names
        )
        self._stats[table] = stats
        self._bump_table(table)
        return stats

    def bump_row_count(self, table: str, added_rows: float) -> float:
        """Incrementally adjust a table's cardinality after appends.

        Statistics-only: bumps the table's own version, not the global one,
        so only cached plans referencing *table* invalidate.
        """
        if table not in self._stats:
            self._stats[table] = TableStats(row_count=0.0)
        stats = self._stats[table]
        stats.row_count = max(0.0, stats.row_count + float(added_rows))
        self._bump_table(table)
        return stats.row_count

    # -- statistics ------------------------------------------------------

    def set_table_stats(self, table: str, stats: TableStats) -> None:
        if not self.schema.has_table(table):
            raise CatalogError(f"cannot attach statistics to unknown table {table!r}")
        self._stats[table] = stats
        self._bump_table(table)

    def table_stats(self, table: str) -> TableStats:
        try:
            return self._stats[table]
        except KeyError:
            raise CatalogError(f"no statistics recorded for table {table!r}") from None

    def has_stats(self, table: str) -> bool:
        return table in self._stats

    def column_stats(self, table: str, column: str) -> ColumnStats:
        return self.table_stats(table).column(column)

    def row_count(self, table: str) -> float:
        return self.table_stats(table).row_count

    def update_row_count(self, table: str, row_count: float) -> None:
        """Overwrite a table's cardinality (used by adaptive feedback)."""
        stats = self.table_stats(table)
        stats.row_count = float(row_count)
        self._bump_table(table)

    # -- physical metadata ------------------------------------------------

    def table(self, name: str) -> Table:
        return self.schema.table(name)

    def index_on(self, table: str, column: str) -> Optional[Index]:
        return self.schema.index_on_column(table, column)

    def usable_index(self, table: str, column: str, shape: str = "point") -> Optional[Index]:
        """The index that can serve a *shape* access on ``table.column``.

        ``shape`` is ``"point"`` (equality/probe — any kind, hash preferred),
        ``"range"`` or ``"sorted"`` (ordered indexes only).  The same
        preference rule drives the physical lookup inside
        :class:`~repro.storage.table.StoredTable`, so planner and engines
        always pick the same index.
        """
        from repro.storage.indexes import select_index

        return select_index(self.schema.indexes_on_column(table, column), shape)

    def indexes_on(self, table: str) -> Sequence[Index]:
        return self.schema.indexes_on(table)

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_data(
        cls,
        schema: Schema,
        data: Mapping[str, Sequence[Mapping[str, object]]],
        bucket_count: int = 16,
    ) -> "Catalog":
        """Build a catalog whose statistics are computed from in-memory rows."""
        catalog = cls(schema)
        for table_name, rows in data.items():
            table = schema.table(table_name)
            catalog.set_table_stats(
                table_name,
                TableStats.from_rows(rows, columns=table.column_names, bucket_count=bucket_count),
            )
        return catalog

    def copy(self) -> "Catalog":
        """A shallow copy sharing column stats but with independent row counts."""
        clone = Catalog(self.schema)
        for table, stats in self._stats.items():
            clone.set_table_stats(
                table, TableStats(row_count=stats.row_count, columns=dict(stats.columns))
            )
        return clone
