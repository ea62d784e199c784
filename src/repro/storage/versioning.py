"""Snapshot concurrency control for stored tables.

The serving tier (:mod:`repro.server`) runs many statements on worker
threads over one :class:`~repro.api.database.Database`.  A bare
:class:`~repro.storage.table.StoredTable` cannot be shared that way: an
``INSERT`` extends the column lists one column at a time and then patches
the indexes, so a concurrent scan could observe a half-applied batch (column
``a`` longer than column ``b``) or an index pointing at rows the snapshot
should not see.

:class:`VersionedTable` fixes this with **copy-on-write versioned
snapshots**:

* a **reader** calls :meth:`snapshot` (or :meth:`current` for the version
  number too) and receives a *sealed* :class:`StoredTable` (tuple columns,
  tuple index buckets: see :meth:`StoredTable.seal`) — one atomic
  attribute read, no lock.  Every statement resolves its snapshots once up
  front (:meth:`Database._snapshot_store`), so the whole statement sees one
  consistent table + index version even while writers keep publishing;
* a **writer** (``INSERT`` / ``COPY`` / index DDL) takes the per-table
  :attr:`write lock <write_lock>`, copies the current version's column lists
  and clones its indexes (:meth:`StoredTable.copy_for_write`), applies the
  mutation to the copy — unique-constraint checks included, so a failed
  append publishes nothing — and swaps in a new :class:`TableVersion` with a
  bumped version number.  Publication is a single reference assignment:
  readers either see the whole batch or none of it.

Writes pay O(table) copying per *batch* (not per row); the serving workloads
this tier targets are read-mostly, and bulk loads amortize the copy over the
whole batch.  Readers pay nothing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Sequence

from repro.engine.vectorized.columns import Row
from repro.relational.schema import Index
from repro.storage.table import StoredTable


@dataclass(frozen=True)
class TableVersion:
    """One published, immutable version of a stored table.

    ``version`` starts at 0 for the freshly created table and increments by
    exactly one per published write batch (append or index DDL), so tests can
    use it as a serial oracle: the row count of version *v* equals the sum of
    the first *v* batch sizes.
    """

    version: int
    table: StoredTable


class VersionedTable:
    """A copy-on-write container publishing immutable StoredTable versions."""

    __slots__ = ("write_lock", "_current")

    def __init__(self, table: StoredTable, version: int = 0) -> None:
        #: serializes writers on this table; readers never take it.
        self.write_lock = threading.Lock()
        # Adopted tables may carry list columns and indexes with deferred
        # sorts; seal before the first snapshot is handed out (see _publish).
        table.seal()
        self._current = TableVersion(version, table)

    # -- reader side ------------------------------------------------------

    @property
    def current(self) -> TableVersion:
        """The latest published version (atomic reference read)."""
        return self._current

    def snapshot(self) -> StoredTable:
        """The latest published table; immutable once handed out."""
        return self._current.table

    @property
    def version(self) -> int:
        return self._current.version

    @property
    def row_count(self) -> int:
        return self._current.table.row_count

    # -- writer side -------------------------------------------------------

    def append_rows(self, rows: Sequence[Row]) -> int:
        """Append one batch copy-on-write; publish atomically.

        The unique-index check runs on the copy before publication, so a
        constraint violation leaves the published version untouched.
        """
        with self.write_lock:
            draft = self._current.table.copy_for_write()
            added = draft.append_rows(rows)
            self._publish(draft)
            return added

    def create_index(self, meta: Index) -> None:
        """Build an index on a fresh copy and publish it as a new version."""
        with self.write_lock:
            draft = self._current.table.copy_for_write()
            draft.create_index(meta)
            self._publish(draft)

    def drop_index(self, name: str) -> bool:
        with self.write_lock:
            draft = self._current.table.copy_for_write()
            dropped = draft.drop_index(name)
            if dropped:
                self._publish(draft)
            return dropped

    def _publish(self, table: StoredTable) -> None:
        # Seal first (still under the write lock): an ordered index's lazy
        # sort must never run on a published version, where two racing
        # readers could pair half-swapped key/row-id arrays.  Sealing turns
        # list columns and index buckets into tuples, so published
        # snapshots are immutable for real, not just by convention.
        table.seal()
        # Single reference assignment — the only mutation readers can race
        # with, and one the GIL (and any sane memory model) makes atomic.
        self._current = TableVersion(self._current.version + 1, table)

    # -- conveniences ------------------------------------------------------

    @classmethod
    def with_columns(cls, names: Sequence[str]) -> "VersionedTable":
        return cls(StoredTable.with_columns(names))

    def to_rows(self) -> List[Row]:
        return self.snapshot().to_rows()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        current = self._current
        return (
            f"VersionedTable(version={current.version}, "
            f"rows={current.table.row_count}, "
            f"indexes={sorted(current.table.indexes)})"
        )
