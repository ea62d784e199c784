"""Physical secondary indexes: hash and ordered.

Both structures map **column values to row ids** (positions in the owning
table's column arrays) and are maintained incrementally as rows are appended
(`INSERT` / `COPY`):

* :class:`HashIndex` — a bucketed dict.  O(1) point lookups and equality
  join probes; it cannot serve ranges or deliver sorted order.
* :class:`OrderedIndex` — parallel sorted ``(key, row_id)`` arrays.  Bisect
  point and range lookups (``<, <=, >, >=, BETWEEN``) in O(log n + k), plus
  ordered iteration that yields row ids in key order without sorting.

NULL handling mirrors the execution engines' semantics rather than strict
SQL: scan predicates never match NULL (a comparison with NULL is not TRUE,
so :meth:`lookup`/:meth:`range` callers resolve NULL probe values to an
empty result *before* touching the index), but the engines' hash joins do
match a NULL probe key against NULL build keys, so both indexes keep the
row ids of NULL values in a side list that :meth:`lookup` returns for a
``None`` probe — an indexed nested-loop join then behaves exactly like the
hash join it replaces.  :attr:`entry_count` counts non-NULL entries.

Appends are O(1) amortized: the ordered index buffers new pairs and re-sorts
lazily on the next lookup (timsort over a mostly-sorted array is linear).
Under the versioned store (:mod:`repro.storage.versioning`) every index is
*sealed* before a version is published — :meth:`StoredTable.seal
<repro.storage.table.StoredTable.seal>` runs under the table write lock —
which forces that sort and turns buckets and arrays into tuples, so
published snapshots never re-sort, cannot be appended to, and keep their
row ids out of the cyclic GC's walk; the per-index sort lock below only
matters for unversioned (draft/legacy) tables.  Lookups therefore return a
read-only sequence of row ids (a tuple once sealed), never a list to mutate.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Union

from repro.relational.schema import Index

#: Index kinds a physical structure can implement.
HASH = "hash"
ORDERED = "ordered"
INDEX_KINDS = (HASH, ORDERED)


class HashIndex:
    """Value → row-id buckets; point lookups and equality join probes only."""

    kind = HASH

    __slots__ = ("meta", "_buckets", "_null_row_ids")

    def __init__(self, meta: Index) -> None:
        self.meta = meta
        self._buckets: Dict[object, List[int]] = {}
        self._null_row_ids: List[int] = []

    # -- maintenance -----------------------------------------------------

    def insert_values(self, values: Sequence[object], start_row_id: int) -> None:
        """Index ``values[i]`` as row id ``start_row_id + i``."""
        buckets = self._buckets
        for offset, value in enumerate(values):
            if value is None:
                self._null_row_ids.append(start_row_id + offset)
            else:
                bucket = buckets.get(value)
                if bucket is None:
                    buckets[value] = [start_row_id + offset]
                else:
                    bucket.append(start_row_id + offset)

    def clone(self) -> "HashIndex":
        """An independent copy (bucket lists included) for copy-on-write
        publication: appends to the clone never reach this index."""
        copied = HashIndex(self.meta)
        copied._buckets = {value: list(bucket) for value, bucket in self._buckets.items()}
        copied._null_row_ids = list(self._null_row_ids)
        return copied

    def seal(self) -> None:
        """Freeze the buckets and the NULL row ids into tuples (a hash index
        has no deferred work; it is always lookup-ready)."""
        self._buckets = {value: tuple(bucket) for value, bucket in self._buckets.items()}
        self._null_row_ids = tuple(self._null_row_ids)

    # -- lookups ---------------------------------------------------------

    def lookup(self, value: object) -> Sequence[int]:
        """Row ids whose key equals *value*, in row-id (stored) order.

        A ``None`` probe returns the NULL rows — the join-probe semantics of
        the engines' hash joins; scan predicates resolve NULL probes to an
        empty result before calling the index.
        """
        if value is None:
            return self._null_row_ids
        return self._buckets.get(value, ())

    @property
    def supports_range(self) -> bool:
        return False

    @property
    def entry_count(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    @property
    def null_count(self) -> int:
        return len(self._null_row_ids)


class OrderedIndex:
    """Sorted ``(key, row_id)`` arrays with bisect point/range lookups."""

    kind = ORDERED

    __slots__ = ("meta", "_keys", "_row_ids", "_null_row_ids", "_sorted_until", "_sort_lock")

    def __init__(self, meta: Index) -> None:
        self.meta = meta
        self._keys: List[object] = []
        self._row_ids: List[int] = []
        self._null_row_ids: List[int] = []
        #: prefix length of ``_keys`` known to be sorted; appends extend the
        #: arrays and lookups re-sort lazily (timsort: linear when almost
        #: sorted), so bulk loads do not pay per-row insertion costs.
        self._sorted_until = 0
        #: serializes the lazy sort so two threads sharing an unsealed index
        #: can never zip new keys with old row ids (the versioned store seals
        #: before publishing, so this lock is a backstop, not the hot path).
        self._sort_lock = threading.Lock()

    # -- maintenance -----------------------------------------------------

    def insert_values(self, values: Sequence[object], start_row_id: int) -> None:
        for offset, value in enumerate(values):
            if value is None:
                self._null_row_ids.append(start_row_id + offset)
            else:
                self._keys.append(value)
                self._row_ids.append(start_row_id + offset)

    def clone(self) -> "OrderedIndex":
        """An independent copy for copy-on-write publication.

        The clone shares nothing mutable with the original; the sorted-prefix
        watermark carries over so a clone of a sorted index stays sorted.
        The copy happens under the sort lock so a clone can never pair one
        side of an in-flight re-sort with the other.
        """
        copied = OrderedIndex(self.meta)
        with self._sort_lock:
            copied._keys = list(self._keys)
            copied._row_ids = list(self._row_ids)
            copied._null_row_ids = list(self._null_row_ids)
            copied._sorted_until = self._sorted_until
        return copied

    def seal(self) -> None:
        """Force the deferred sort now and freeze the arrays into tuples (the
        versioned store calls this under the table write lock before
        publishing, so readers of a published snapshot never trigger — or
        race — a lazy sort)."""
        keys, row_ids = self._sorted_arrays()
        self._keys, self._row_ids = tuple(keys), tuple(row_ids)
        self._null_row_ids = tuple(self._null_row_ids)

    def _sorted_arrays(self) -> "tuple[Sequence[object], Sequence[int]]":
        """The sorted ``(keys, row_ids)`` pair, consistent as a pair.

        Readers must use the returned lists, never re-read the attributes:
        the swap below replaces both lists, and only the returned pair is
        guaranteed to be two halves of the same sort.  ``_sorted_until`` is
        assigned last, so the lock-free fast path can only observe it equal
        to ``len(_keys)`` after both new lists are in place.
        """
        if self._sorted_until == len(self._keys):
            return self._keys, self._row_ids
        with self._sort_lock:
            if self._sorted_until != len(self._keys):
                pairs = sorted(zip(self._keys, self._row_ids))
                keys = [key for key, _ in pairs]
                row_ids = [row_id for _, row_id in pairs]
                self._keys = keys
                self._row_ids = row_ids
                self._sorted_until = len(keys)
            return self._keys, self._row_ids

    # -- lookups ---------------------------------------------------------

    def lookup(self, value: object) -> Sequence[int]:
        """Row ids whose key equals *value* (row-id order within the run)."""
        if value is None:
            return self._null_row_ids
        keys, row_ids = self._sorted_arrays()
        low = bisect_left(keys, value)
        high = bisect_right(keys, value)
        return row_ids[low:high]

    def range(
        self,
        low: Optional[object],
        low_inclusive: bool,
        high: Optional[object],
        high_inclusive: bool,
    ) -> Sequence[int]:
        """Row ids with ``low < / <= key < / <= high``, in key order.

        ``None`` on either side leaves that side unbounded (the caller maps a
        NULL *bound* to an empty result before reaching the index).  Row ids
        of equal keys come back in row-id order — the sort key is the
        ``(key, row_id)`` pair.
        """
        keys, row_ids = self._sorted_arrays()
        start = 0
        if low is not None:
            bisect = bisect_left if low_inclusive else bisect_right
            start = bisect(keys, low)
        end = len(keys)
        if high is not None:
            bisect = bisect_right if high_inclusive else bisect_left
            end = bisect(keys, high)
        return row_ids[start:end]

    def ordered_row_ids(self, nulls_last: bool = True) -> List[int]:
        """Every row id in key order; NULL rows appended last (engine sort
        semantics) or prepended when ``nulls_last`` is False."""
        _, row_ids = self._sorted_arrays()
        if nulls_last:
            return [*row_ids, *self._null_row_ids]
        return [*self._null_row_ids, *row_ids]

    @property
    def supports_range(self) -> bool:
        return True

    @property
    def entry_count(self) -> int:
        return len(self._keys)

    @property
    def null_count(self) -> int:
        return len(self._null_row_ids)


def build_index(meta: Index, values: Sequence[object]) -> "PhysicalIndex":
    """Construct the physical structure matching ``meta.kind`` over *values*."""
    if meta.kind == HASH:
        index: PhysicalIndex = HashIndex(meta)
    elif meta.kind == ORDERED:
        index = OrderedIndex(meta)
    else:  # pragma: no cover - Index.__post_init__ validates kinds
        raise ValueError(f"unknown index kind {meta.kind!r}")
    index.insert_values(values, 0)
    return index


def select_index(candidates: Sequence[Index], shape: str) -> Optional[Index]:
    """The preferred index for an access-path *shape* among *candidates*.

    ``shape`` is ``"point"`` (equality lookup or join probe: any kind, hash
    preferred), ``"range"`` (ordered only) or ``"sorted"`` (ordered only —
    key-order delivery).  Ties break on the index name so the optimizer and
    both execution engines always agree on the chosen index.
    """
    if shape == "point":
        usable = sorted(candidates, key=lambda index: (index.kind != HASH, index.name))
    elif shape in ("range", "sorted"):
        usable = sorted(
            (index for index in candidates if index.kind == ORDERED),
            key=lambda index: index.name,
        )
    else:
        raise ValueError(f"unknown access-path shape {shape!r}")
    return usable[0] if usable else None


#: Either physical structure; they share the maintenance/lookup surface.
PhysicalIndex = Union[HashIndex, OrderedIndex]
