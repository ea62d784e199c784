"""Copy-on-write versioned table snapshots."""

import threading

import pytest

from repro.common.errors import SchemaError
from repro.relational.schema import Index
from repro.storage.indexes import OrderedIndex
from repro.storage.table import StoredTable
from repro.storage.versioning import TableVersion, VersionedTable


def make_versioned(rows=None):
    table = StoredTable.with_columns(["a", "b"])
    if rows:
        table.append_rows(rows)
    return VersionedTable(table)


class TestSnapshots:
    def test_fresh_table_is_version_zero(self):
        versioned = make_versioned()
        assert versioned.version == 0
        assert versioned.row_count == 0

    def test_append_publishes_new_version(self):
        versioned = make_versioned()
        versioned.append_rows([{"a": 1, "b": 2}])
        assert versioned.version == 1
        assert versioned.row_count == 1

    def test_snapshot_is_frozen_across_appends(self):
        versioned = make_versioned([{"a": 1, "b": 2}])
        before = versioned.snapshot()
        versioned.append_rows([{"a": 3, "b": 4}])
        assert before.row_count == 1
        assert versioned.snapshot().row_count == 2
        assert versioned.snapshot() is not before

    def test_version_increments_once_per_batch(self):
        versioned = make_versioned()
        for batch in range(5):
            versioned.append_rows([{"a": batch, "b": 0}, {"a": batch + 100, "b": 1}])
        assert versioned.version == 5
        assert versioned.row_count == 10

    def test_current_pairs_version_and_table(self):
        versioned = make_versioned([{"a": 1, "b": 2}])
        current = versioned.current
        assert isinstance(current, TableVersion)
        assert current.version == versioned.version
        assert current.table.row_count == 1


class TestIndexVersioning:
    def index(self, column="a", kind="hash", unique=False, name=None):
        return Index(
            name=name or f"idx_t_{column}",
            table="t",
            column=column,
            kind=kind,
            unique=unique,
        )

    def test_create_index_publishes_new_version(self):
        versioned = make_versioned([{"a": 1, "b": 2}])
        before = versioned.snapshot()
        versioned.create_index(self.index())
        assert versioned.version == 1
        assert "idx_t_a" in versioned.snapshot().indexes
        assert "idx_t_a" not in before.indexes

    def test_indexes_cloned_not_shared_across_versions(self):
        versioned = make_versioned([{"a": 1, "b": 2}])
        versioned.create_index(self.index())
        old_index = versioned.snapshot().indexes["idx_t_a"]
        versioned.append_rows([{"a": 7, "b": 8}])
        new_index = versioned.snapshot().indexes["idx_t_a"]
        assert new_index is not old_index
        assert old_index.entry_count == 1
        assert new_index.entry_count == 2
        assert list(new_index.lookup(7)) == [1]

    def test_failed_unique_append_publishes_nothing(self):
        versioned = make_versioned([{"a": 1, "b": 2}])
        versioned.create_index(self.index(unique=True, kind="ordered"))
        version_before = versioned.version
        with pytest.raises(SchemaError):
            versioned.append_rows([{"a": 1, "b": 9}])
        assert versioned.version == version_before
        assert versioned.row_count == 1
        assert versioned.snapshot().indexes["idx_t_a"].entry_count == 1

    def test_drop_index_missing_publishes_nothing(self):
        versioned = make_versioned()
        assert versioned.drop_index("nope") is False
        assert versioned.version == 0

    def test_drop_index_publishes_and_keeps_old_snapshot(self):
        versioned = make_versioned([{"a": 1, "b": 2}])
        versioned.create_index(self.index())
        before = versioned.snapshot()
        assert versioned.drop_index("idx_t_a") is True
        assert "idx_t_a" in before.indexes
        assert "idx_t_a" not in versioned.snapshot().indexes


class TestPublishedSnapshotsAreSealed:
    """Published versions must never mutate themselves lazily.

    An :class:`OrderedIndex` defers its sort until the first lookup; if a
    published snapshot still carried an unsorted tail, two concurrent reader
    lookups could race that lazy sort and pair newly-sorted keys with stale
    row ids.  :meth:`VersionedTable._publish` therefore seals the table
    (forces the sort, freezes columns and index containers into tuples)
    under the write lock, before the version becomes visible.
    """

    def ordered_meta(self):
        return Index(name="idx_t_a", table="t", column="a", kind="ordered")

    def sealed(self, index):
        return index._sorted_until == len(index._keys)

    def test_append_publishes_fully_sorted_ordered_index(self):
        versioned = make_versioned([{"a": 5, "b": 0}])
        versioned.create_index(self.ordered_meta())
        # Appends extend the arrays out of order; publication must sort.
        versioned.append_rows([{"a": 3, "b": 0}, {"a": 9, "b": 0}, {"a": 1, "b": 0}])
        index = versioned.snapshot().indexes["idx_t_a"]
        assert self.sealed(index)
        assert list(index._keys) == sorted(index._keys)

    def test_adopted_table_is_sealed_on_wrap(self):
        table = StoredTable.with_columns(["a", "b"])
        table.create_index(self.ordered_meta())
        table.append_rows([{"a": 4, "b": 0}, {"a": 2, "b": 0}])  # unsorted tail
        versioned = VersionedTable(table)
        assert self.sealed(versioned.snapshot().indexes["idx_t_a"])

    def test_published_columns_and_indexes_are_tuples(self):
        versioned = make_versioned([{"a": 5, "b": "x"}, {"a": None, "b": "y"}])
        versioned.create_index(Index(name="idx_t_b", table="t", column="b", kind="hash"))
        versioned.create_index(self.ordered_meta())
        snapshot = versioned.snapshot()
        assert snapshot.columns == {"a": (5, None), "b": ("x", "y")}
        hashed, ordered = snapshot.indexes["idx_t_b"], snapshot.indexes["idx_t_a"]
        assert hashed._buckets == {"x": (0,), "y": (1,)} and hashed._null_row_ids == ()
        assert (ordered._keys, ordered._row_ids, ordered._null_row_ids) == ((5,), (0,), (1,))

    def test_writers_never_touch_the_published_version(self):
        versioned = make_versioned([{"a": 1, "b": 2}])
        versioned.create_index(Index(name="idx_t_h", table="t", column="a", kind="hash"))
        before = versioned.snapshot()
        columns = dict(before.columns)
        buckets = dict(before.indexes["idx_t_h"]._buckets)
        versioned.append_rows([{"a": 1, "b": 3}])
        versioned.create_index(self.ordered_meta())
        versioned.drop_index("idx_t_h")
        assert all(before.columns[name] is values for name, values in columns.items())
        assert before.columns == {"a": (1,), "b": (2,)}
        assert before.indexes["idx_t_h"]._buckets == buckets == {1: (0,)}
        assert list(versioned.snapshot().indexes["idx_t_a"].lookup(1)) == [0, 1]
        with pytest.raises(TypeError):
            before.append_rows([{"a": 9, "b": 9}])  # a sealed version cannot grow
        assert before.row_count == 1

    @pytest.mark.parametrize("names", [["n", "x", "s"], ["n", "x"]])
    def test_sealed_typed_columns_refuse_appends_up_front(self, names):
        """Typed buffers stay mutable arrays after sealing, so the refusal
        must come before any column is extended — with typed columns ahead
        of a TEXT column, and with no TEXT column at all."""
        kinds = {"n": "int", "x": "float"}
        table = StoredTable.with_columns(names, kinds=kinds)
        table.append_rows([{"n": 1, "x": 1.5, "s": "a"}])
        versioned = VersionedTable(table)
        versioned.create_index(Index(name="idx_t_n", table="t", column="n", kind="hash"))
        published = versioned.snapshot()
        before = {name: list(published.columns[name]) for name in names}
        with pytest.raises(TypeError):
            published.append_rows([{"n": 2, "x": 2.5, "s": "b"}])
        assert {name: list(published.columns[name]) for name in names} == before
        assert published.row_count == 1
        versioned.append_rows([{"n": 2, "x": 2.5, "s": "b"}])  # writers still can
        assert list(versioned.snapshot().columns["n"]) == [1, 2]
        assert list(published.columns["n"]) == [1]

    def test_concurrent_lookups_on_unsealed_index_stay_consistent(self):
        """The sort-lock backstop: racing lazy sorts never mix key/row-id halves."""
        errors = []
        for _ in range(20):
            index = OrderedIndex(self.ordered_meta())
            # Deliberately unsorted, unsealed: row id i holds key 999 - i.
            index.insert_values([999 - i for i in range(1000)], 0)
            start = threading.Barrier(8)

            def prober():
                try:
                    start.wait()
                    for key in (0, 250, 500, 750, 999):
                        assert list(index.lookup(key)) == [999 - key], key
                except Exception as error:  # noqa: BLE001
                    errors.append(error)

            threads = [threading.Thread(target=prober) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors, errors[:3]
