"""StoredTable: index maintenance under appends, lookup preference rules."""

import pytest

from repro.common.errors import SchemaError
from repro.engine.vectorized.columns import ColumnTable
from repro.relational.schema import Index
from repro.storage.table import StoredTable


def make_table():
    table = StoredTable.with_columns(["k", "v"])
    table.append_rows([{"k": 1, "v": 10}, {"k": 2, "v": 20}])
    return table


class TestIndexLifecycle:
    def test_create_index_builds_from_existing_rows(self):
        table = make_table()
        index = table.create_index(Index("idx_k", "t", "k"))
        assert list(index.lookup(2)) == [1]
        assert table.index("idx_k") is index

    def test_append_maintains_every_index(self):
        table = make_table()
        ordered = table.create_index(Index("idx_k", "t", "k"))
        hashed = table.create_index(Index("idx_v", "t", "v", kind="hash"))
        table.append_rows([{"k": 0, "v": 20}, {"k": 3, "v": None}])
        assert list(ordered.range(0, True, 1, True)) == [2, 0]
        assert list(hashed.lookup(20)) == [1, 2]
        assert hashed.null_count == 1
        assert table.row_count == 4

    def test_drop_index(self):
        table = make_table()
        table.create_index(Index("idx_k", "t", "k"))
        assert table.drop_index("idx_k") is True
        assert table.index("idx_k") is None
        assert table.drop_index("idx_k") is False

    def test_duplicate_or_unknown_column_rejected(self):
        table = make_table()
        table.create_index(Index("idx_k", "t", "k"))
        with pytest.raises(SchemaError):
            table.create_index(Index("idx_k", "t", "k"))
        with pytest.raises(SchemaError):
            table.create_index(Index("idx_zz", "t", "zz"))


class TestUsableIndex:
    def test_kind_preference_matches_catalog_rule(self):
        table = make_table()
        ordered = table.create_index(Index("idx_k_ord", "t", "k"))
        hashed = table.create_index(Index("idx_k_hash", "t", "k", kind="hash"))
        assert table.usable_index("k", "point") is hashed
        assert table.usable_index("k", "range") is ordered
        assert table.usable_index("k", "sorted") is ordered
        assert table.usable_index("v", "point") is None

    def test_hash_only_column_has_no_range_path(self):
        table = make_table()
        table.create_index(Index("idx_v", "t", "v", kind="hash"))
        assert table.usable_index("v", "point") is not None
        assert table.usable_index("v", "range") is None


class TestAdoption:
    def test_from_column_table_shares_arrays(self):
        source = ColumnTable.from_rows([{"k": 1}, {"k": 2}])
        adopted = StoredTable.from_column_table(source)
        assert adopted.columns["k"] is source.columns["k"]
        assert adopted.row_count == 2
        adopted.create_index(Index("idx_k", "t", "k"))
        assert list(adopted.index("idx_k").lookup(1)) == [0]


class TestUniqueEnforcement:
    def test_unique_index_rejects_duplicate_appends(self):
        table = make_table()
        table.create_index(Index("idx_k", "t", "k", unique=True))
        with pytest.raises(SchemaError, match="unique index 'idx_k'"):
            table.append_rows([{"k": 1, "v": 99}])
        # the failed append left nothing behind
        assert table.row_count == 2
        assert list(table.index("idx_k").lookup(1)) == [0]

    def test_unique_index_rejects_in_batch_duplicates(self):
        table = make_table()
        table.create_index(Index("idx_k", "t", "k", unique=True))
        with pytest.raises(SchemaError, match="duplicate value 7"):
            table.append_rows([{"k": 7, "v": 1}, {"k": 7, "v": 2}])
        assert table.row_count == 2

    def test_unique_index_allows_nulls(self):
        table = make_table()
        table.create_index(Index("idx_k", "t", "k", unique=True))
        table.append_rows([{"k": None, "v": 1}, {"k": None, "v": 2}])
        assert table.row_count == 4

    def test_unique_build_over_duplicates_rejected(self):
        table = make_table()
        table.append_rows([{"k": 1, "v": 30}])  # duplicates k=1
        with pytest.raises(SchemaError, match="duplicate values"):
            table.create_index(Index("idx_k", "t", "k", unique=True))
        assert table.index("idx_k") is None
