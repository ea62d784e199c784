"""Tests for column and table statistics."""

import pytest

import repro
from repro.catalog.statistics import ColumnStats, TableStats
from repro.common.errors import CatalogError


class TestColumnStats:
    def test_from_values(self):
        stats = ColumnStats.from_values([1, 2, 2, 3, 3, 3])
        assert stats.distinct_count == 3
        assert stats.min_value == 1
        assert stats.max_value == 3
        assert stats.histogram is not None

    def test_from_empty_values(self):
        stats = ColumnStats.from_values([])
        assert stats.distinct_count == 0
        assert stats.histogram is None

    def test_validation(self):
        with pytest.raises(CatalogError):
            ColumnStats(distinct_count=-1)
        with pytest.raises(CatalogError):
            ColumnStats(distinct_count=1, null_fraction=2.0)

    def test_scaled(self):
        stats = ColumnStats(distinct_count=100)
        assert stats.scaled(0.5).distinct_count == 50
        assert stats.scaled(0.0).distinct_count == 1.0
        assert stats.scaled(2.0).distinct_count == 100


class TestTableStats:
    def test_negative_row_count_rejected(self):
        with pytest.raises(CatalogError):
            TableStats(row_count=-1)

    def test_column_lookup(self):
        stats = TableStats(10, {"a": ColumnStats(distinct_count=5)})
        assert stats.column("a").distinct_count == 5
        assert stats.has_column("a")
        with pytest.raises(CatalogError):
            stats.column("missing")

    def test_distinct_defaults_to_row_count(self):
        stats = TableStats(42)
        assert stats.distinct("unknown") == 42
        assert stats.distinct("unknown", default=7) == 7

    def test_from_rows_numeric_columns(self):
        rows = [{"a": i, "b": i % 3} for i in range(30)]
        stats = TableStats.from_rows(rows)
        assert stats.row_count == 30
        assert stats.column("a").distinct_count == 30
        assert stats.column("b").distinct_count == 3

    def test_from_rows_non_numeric_column(self):
        rows = [{"name": f"x{i % 4}"} for i in range(20)]
        stats = TableStats.from_rows(rows)
        assert stats.column("name").distinct_count == 4
        assert stats.column("name").histogram is None

    def test_from_rows_empty(self):
        stats = TableStats.from_rows([])
        assert stats.row_count == 0


def _described(stats):
    """TableStats as plain values (histograms compare by their buckets)."""
    return (
        stats.row_count,
        {
            name: (
                column.distinct_count,
                column.min_value,
                column.max_value,
                column.null_fraction,
                None if column.histogram is None else column.histogram.buckets,
            )
            for name, column in stats.columns.items()
        },
    )


class TestFromColumns:
    ROWS = [
        {"i": 3, "x": 1.5, "t": "ash", "m": 2},
        {"i": None, "x": 2, "t": None, "m": "two"},
        {"i": 1, "x": None, "t": "birch", "m": 2.5},
        {"i": 3, "x": -4.25, "t": "ash", "m": None},
        {"i": 7, "x": 2, "t": "cedar", "m": 9},
    ]
    NAMES = ["i", "x", "t", "m", "absent"]

    def test_rows_and_columns_give_identical_stats(self):
        columns = {name: [row.get(name) for row in self.ROWS] for name in self.NAMES[:-1]}
        from_rows = TableStats.from_rows(self.ROWS, columns=self.NAMES, bucket_count=3)
        from_columns = TableStats.from_columns(
            columns, len(self.ROWS), column_names=self.NAMES, bucket_count=3
        )
        assert _described(from_columns) == _described(from_rows)
        assert from_columns.column("t").histogram is None
        assert from_columns.column("absent").distinct_count == 1.0
        assert from_columns.column("m").min_value == 2  # mixed int/float/TEXT

    def test_empty_table(self):
        empty = TableStats.from_columns({"i": []}, 0)
        assert _described(empty) == _described(TableStats.from_rows([], columns=["i"]))
        assert empty.row_count == 0.0 and empty.columns == {}

    def test_analyze_reads_the_stored_columns(self):
        connection = repro.connect()
        connection.execute("CREATE TABLE s (i INTEGER, t STRING)")
        connection.execute("INSERT INTO s VALUES (1, 'a'), (NULL, 'b'), (3, NULL)")
        connection.execute("ANALYZE s")
        database = connection.database
        expected = TableStats.from_rows(database.store["s"].to_rows(), columns=["i", "t"])
        assert _described(database.catalog.table_stats("s")) == _described(expected)
