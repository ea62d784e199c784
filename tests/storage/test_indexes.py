"""Unit tests for the physical index structures."""

import pytest

from repro.common.errors import SchemaError
from repro.relational.schema import Index
from repro.storage.indexes import HashIndex, OrderedIndex, build_index, select_index


def meta(kind="ordered", name="idx", column="c"):
    return Index(name, "t", column, kind=kind)


class TestHashIndex:
    def test_point_lookup_row_id_order(self):
        index = HashIndex(meta("hash"))
        index.insert_values([5, 3, 5, None, 3, 5], 0)
        assert list(index.lookup(5)) == [0, 2, 5]
        assert list(index.lookup(3)) == [1, 4]
        assert list(index.lookup(99)) == []

    def test_null_probe_matches_null_rows(self):
        """Join-probe semantics: a NULL probe key matches NULL build keys,
        exactly like the engines' hash joins."""
        index = HashIndex(meta("hash"))
        index.insert_values([1, None, 2, None], 0)
        assert list(index.lookup(None)) == [1, 3]

    def test_incremental_insert_offsets(self):
        index = HashIndex(meta("hash"))
        index.insert_values([1, 2], 0)
        index.insert_values([2, 1], 2)
        assert list(index.lookup(1)) == [0, 3]
        assert list(index.lookup(2)) == [1, 2]

    def test_entry_and_null_counts(self):
        index = HashIndex(meta("hash"))
        index.insert_values([1, None, 1], 0)
        assert index.entry_count == 2
        assert index.null_count == 1

    def test_int_float_key_equivalence(self):
        """1 and 1.0 hash alike, matching the == comparator semantics of a
        sequential scan."""
        index = HashIndex(meta("hash"))
        index.insert_values([1, 2.0], 0)
        assert list(index.lookup(1.0)) == [0]
        assert list(index.lookup(2)) == [1]

    def test_no_range_support(self):
        assert HashIndex(meta("hash")).supports_range is False


class TestOrderedIndex:
    def build(self, values):
        index = OrderedIndex(meta())
        index.insert_values(values, 0)
        return index

    def test_point_lookup(self):
        index = self.build([30, 10, 20, 10, None])
        assert list(index.lookup(10)) == [1, 3]
        assert list(index.lookup(30)) == [0]
        assert list(index.lookup(11)) == []
        assert list(index.lookup(None)) == [4]

    def test_range_inclusive_exclusive_bounds(self):
        index = self.build([1, 2, 3, 4, 5])
        assert list(index.range(2, True, 4, True)) == [1, 2, 3]
        assert list(index.range(2, False, 4, True)) == [2, 3]
        assert list(index.range(2, True, 4, False)) == [1, 2]
        assert list(index.range(2, False, 4, False)) == [2]

    def test_open_sided_ranges(self):
        index = self.build([5, 1, 3])
        assert list(index.range(None, True, 3, True)) == [1, 2]
        assert list(index.range(3, True, None, True)) == [2, 0]
        assert list(index.range(None, True, None, True)) == [1, 2, 0]

    def test_range_key_order_with_row_id_tiebreak(self):
        index = self.build([2, 1, 2, 1])
        # key order, ties resolved by stored position
        assert list(index.range(1, True, 2, True)) == [1, 3, 0, 2]

    def test_empty_range(self):
        index = self.build([1, 2, 3])
        assert list(index.range(5, True, 9, True)) == []
        assert list(index.range(3, False, 3, True)) == []

    def test_ordered_iteration_nulls_last(self):
        index = self.build([None, 3, 1, None, 2])
        assert index.ordered_row_ids() == [2, 4, 1, 0, 3]
        assert index.ordered_row_ids(nulls_last=False) == [0, 3, 2, 4, 1]

    def test_lazy_resort_after_append(self):
        index = self.build([3, 1])
        index.insert_values([2, 0], 2)
        assert list(index.range(0, True, 2, True)) == [3, 1, 2]
        assert list(index.lookup(3)) == [0]

    def test_counts(self):
        index = self.build([1, None, 2])
        assert index.entry_count == 2
        assert index.null_count == 1
        assert index.supports_range is True

    def test_string_keys(self):
        index = self.build(["beta", "alpha", "gamma"])
        assert list(index.range("alpha", True, "beta", True)) == [1, 0]


class TestBuildAndSelect:
    def test_build_index_dispatches_on_kind(self):
        assert isinstance(build_index(meta("hash"), [1]), HashIndex)
        assert isinstance(build_index(meta("ordered"), [1]), OrderedIndex)

    def test_unknown_kind_rejected_by_schema(self):
        with pytest.raises(SchemaError):
            Index("idx", "t", "c", kind="btree")

    def test_select_prefers_hash_for_points(self):
        ordered = meta("ordered", name="a_ordered")
        hashed = meta("hash", name="z_hash")
        assert select_index([ordered, hashed], "point") is hashed
        assert select_index([ordered, hashed], "range") is ordered
        assert select_index([ordered, hashed], "sorted") is ordered

    def test_select_hash_cannot_serve_ranges(self):
        assert select_index([meta("hash")], "range") is None
        assert select_index([meta("hash")], "sorted") is None
        assert select_index([], "point") is None

    def test_select_ties_break_on_name(self):
        first = meta("ordered", name="idx_a")
        second = meta("ordered", name="idx_b")
        assert select_index([second, first], "range") is first

    def test_select_unknown_shape(self):
        with pytest.raises(ValueError):
            select_index([meta()], "bitmap")
