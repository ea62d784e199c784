"""Unit tests for the typed column buffers (:mod:`repro.storage.buffers`).

The contract under test: a :class:`TypedColumn` behaves exactly like the
plain Python list it replaces (list protocol, NULLs as ``None``), mutations
are atomic (a failed batch leaves the column untouched so the store can
demote to a list), and every filter kernel either returns exactly what the
brute-force Python loop would — mixed int/float comparison semantics
included — or returns ``None`` to make the caller run that loop.
"""

import operator
import random

import pytest

from repro.common.errors import REFUSAL_REASONS, KernelRefused
from repro.engine.vectorized.columns import ColumnTable
from repro.storage import buffers
from repro.storage.buffers import (
    FLOAT,
    INT,
    BufferTypeError,
    TypedColumn,
    column_kinds,
    column_values,
    copy_column,
    gather_values,
    kind_for_type,
    make_column,
)

OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def brute_compare(column, op, constant, indices, flipped=False):
    """The exact-Python reference the kernels must reproduce."""
    out = []
    for i in indices:
        value = column[i]
        if value is None:
            continue
        hit = OPS[op](constant, value) if flipped else OPS[op](value, constant)
        if hit:
            out.append(i)
    return out


@pytest.fixture
def int_column():
    column = TypedColumn(INT)
    column.extend([5, None, -3, 12, 0, None, 7, 12])
    return column


@pytest.fixture
def float_column():
    column = TypedColumn(FLOAT)
    column.extend([0.5, None, -2.25, 12.0, 0.0, 7.5])
    return column


# ---------------------------------------------------------------------------
# construction + list protocol
# ---------------------------------------------------------------------------


def test_kind_mapping():
    assert kind_for_type("INTEGER") == INT
    assert kind_for_type("DATE") == INT
    assert kind_for_type("FLOAT") == FLOAT
    assert kind_for_type("STRING") is None
    assert kind_for_type(None) is None
    assert isinstance(make_column(INT), TypedColumn)
    assert make_column(None) == []


def test_column_kinds_accepts_enums_and_strings():
    class FakeType:
        name = "INTEGER"

    kinds = column_kinds(["a", "b", "c"], [FakeType(), "FLOAT", "STRING"])
    assert kinds == {"a": INT, "b": FLOAT, "c": None}


def test_list_protocol(int_column):
    expected = [5, None, -3, 12, 0, None, 7, 12]
    assert len(int_column) == len(expected)
    assert list(int_column) == expected
    assert int_column.tolist() == expected
    assert [int_column[i] for i in range(len(expected))] == expected
    assert int_column[-1] == 12
    assert int_column[1:4] == [None, -3, 12]
    assert int_column.null_count == 2


def test_contains_ignores_null_placeholder():
    column = TypedColumn(INT)
    column.extend([None, 5])  # the NULL row stores a 0 placeholder
    assert 0 not in column
    assert 5 in column
    assert None in column
    assert "five" not in column
    no_nulls = TypedColumn(INT)
    no_nulls.extend([1, 2])
    assert None not in no_nulls


def test_copy_is_independent(int_column):
    clone = int_column.copy()
    clone.append(99)
    assert len(clone) == len(int_column) + 1
    assert 99 not in int_column
    assert clone.tolist()[: len(int_column)] == int_column.tolist()


# ---------------------------------------------------------------------------
# mutation: exact typing, atomicity, demotion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind, bad",
    [
        (INT, 1.5),
        (INT, "x"),
        (INT, True),  # bool must not collapse into 0/1
        (INT, 2**63),  # int64 overflow
        (FLOAT, "x"),
        (FLOAT, False),
        (FLOAT, 2**53 + 1),  # int that does not round-trip through float64
    ],
)
def test_extend_rejects_unrepresentable_values(kind, bad):
    column = TypedColumn(kind)
    column.extend([1, 2] if kind == INT else [1.0, 2.0])
    before = column.tolist()
    with pytest.raises(BufferTypeError):
        column.extend([3, bad] if kind == INT else [3.0, bad])
    # atomic: the valid prefix of the failed batch must not have landed
    assert column.tolist() == before


def test_float_column_coerces_exact_ints():
    column = TypedColumn(FLOAT)
    column.extend([1, 2.5, 2**53])
    assert column.tolist() == [1.0, 2.5, float(2**53)]
    assert all(type(value) is float for value in column.tolist())


def test_column_table_demotes_on_off_type_batch():
    table = ColumnTable.with_columns(["a"], kinds={"a": INT})
    table.append_rows([{"a": 1}, {"a": 2}])
    assert isinstance(table.columns["a"], TypedColumn)
    table.append_rows([{"a": 3}, {"a": "oops"}])
    demoted = table.columns["a"]
    assert isinstance(demoted, list)
    assert demoted == [1, 2, 3, "oops"]


# ---------------------------------------------------------------------------
# gather + duck-typed helpers
# ---------------------------------------------------------------------------


def test_gather_range_fancy_and_nulls(int_column):
    expected = int_column.tolist()
    assert int_column.gather(range(2, 6)) == expected[2:6]
    picks = [7, 0, 3, 3]
    assert int_column.gather(picks) == [expected[i] for i in picks]
    many = list(range(len(int_column))) * 20  # trips the fancy-index path
    assert int_column.gather(many) == [expected[i] for i in many]


def test_helpers_work_on_both_representations(int_column):
    as_list = int_column.tolist()
    assert column_values(int_column) == as_list
    assert column_values(as_list) is as_list
    assert gather_values(int_column, [0, 2]) == gather_values(as_list, [0, 2])
    typed_copy = copy_column(int_column)
    list_copy = copy_column(as_list)
    assert isinstance(typed_copy, TypedColumn)
    assert isinstance(list_copy, list)
    assert typed_copy.tolist() == list_copy


# ---------------------------------------------------------------------------
# filter kernels vs the brute-force reference
# ---------------------------------------------------------------------------

INT_CONSTANTS = [0, 5, 12, -3, 2.5, -0.5, 12.0, float("nan"), float("inf"), 2**64]
FLOAT_CONSTANTS = [0.0, 0.5, -2.25, 7, 2**53, float("inf"), float("nan"), 2**53 + 1]


@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("flipped", [False, True])
def test_filter_compare_matches_python_semantics(op, flipped, int_column, float_column):
    for column, constants in ((int_column, INT_CONSTANTS), (float_column, FLOAT_CONSTANTS)):
        indices = range(len(column))
        for constant in constants:
            got = column.filter_compare(op, constant, indices, flipped)
            if got is None:
                continue  # kernel bailed; callers run the exact loop
            assert got == brute_compare(column, op, constant, indices, flipped), (
                column.kind,
                op,
                constant,
                flipped,
            )


def test_filter_compare_bails_where_exactness_is_at_risk(int_column, float_column):
    indices = range(len(int_column))
    assert int_column.filter_compare("<", float("nan"), indices) is None
    assert int_column.filter_compare("<", 2**64, indices) is None
    assert float_column.filter_compare("=", 2**53 + 1, range(len(float_column))) is None
    assert int_column.filter_compare("<", "abc", indices) is None


def test_filter_compare_fractional_constant_rewrite(int_column):
    indices = range(len(int_column))
    # 2.5 against int64 rows: <, <=, >, >=, =, != all have exact rewrites
    assert int_column.filter_compare("=", 2.5, indices) == []
    assert int_column.filter_compare("!=", 2.5, indices) == brute_compare(
        int_column, "!=", 2.5, indices
    )
    for op in ("<", "<=", ">", ">="):
        assert int_column.filter_compare(op, 2.5, indices) == brute_compare(
            int_column, op, 2.5, indices
        )


def test_filter_between(int_column):
    indices = range(len(int_column))
    for low, high, negated in [(0, 12, False), (0, 12, True), (-5.5, 6.5, False)]:
        got = int_column.filter_between(low, high, negated, indices)
        expected = [
            i
            for i in indices
            if int_column[i] is not None
            and ((low <= int_column[i] <= high) ^ negated)
        ]
        assert got == expected, (low, high, negated)


def test_filter_in(int_column, float_column):
    indices = range(len(int_column))
    pool = frozenset({5, 12.0, "x", 2.5, float("nan")})
    got = int_column.filter_in(pool, False, indices)
    expected = [i for i in indices if int_column[i] is not None and int_column[i] in pool]
    assert got == expected
    assert int_column.filter_in(pool, True, indices) == [
        i for i in indices if int_column[i] is not None and int_column[i] not in pool
    ]
    # a pool with an unrepresentable int bails entirely for INT columns
    assert int_column.filter_in(frozenset({5, 2**64}), False, indices) is None
    # for FLOAT columns a non-representable int simply never matches
    f_indices = range(len(float_column))
    assert float_column.filter_in(frozenset({0.5, 2**53 + 1}), False, f_indices) == [
        i for i in f_indices if float_column[i] == 0.5
    ]


def test_filter_null(int_column):
    indices = range(len(int_column))
    assert int_column.filter_null(True, indices) == [1, 5]
    assert int_column.filter_null(False, indices) == [0, 2, 3, 4, 6, 7]
    dense = TypedColumn(INT)
    dense.extend([1, 2, 3])
    assert dense.filter_null(True, range(3)) == []
    assert dense.filter_null(False, range(3)) == [0, 1, 2]


def test_filter_compare_with(int_column):
    other = TypedColumn(INT)
    other.extend([5, 1, -3, None, 2, 9, 6, 12])
    indices = range(len(int_column))
    for op in sorted(OPS):
        got = int_column.filter_compare_with(other, op, indices)
        expected = [
            i
            for i in indices
            if int_column[i] is not None
            and other[i] is not None
            and OPS[op](int_column[i], other[i])
        ]
        assert got == expected, op
    # mixed kinds refuse (int64 vs float64 promotion could round)
    floats = TypedColumn(FLOAT)
    floats.extend([1.0] * len(int_column))
    assert int_column.filter_compare_with(floats, "<", indices) is None


def test_kernels_respect_subset_indices(int_column):
    subset = [0, 3, 6, 7]
    assert int_column.filter_compare("=", 12, subset) == brute_compare(
        int_column, "=", 12, subset
    )
    assert int_column.filter_compare(">", 4, range(2, 7)) == brute_compare(
        int_column, ">", 4, range(2, 7)
    )


@pytest.mark.skipif(buffers._np is None, reason="numpy-specific fallback check")
def test_kernels_fall_back_without_numpy(monkeypatch, int_column):
    """With numpy gone every kernel bails except the mask-only NULL filter."""
    indices = range(len(int_column))
    with_numpy = int_column.filter_compare("<", 6, indices)
    monkeypatch.setattr(buffers, "_np", None)
    assert int_column.filter_compare("<", 6, indices) is None
    assert int_column.filter_between(0, 10, False, indices) is None
    assert int_column.filter_in(frozenset({5}), False, indices) is None
    assert int_column.filter_compare_with(int_column, "=", indices) is None
    assert int_column.filter_null(True, indices) == [1, 5]
    assert int_column.gather(range(2, 6)) == int_column.tolist()[2:6]
    monkeypatch.undo()
    assert with_numpy == brute_compare(int_column, "<", 6, indices)


def test_randomized_kernel_equivalence():
    rng = random.Random(42)
    column = TypedColumn(INT)
    column.extend(
        [None if rng.random() < 0.2 else rng.randint(-50, 50) for _ in range(500)]
    )
    indices = range(len(column))
    for _ in range(200):
        op = rng.choice(sorted(OPS))
        constant = rng.choice(
            [rng.randint(-60, 60), rng.uniform(-60.0, 60.0), rng.randint(-60, 60) + 0.5]
        )
        flipped = rng.random() < 0.3
        got = column.filter_compare(op, constant, indices, flipped)
        if got is not None:
            assert got == brute_compare(column, op, constant, indices, flipped), (
                op,
                constant,
                flipped,
            )


# ---------------------------------------------------------------------------
# Aggregate kernels: typed gather, arithmetic, grouping, grouped aggregates
# ---------------------------------------------------------------------------

needs_numpy = pytest.mark.skipif(buffers._np is None, reason="the kernels need numpy")

#: every kernel input below has at least this many rows (a multiple of 12)
ROWS = -(-2 * buffers.KERNEL_MIN_ROWS // 12) * 12

ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def typed(kind, values):
    column = TypedColumn(kind)
    column.extend(values)
    return column


def reference_arith(op, left, right):
    """``scalar.evaluate_batch``'s per-value semantics (NULL in, NULL out; x/0 NULL)."""
    out = []
    for lv, rv in zip(left, right):
        if lv is None or rv is None:
            out.append(None)
        elif op == "/":
            out.append(None if rv == 0 else lv / rv)
        else:
            out.append(ARITH[op](lv, rv))
    return out


def refusal(call, *args):
    with pytest.raises(KernelRefused) as caught:
        call(*args)
    assert caught.value.reason in REFUSAL_REASONS  # the vocabulary is closed
    return caught.value.reason


def same_values(got, expected):
    """Equal including type, NaN-ness and the sign of zero (what ``repr`` shows)."""
    return repr(got) == repr(expected)


@needs_numpy
def test_take_is_a_typed_gather():
    column = typed(FLOAT, [None if i % 7 == 0 else i / 4 for i in range(ROWS)])
    picks = [ROWS - 1, 0, 7, 8, 8, 3] * (ROWS // 6)
    taken = column.take(picks)
    assert isinstance(taken, TypedColumn) and taken.kind == FLOAT
    assert taken.tolist() == [column[i] for i in picks]
    assert taken.null_count == sum(1 for i in picks if column[i] is None)
    assert column.take(range(10, ROWS - 9)).tolist() == column.tolist()[10 : ROWS - 9]
    assert column.take(range(len(column))) is column  # whole column: zero-copy
    assert column.take(range(3)) is None  # below KERNEL_MIN_ROWS: the caller gathers a list
    assert isinstance(buffers.gather_typed(column, picks), TypedColumn)
    assert buffers.gather_typed(column, [1, 2]) == [0.25, 0.5]
    text = ["a", "b", "c"] * (ROWS // 3)
    assert buffers.gather_typed(text, range(1, ROWS)) == text[1:]


@needs_numpy
@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_arith_matches_python_on_every_kind_pairing(op):
    rng = random.Random(7)
    ints = [None if rng.random() < 0.15 else rng.randint(-40, 40) for _ in range(ROWS)]
    more = [None if rng.random() < 0.15 else rng.randint(-3, 3) for _ in range(ROWS)]
    floats = [
        None if rng.random() < 0.15 else rng.choice([0.0, -0.0, 0.1, 2.5, -7.25])
        for _ in range(ROWS)
    ]
    columns = {"int": (INT, ints), "small": (INT, more), "float": (FLOAT, floats)}
    for left_name, right_name in [("int", "small"), ("int", "float"), ("float", "small"), ("float", "float")]:
        (left_kind, left), (right_kind, right) = columns[left_name], columns[right_name]
        got = typed(left_kind, left).arith(op, typed(right_kind, right))
        assert same_values(got.tolist(), reference_arith(op, left, right)), (op, left_name, right_name)
        assert got.kind == (FLOAT if op == "/" or FLOAT in (left_kind, right_kind) else INT)
    for constant in (3, 0, -2.5, 0.0):
        for kind, values in columns.values():
            column = typed(kind, values)
            assert same_values(
                column.arith(op, constant).tolist(), reference_arith(op, values, [constant] * ROWS)
            )
            assert same_values(
                column.arith(op, constant, True).tolist(),
                reference_arith(op, [constant] * ROWS, values),
            )


@needs_numpy
def test_arith_null_placeholders_stay_zero():
    column = typed(FLOAT, [1.5, None, 2.5] * (ROWS // 3))
    result = column.arith("/", typed(INT, [0, 0, 5] * (ROWS // 3)))
    assert result.tolist()[:3] == [None, None, 0.5]
    assert result.data[0] == 0.0 and result.data[1] == 0.0  # not the inf/nan numpy computed


@needs_numpy
def test_arith_refuses_at_the_int64_boundary():
    top = typed(INT, [2**63 - 1] + [0] * (ROWS - 1))
    bottom = typed(INT, [-(2**63)] + [0] * (ROWS - 1))
    assert top.arith("+", 0).tolist()[0] == 2**63 - 1  # the bound itself still fits
    assert refusal(top.arith, "+", 1) == "overflow-bound"
    assert refusal(bottom.arith, "-", 1) == "overflow-bound"
    assert refusal(top.arith, "*", 2) == "overflow-bound"
    assert refusal(top.arith, "+", typed(INT, [1] * ROWS)) == "overflow-bound"
    assert refusal(top.arith, "+", 2**70) == "overflow-bound"  # the constant itself
    assert refusal(bottom.negate) == "overflow-bound"
    assert top.negate().tolist()[0] == -(2**63 - 1)
    assert typed(INT, [3037000499] * ROWS).arith("*", 3037000499).tolist()[0] == 3037000499**2


@needs_numpy
def test_arith_refuses_ints_that_float64_would_round():
    exact = typed(INT, [2**53, -(2**53)] * (ROWS // 2))
    beyond = typed(INT, [2**53 + 1] + [1] * (ROWS - 1))
    halves = typed(FLOAT, [0.5] * ROWS)
    assert same_values(
        exact.arith("*", halves).tolist(), [2**53 * 0.5, -(2**53) * 0.5] * (ROWS // 2)
    )
    assert same_values(exact.arith("/", 3).tolist(), [2**53 / 3, -(2**53) / 3] * (ROWS // 2))
    assert refusal(beyond.arith, "*", halves) == "inexact-int"
    assert refusal(beyond.arith, "+", 0.5) == "inexact-int"
    assert refusal(beyond.arith, "/", 3) == "inexact-int"  # int / int goes through float64 too
    assert refusal(halves.arith, "+", 2**53 + 1) == "inexact-int"
    assert beyond.arith("+", 1).tolist()[0] == 2**53 + 2  # int + int never leaves int64


@needs_numpy
def test_arith_refuses_non_numeric_operands():
    column = typed(INT, list(range(ROWS)))
    assert refusal(column.arith, "+", "1") == "text-values"
    assert refusal(column.arith, "+", True) == "text-values"
    assert refusal(column.arith, "+", None) == "text-values"


@needs_numpy
def test_arith_float_specials_follow_ieee_like_python():
    column = typed(FLOAT, [1e308, -1e308, float("inf"), 0.0] * (ROWS // 4))
    assert same_values(
        column.arith("*", 10.0).tolist(), reference_arith("*", column.tolist(), [10.0] * ROWS)
    )
    assert same_values(
        column.arith("-", column).tolist(),
        reference_arith("-", column.tolist(), column.tolist()),
    )  # inf - inf = nan on both sides


def reference_groups(keys, row_count):
    """The generic path's dict-of-tuples grouping: first rows, in insertion order."""
    groups = {}
    for row in range(row_count):
        groups.setdefault(tuple(column[row] for column in keys), []).append(row)
    return list(groups.values())


def assert_groups_like_python(keys, row_count):
    grouping = buffers.group_rows(keys, row_count)
    expected = reference_groups(keys, row_count)
    assert grouping.count == len(expected)
    assert grouping.first_rows == [rows[0] for rows in expected]
    ids = grouping.ids.tolist()
    for group, rows in enumerate(expected):
        assert all(ids[row] == group for row in rows)
    return grouping


@needs_numpy
def test_group_rows_first_appearance_order_with_nulls_and_text():
    rng = random.Random(11)
    n = ROWS
    ints = typed(INT, [None if rng.random() < 0.2 else rng.randint(0, 4) for _ in range(n)])
    floats = typed(FLOAT, [None if rng.random() < 0.2 else rng.choice([0.0, -0.0, 1.5]) for _ in range(n)])
    text = [None if rng.random() < 0.2 else rng.choice("xyz") for _ in range(n)]
    for keys in ([ints], [floats], [text], [text, ints], [ints, floats, text]):
        assert_groups_like_python(keys, n)
    no_keys = buffers.group_rows([], n)
    assert (no_keys.count, no_keys.first_rows, set(no_keys.ids.tolist())) == (1, [0], {0})
    # -0.0 and 0.0 are one group, shown as whichever came first
    zeros = typed(FLOAT, [-0.0, 0.0] * (ROWS // 2))
    assert repr(gather_values(zeros, assert_groups_like_python([zeros], ROWS).first_rows)) == "[-0.0]"


@needs_numpy
def test_group_rows_refuses_nan_keys_and_small_inputs():
    nan_key = typed(FLOAT, [1.0, float("nan")] * (ROWS // 2))
    assert refusal(buffers.group_rows, [nan_key], ROWS) == "nan"
    # a list-backed column groups through a dict, so NaN objects behave as in Python
    nan = float("nan")
    assert_groups_like_python([[nan, 1.0, nan, float("nan")] * (ROWS // 4)], ROWS)
    few = buffers.KERNEL_MIN_ROWS - 1
    assert refusal(buffers.group_rows, [typed(INT, [1] * few)], few) == "small-input"


@needs_numpy
def test_group_rows_redensifies_before_codes_overflow(monkeypatch):
    rng = random.Random(5)
    n = ROWS
    keys = [typed(INT, [rng.randint(0, 9) for _ in range(n)]) for _ in range(4)]
    expected = assert_groups_like_python(keys, n).ids.tolist()
    calls = []
    densify = buffers._densify
    monkeypatch.setattr(buffers, "_densify", lambda codes: calls.append(1) or densify(codes))
    monkeypatch.setattr(buffers, "_CODE_LIMIT", 5000)  # 10**4 combinations do not fit
    assert buffers.group_rows(keys, n).ids.tolist() == expected
    assert len(calls) > 1  # once mid-way, once at the end
    monkeypatch.setattr(buffers, "_CODE_LIMIT", 20)  # even the dense codes cannot combine
    assert refusal(buffers.group_rows, keys, n) == "overflow-bound"


def reference_aggregate(function, values, groups):
    out = []
    for rows in groups:
        present = [values[row] for row in rows if values[row] is not None]
        if function == "count":
            out.append(len(present))
        elif not present:
            out.append(None)
        elif function == "sum":
            out.append(buffers.sequential_sum(present))
        elif function == "avg":
            out.append(buffers.sequential_sum(present) / len(present))
        else:
            out.append(min(present) if function == "min" else max(present))
    return out


@needs_numpy
@pytest.mark.parametrize("function", ["count", "sum", "avg", "min", "max"])
def test_grouped_aggregates_match_python(function):
    rng = random.Random(3)
    n = ROWS
    key = [rng.randint(0, 6) for _ in range(n)]
    key[:5] = [9] * 5  # a group whose values are all NULL
    ints = [None if i < 5 or rng.random() < 0.3 else rng.randint(-1000, 1000) for i in range(n)]
    floats = [None if i < 5 or rng.random() < 0.3 else rng.uniform(-1e6, 1e6) for i in range(n)]
    grouping = buffers.group_rows([typed(INT, key)], n)
    groups = reference_groups([key], n)
    for kind, values in ((INT, ints), (FLOAT, floats)):
        got = grouping.aggregate(function, typed(kind, values))
        assert same_values(got, reference_aggregate(function, values, groups)), kind
    assert grouping.aggregate("count", None) == [len(rows) for rows in groups]
    one_group = buffers.group_rows([], n)
    assert same_values(
        one_group.aggregate(function, typed(FLOAT, floats)),
        reference_aggregate(function, floats, [list(range(n))]),
    )


@needs_numpy
def test_float_sum_is_sequential_not_pairwise():
    values = [1e16, 1.0, -1e16, 1.0] * (ROWS // 4)
    grouping = buffers.group_rows([], ROWS)
    assert grouping.aggregate("sum", typed(FLOAT, values)) == [buffers.sequential_sum(values)]
    assert buffers.sequential_sum(values) == 1.0  # a compensated sum keeps every 1.0
    assert repr(buffers.sequential_sum([-0.0])) == "0.0"  # 0 + -0.0, as builtin sum starts
    assert repr(grouping.aggregate("sum", typed(FLOAT, [-0.0] * ROWS))) == "[0.0]"


@needs_numpy
def test_grouped_aggregates_refuse_where_numpy_would_differ():
    n = ROWS
    grouping = buffers.group_rows([], n)
    big = typed(INT, [2**53 // n + 1] * n)
    assert refusal(grouping.aggregate, "sum", big) == "overflow-bound"
    assert refusal(grouping.aggregate, "avg", big) == "inexact-int"
    assert grouping.aggregate("sum", typed(INT, [2**53 // n] * n)) == [(2**53 // n) * n]
    assert grouping.aggregate("max", big) == [2**53 // n + 1]  # MIN/MAX never leave int64
    with_nan = typed(FLOAT, [1.0, float("nan")] * (n // 2))
    assert refusal(grouping.aggregate, "min", with_nan) == "nan"
    assert refusal(grouping.aggregate, "max", typed(FLOAT, [0.0, -0.0] * (n // 2))) == "nan"
    assert same_values(
        grouping.aggregate("sum", with_nan), [buffers.sequential_sum(with_nan.tolist())]
    )  # NaN just propagates through a sum, as in Python
    assert refusal(grouping.aggregate, "sum", ["1"] * n) == "text-values"


@needs_numpy
def test_aggregate_kernels_refuse_without_numpy(monkeypatch):
    column = typed(INT, list(range(ROWS)))
    monkeypatch.setattr(buffers, "_np", None)
    assert column.take(range(1, ROWS)) is None
    assert buffers.gather_typed(column, range(1, ROWS)) == list(range(1, ROWS))
    assert refusal(column.arith, "+", 1) == "no-numpy"
    assert refusal(column.negate) == "no-numpy"
    assert refusal(buffers.group_rows, [column], ROWS) == "no-numpy"
    assert refusal(buffers.require_kernels, ROWS) == "no-numpy"
