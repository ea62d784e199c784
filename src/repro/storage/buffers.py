"""Typed column buffers: contiguous storage for INTEGER/FLOAT columns.

A :class:`TypedColumn` stores a column's non-NULL values in a compact
``array('q')`` (int64) or ``array('d')`` (float64) plus a byte-per-row null
mask (1 = NULL; NULL rows hold a zero placeholder in the value buffer).  It
quacks like the plain Python list the engines historically used — ``len``,
indexing, slicing, iteration, ``in`` — so every existing call site keeps
working, while filter kernels can run over contiguous memory.

The module is deliberately standalone (its one ``repro`` import is the
shared error type) so it sits at the very bottom of the import graph:
``storage.table`` builds typed columns, ``engine/vectorized`` materializes
them through duck-typed helpers, and ``relational.scalar`` reaches the
kernels through ``getattr`` probes — no layer above needs to know whether a
column is a list or a buffer.

numpy is optional.  When importable, the ``filter_*`` kernels evaluate
predicates vectorized over zero-copy ``frombuffer`` views of the arrays
(releasing the GIL for the comparison itself, which is what makes morsel
threads worthwhile); without numpy every kernel returns ``None`` and the
caller falls back to the generic per-row loop.  Either way the *semantics*
are fixed by the fallback: kernels refuse (return ``None``) whenever
vectorized evaluation could diverge from exact Python comparisons — e.g.
int/float comparisons beyond 2**53 — rather than silently round.

The aggregate kernels (typed gather, elementwise arithmetic,
:func:`group_rows` and :meth:`Grouping.aggregate`) follow the same policy
but sit several calls below the operator that counts refusals, so they
refuse by raising :class:`~repro.common.errors.KernelRefused` with the
reason.  What they may not differ on:

* **float SUM/AVG is plain left-to-right IEEE addition in row order**,
  starting from ``0`` — :func:`sequential_sum` is that contract in Python,
  ``np.bincount(ids, weights=...)`` is it in numpy (``np.sum`` and
  ``np.add.reduce`` add pairwise and are never used);
* Python ints do not wrap and do not round: int64 ``+ - *`` run only when
  the operands' min/max bound the result inside int64, and ints meet
  float64 (promotion, ``/``, SUM, AVG) only within ±2**53;
* ``x / 0`` is NULL, NULL operands give NULL, all-NULL groups give NULL;
* NaN has no place in Python's ``==``/``min``/``max`` order, and ``min`` of
  ``0.0`` and ``-0.0`` depends on which came first: such inputs are refused.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from repro.common.errors import KernelRefused

try:  # numpy accelerates the kernels but is never required
    import numpy as _np
except Exception:  # pragma: no cover - exercised via monkeypatching in tests
    _np = None

#: Buffer kinds.  ``INT`` backs INTEGER and DATE columns (days since epoch),
#: ``FLOAT`` backs FLOAT columns; everything else (TEXT, mixed adopted data)
#: stays a plain Python list.
INT = "int"
FLOAT = "float"

_TYPECODES = {INT: "q", FLOAT: "d"}

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
#: ints with magnitude <= 2**53 survive the int -> float64 round trip
#: exactly; beyond it, vectorized int/float comparisons could round where
#: Python would compare exactly, so the kernels fall back.
_EXACT_FLOAT_INT = 2**53

#: Below this many rows the gather and aggregate kernels leave the input to
#: the Python loops.  Measured (numpy 2.4, CPython 3.11): wrapping buffers and
#: index lists in arrays is a fixed ~2 us per gathered column and ~50 us per
#: grouped aggregate, which the loops they replace only exceed from ~200 rows
#: (gather) and ~300 rows (GROUP BY with two aggregates) on — so ~1 ms
#: statements over a handful of rows never pay array set-up.
KERNEL_MIN_ROWS = 256

#: Combined group codes are re-densified before the product of the per-column
#: cardinalities can reach this (int64 would wrap).
_CODE_LIMIT = 2**62

_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: ``constant OP value`` rewritten as ``value OP' constant``.
_FLIPPED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}

Indices = Union[range, Sequence[int]]


def kind_for_type(type_name: Optional[str]) -> Optional[str]:
    """Map a :class:`~repro.relational.schema.DataType` name to a buffer kind.

    Returns ``None`` for types that stay list-backed (TEXT/STRING, unknown).
    """
    if type_name in ("INTEGER", "DATE"):
        return INT
    if type_name == "FLOAT":
        return FLOAT
    return None


def make_column(kind: Optional[str]) -> Union["TypedColumn", List[object]]:
    """A fresh empty column of the given kind (``None`` -> plain list)."""
    if kind is None:
        return []
    return TypedColumn(kind)


class BufferTypeError(TypeError):
    """A value does not fit the column's typed buffer (wrong type/overflow)."""


class TypedColumn:
    """An int64/float64 column buffer with a null mask, list-compatible.

    Mutations (:meth:`append` / :meth:`extend`) are *atomic*: values are
    validated into a scratch buffer first, so a failed batch leaves the
    column untouched — the caller can then demote the column to a plain
    list and retry without having to undo a partial append.
    """

    __slots__ = ("kind", "data", "mask", "null_count")

    def __init__(
        self,
        kind: str,
        data: Optional[array] = None,
        mask: Optional[bytearray] = None,
        null_count: int = 0,
    ) -> None:
        if kind not in _TYPECODES:
            raise ValueError(f"unknown buffer kind {kind!r}")
        self.kind = kind
        self.data = data if data is not None else array(_TYPECODES[kind])
        #: one byte per row, 1 = NULL (the value buffer holds a 0 there).
        self.mask = mask if mask is not None else bytearray(len(self.data))
        self.null_count = null_count

    # -- list protocol -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, item):
        if isinstance(item, slice):
            data = self.data[item]
            if not self.null_count:
                return data.tolist()
            mask = self.mask[item]
            return [None if flag else value for value, flag in zip(data, mask)]
        if self.null_count and self.mask[item]:
            return None
        return self.data[item]

    def __iter__(self):
        if not self.null_count:
            return iter(self.data)
        return iter(self.tolist())

    def __contains__(self, value) -> bool:
        if value is None:
            return self.null_count > 0
        if not self.null_count:
            try:
                return value in self.data
            except TypeError:  # non-numeric probe can never match
                return False
        mask = self.mask
        for pos, stored in enumerate(self.data):
            if not mask[pos] and stored == value:
                return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TypedColumn(kind={self.kind!r}, rows={len(self.data)}, "
            f"nulls={self.null_count})"
        )

    # -- mutation ----------------------------------------------------------

    def append(self, value) -> None:
        self.extend((value,))

    def extend(self, values: Iterable[object]) -> None:
        """Append a batch; all values land or none do (validate-then-commit).

        Raises :class:`BufferTypeError` when any value cannot be stored
        exactly (wrong type, bool, or int64 overflow).
        """
        data = array(_TYPECODES[self.kind])
        mask = bytearray()
        nulls = 0
        is_int = self.kind == INT
        for value in values:
            if value is None:
                data.append(0)
                mask.append(1)
                nulls += 1
                continue
            cls = type(value)  # exact type: bool must not collapse into 0/1
            if is_int:
                if cls is not int:
                    raise BufferTypeError(
                        f"cannot store {value!r} in an int64 column"
                    )
                try:
                    data.append(value)
                except OverflowError as exc:
                    raise BufferTypeError(str(exc)) from exc
            else:
                if cls is float:
                    data.append(value)
                elif cls is int:
                    # FLOAT columns admit ints (binder coercion rule); store
                    # the float64 the comparison semantics expect.  Huge ints
                    # that do not round-trip stay out of the typed buffer.
                    as_float = float(value)
                    if int(as_float) != value:
                        raise BufferTypeError(
                            f"int {value!r} is not exactly representable as float64"
                        )
                    data.append(as_float)
                else:
                    raise BufferTypeError(
                        f"cannot store {value!r} in a float64 column"
                    )
            mask.append(0)
        self.data.extend(data)
        self.mask.extend(mask)
        self.null_count += nulls

    def copy(self) -> "TypedColumn":
        return TypedColumn(
            self.kind, array(self.data.typecode, self.data),
            bytearray(self.mask), self.null_count,
        )

    # -- materialization ---------------------------------------------------

    def tolist(self) -> List[object]:
        """The column as a plain Python list (NULLs restored to ``None``)."""
        values = self.data.tolist()
        if self.null_count:
            for pos, flag in enumerate(self.mask):
                if flag:
                    values[pos] = None
        return values

    def gather(self, indices: Indices) -> List[object]:
        """``[column[i] for i in indices]``, accelerated when possible."""
        data = self.data
        if not self.null_count:
            if isinstance(indices, range):
                return data[indices.start : indices.stop : indices.step].tolist()
            if _np is not None and len(indices) >= KERNEL_MIN_ROWS:
                view = self._np_data()
                return view[_np.asarray(indices, dtype=_np.intp)].tolist()
            return [data[i] for i in indices]
        mask = self.mask
        return [None if mask[i] else data[i] for i in indices]

    def take(self, indices: Indices) -> Optional["TypedColumn"]:
        """Typed gather: the rows at *indices* as a new column, no Python objects.

        ``None`` without numpy or below :data:`KERNEL_MIN_ROWS` — the caller
        gathers a list instead.  The whole-column range is the column itself.
        """
        if _np is None or len(indices) < KERNEL_MIN_ROWS:
            return None
        if isinstance(indices, range) and indices == range(len(self.data)):
            return self
        values, idx = self._vals(indices)
        mask = self._mask_at(indices, idx) if self.null_count else None
        return _from_numpy(self.kind, values, mask)

    # -- arithmetic kernels (raise KernelRefused -> generic evaluation) ----

    def negate(self) -> "TypedColumn":
        """``-self`` elementwise; NULL stays NULL."""
        values, mask, _ = _operand(self)
        if self.kind == INT and _int_bounds(values)[0] == _INT64_MIN:
            raise KernelRefused("overflow-bound")
        return _result(self.kind, -values, mask)

    def arith(self, op: str, other, reflected: bool = False) -> "TypedColumn":
        """``self OP other`` (``other OP self`` when *reflected*), elementwise.

        *op* is one of ``+ - * /``; *other* is an equally long (non-empty)
        :class:`TypedColumn` or an int/float constant.  NULL on either side
        is NULL, ``x / 0`` is NULL, ``/`` always yields FLOAT.  Refuses
        wherever int64/float64 arithmetic could differ from Python's.
        """
        left, left_mask, left_kind = _operand(self)
        right, right_mask, right_kind = _operand(other)
        if reflected:
            left, right, left_kind, right_kind = right, left, right_kind, left_kind
        if left_mask is None or right_mask is None:
            mask = left_mask if right_mask is None else right_mask
        else:
            mask = left_mask | right_mask
        if op != "/" and left_kind == INT and right_kind == INT:
            # Exact in Python; int64 wraps, so interval arithmetic over the
            # operands' bounds must keep every possible result inside it.
            (left_lo, left_hi), (right_lo, right_hi) = _int_bounds(left), _int_bounds(right)
            if op == "+":
                bounds = (left_lo + right_lo, left_hi + right_hi)
            elif op == "-":
                bounds = (left_lo - right_hi, left_hi - right_lo)
            else:
                bounds = tuple(a * b for a in (left_lo, left_hi) for b in (right_lo, right_hi))
            if min(bounds) < _INT64_MIN or max(bounds) > _INT64_MAX:
                raise KernelRefused("overflow-bound")
            return _result(INT, _ARITH[op](left, right), mask)
        left = _as_float(left, left_kind)
        right = _as_float(right, right_kind)
        with _np.errstate(all="ignore"):  # inf/nan come out as Python's do
            if op != "/":
                return _result(FLOAT, _ARITH[op](left, right), mask)
            if type(right) is float:  # constant divisor
                if right == 0:
                    rows = len(self.data)
                    return TypedColumn(FLOAT, array("d", bytes(8 * rows)), bytearray(b"\1" * rows), rows)
            else:
                zero = right == 0
                if zero.any():
                    mask = zero if mask is None else mask | zero
                    right = _np.where(zero, 1.0, right)
            return _result(FLOAT, left / right, mask)

    # -- numpy views -------------------------------------------------------

    def _np_data(self):
        # Zero-copy view over the array buffer; keep it function-local — a
        # live export blocks array resizing (mutation happens only on
        # copy-on-write drafts, never on a column a kernel is viewing).
        dtype = _np.int64 if self.kind == INT else _np.float64
        return _np.frombuffer(memoryview(self.data), dtype=dtype)

    def _np_mask(self):
        return _np.frombuffer(memoryview(self.mask), dtype=_np.bool_)

    def _mask_at(self, indices, idx):
        """The null mask along :meth:`_vals`'s ``(indices, idx)``."""
        if idx is None:
            return self._np_mask()[indices.start : indices.stop]
        return self._np_mask()[idx]

    def _select(self, keep, indices, idx) -> List[int]:
        """Positions of *indices* where boolean vector *keep* holds."""
        if self.null_count:
            keep &= ~self._mask_at(indices, idx)
        if idx is None:
            hits = _np.nonzero(keep)[0]
            if indices.start:
                hits = hits + indices.start
            return hits.tolist()
        return idx[keep].tolist()

    def _vals(self, indices):
        """(values, idx) where idx is None for a contiguous range."""
        view = self._np_data()
        if isinstance(indices, range) and indices.step == 1:
            return view[indices.start : indices.stop], None
        idx = _np.asarray(indices, dtype=_np.intp)
        return view[idx], idx

    def _nonnull(self, indices) -> List[int]:
        if not self.null_count:
            return list(indices)
        mask = self.mask
        return [i for i in indices if not mask[i]]

    # -- filter kernels (None -> caller falls back to the generic loop) ----

    def filter_compare(
        self, op: str, constant, indices: Indices, flipped: bool = False
    ) -> Optional[List[int]]:
        """Indices whose value satisfies ``value OP constant`` (NULLs drop).

        Exactness guard: the constant is normalized so the vectorized
        comparison is bit-for-bit what Python's mixed int/float comparison
        would produce; anything unrepresentable returns ``None``.
        """
        if _np is None:
            return None
        if flipped:
            op = _FLIPPED[op]
        normalized = self._normalize_constant(op, constant)
        if normalized is None:
            return None
        op, constant = normalized
        if op == "never":
            return []
        if op == "all":
            return self._nonnull(indices)
        if len(indices) == 0:
            return []
        vals, idx = self._vals(indices)
        return self._select(_OPS[op](vals, constant), indices, idx)

    def _normalize_constant(self, op: str, constant):
        """Rewrite (op, constant) for exact evaluation, or ``None`` to bail.

        ``("never", _)`` / ``("all", _)`` short-circuit: no row / every
        non-NULL row matches.
        """
        cls = type(constant)
        if self.kind == INT:
            if cls is int:
                if _INT64_MIN <= constant <= _INT64_MAX:
                    return op, constant
                return None  # out-of-range int64: rare, let Python decide
            if cls is float:
                if math.isnan(constant) or math.isinf(constant):
                    return None
                if constant == int(constant):
                    return self._normalize_constant(op, int(constant))
                # fractional bound against integers: exact floor/ceil rewrite
                if op == "=":
                    return ("never", None)
                if op == "!=":
                    return ("all", None)
                if op in ("<", "<="):
                    return self._normalize_constant("<=", math.floor(constant))
                return self._normalize_constant(">=", math.ceil(constant))
            return None
        # FLOAT column
        if cls is float:
            if math.isnan(constant):
                return None
            return op, constant
        if cls is int:
            if abs(constant) <= _EXACT_FLOAT_INT:
                return op, float(constant)
            return None
        return None

    def filter_between(
        self, low, high, negated: bool, indices: Indices
    ) -> Optional[List[int]]:
        """Indices where ``low <= value <= high`` (XOR *negated*); NULLs drop."""
        if _np is None:
            return None
        low_n = self._normalize_constant(">=", low)
        high_n = self._normalize_constant("<=", high)
        if low_n is None or high_n is None:
            return None
        if low_n[0] != ">=" or high_n[0] != "<=":
            return None  # a bound collapsed to never/all: let Python decide
        if len(indices) == 0:
            return []
        vals, idx = self._vals(indices)
        inside = (vals >= low_n[1]) & (vals <= high_n[1])
        if negated:
            inside = ~inside
        return self._select(inside, indices, idx)

    def filter_in(
        self, pool: FrozenSet[object], negated: bool, indices: Indices
    ) -> Optional[List[int]]:
        """Indices where ``value in pool`` (XOR *negated*); NULLs drop.

        Pool members that can never equal a stored value (strings, huge or
        fractional numbers for this kind) are simply dropped — exactly what
        Python's ``in`` would conclude about them.
        """
        if _np is None:
            return None
        members = self._pool_members(pool)
        if members is None:
            return None
        if len(indices) == 0:
            return []
        if not members:
            return [] if not negated else self._nonnull(indices)
        vals, idx = self._vals(indices)
        dtype = _np.int64 if self.kind == INT else _np.float64
        keep = _np.isin(vals, _np.array(members, dtype=dtype))
        if negated:
            keep = ~keep
        return self._select(keep, indices, idx)

    def _pool_members(self, pool) -> Optional[List[object]]:
        members: List[object] = []
        for member in pool:
            cls = type(member)
            if cls is str:
                continue  # cross-type equality is simply False
            if self.kind == INT:
                if cls is float:
                    if math.isnan(member) or math.isinf(member):
                        continue  # never equals an int
                    if member != int(member):
                        continue  # fractional: never equals a stored int
                    member = int(member)  # integral float matches the int
                elif cls is not int:
                    return None
                if not (_INT64_MIN <= member <= _INT64_MAX):
                    return None
                members.append(member)
            else:
                if cls is float:
                    if math.isnan(member):
                        continue  # nan == x is always False
                    members.append(member)
                elif cls is int:
                    as_float = float(member)
                    if int(as_float) == member:
                        members.append(as_float)
                    # else: not float64-representable, can never equal one
                else:
                    return None
        return members

    def filter_null(self, want_null: bool, indices: Indices) -> List[int]:
        """Indices whose value IS NULL (or IS NOT NULL).  Always available —
        the mask answers this without touching the value buffer."""
        if not self.null_count:
            return [] if want_null else list(indices)
        mask = self.mask
        if want_null:
            return [i for i in indices if mask[i]]
        return [i for i in indices if not mask[i]]

    def filter_compare_with(
        self, other, op: str, indices: Indices
    ) -> Optional[List[int]]:
        """Indices where ``self[i] OP other[i]`` holds (NULL on either drops).

        Same-kind columns only: mixing int64 and float64 would promote
        through float64 and could round where Python compares exactly.
        """
        if _np is None:
            return None
        if not isinstance(other, TypedColumn) or other.kind != self.kind:
            return None
        if len(indices) == 0:
            return []
        lvals, idx = self._vals(indices)
        if idx is None:
            rvals = other._np_data()[indices.start : indices.stop]
        else:
            rvals = other._np_data()[idx]
        keep = _OPS[op](lvals, rvals)
        if other.null_count:
            keep = keep & ~other._mask_at(indices, idx)
        return self._select(keep, indices, idx)


# -- kernel plumbing ---------------------------------------------------------


def _from_numpy(kind: str, values, mask) -> TypedColumn:
    """Copy a kernel's output arrays into a column (*mask* may be ``None``)."""
    data = array(_TYPECODES[kind])
    data.frombytes(_np.ascontiguousarray(values).view(_np.uint8))
    nulls = int(_np.count_nonzero(mask)) if mask is not None else 0
    return TypedColumn(kind, data, bytearray(mask) if nulls else None, nulls)


def _result(kind: str, values, mask) -> TypedColumn:
    """An arithmetic result; *values* is owned, NULL rows get their 0 placeholder."""
    if mask is not None:
        values[mask] = 0
    return _from_numpy(kind, values, mask)


def _operand(value) -> Tuple[object, object, str]:
    """``(values, null mask or None, kind)`` of a column or numeric constant."""
    if _np is None:
        raise KernelRefused("no-numpy")
    if isinstance(value, TypedColumn):
        return value._np_data(), value._np_mask() if value.null_count else None, value.kind
    cls = type(value)  # exact type: bool is not a number here
    if cls is float:
        return value, None, FLOAT
    if cls is int:
        if not (_INT64_MIN <= value <= _INT64_MAX):
            raise KernelRefused("overflow-bound")
        return value, None, INT
    raise KernelRefused("text-values")


def _int_bounds(values) -> Tuple[int, int]:
    """(min, max) of an int constant or non-empty int64 array, as Python ints.

    NULL rows' 0 placeholders are included: that only widens the interval.
    """
    if type(values) is int:
        return values, values
    return int(values.min()), int(values.max())


def _as_float(values, kind: str):
    """The operand as float64 — exact, or refused (ints beyond 2**53 round)."""
    if kind == FLOAT:
        return values
    low, high = _int_bounds(values)
    if low < -_EXACT_FLOAT_INT or high > _EXACT_FLOAT_INT:
        raise KernelRefused("inexact-int")
    return float(values) if type(values) is int else values.astype(_np.float64)


# -- grouped aggregation -----------------------------------------------------


def sequential_sum(values: Iterable[object]):
    """``0 + v0 + v1 + ...`` strictly left to right: the SUM/AVG contract.

    Builtin ``sum`` compensates float addition from Python 3.12 on, so the
    same query would return different last bits on different interpreters —
    and differ from the numpy kernel, whose ``bincount`` adds in exactly this
    order.  Every engine's SUM and AVG over possibly-float values goes
    through here (or through that kernel).
    """
    total = 0
    for value in values:
        total += value
    return total


class Grouping:
    """Rows assigned to dense group ids, numbered by first appearance.

    ``ids[row]`` is the row's group, ``count`` the number of groups and
    ``first_rows[group]`` the first row of each (ascending — which is what
    makes output order the generic path's dict-insertion order, and the
    stable ORDER BY above it, come out the same).
    """

    __slots__ = ("ids", "count", "first_rows", "_sizes")

    def __init__(self, ids, count: int, first_rows: List[int]) -> None:
        self.ids = ids
        self.count = count
        self.first_rows = first_rows
        self._sizes = None

    def sizes(self):
        """Rows per group (``COUNT(*)``)."""
        if self._sizes is None:
            self._sizes = _np.bincount(self.ids, minlength=self.count)
        return self._sizes

    def aggregate(self, function: str, values: Optional[TypedColumn]) -> List[object]:
        """One value per group of ``count/sum/avg/min/max`` over *values*.

        ``None`` values mean ``COUNT(*)``.  NULLs are skipped; a group with
        no non-NULL value yields NULL (COUNT: 0).
        """
        if values is None:
            return self.sizes().tolist()
        if not isinstance(values, TypedColumn):
            raise KernelRefused("text-values")
        ids, count = self.ids, self.count
        data = values._np_data()
        if values.null_count:
            valid = ~values._np_mask()
            present = _np.bincount(ids[valid], minlength=count)
        else:
            valid = None
            present = self.sizes()
        if function == "count":
            return present.tolist()
        if function in ("sum", "avg"):
            if values.kind == INT:
                # Accumulated in float64: exact while every partial sum is
                # an integer within 2**53, which |value| * rows bounds.
                low, high = _int_bounds(data)
                if max(-low, high) * int(self.sizes().max()) > _EXACT_FLOAT_INT:
                    raise KernelRefused("overflow-bound" if function == "sum" else "inexact-int")
            # bincount adds sequentially in row order; NULL rows hold 0.0,
            # which no running sum (never -0.0: it starts at +0.0) notices.
            totals = _np.bincount(ids, weights=data, minlength=count)
            if function == "avg":
                with _np.errstate(all="ignore"):  # empty groups: patched below
                    totals = totals / present
            elif values.kind == INT:
                totals = totals.astype(_np.int64)
        else:
            if values.kind == FLOAT and (
                _np.isnan(data).any() or (_np.signbit(data) & (data == 0)).any()
            ):
                raise KernelRefused("nan")
            low, high = (_INT64_MIN, _INT64_MAX) if values.kind == INT else (-_np.inf, _np.inf)
            ufunc, fill = (_np.minimum, high) if function == "min" else (_np.maximum, low)
            if valid is not None:
                data = _np.where(valid, data, fill)  # NULLs never win
            totals = _np.full(count, fill, dtype=data.dtype)
            ufunc.at(totals, ids, data)
        out = totals.tolist()
        for group in _np.flatnonzero(present == 0).tolist():
            out[group] = None
        return out


def require_kernels(row_count: int) -> None:
    """Refuse up front where no aggregate kernel would run: no numpy, few rows."""
    if _np is None:
        raise KernelRefused("no-numpy")
    if row_count < KERNEL_MIN_ROWS:
        raise KernelRefused("small-input")


def group_rows(keys: Sequence[object], row_count: int) -> Grouping:
    """Group *row_count* rows by the key columns (no keys: one group).

    Each key column becomes int64 codes (equal values ⇔ equal codes, NULL
    its own code), the codes combine pairwise into one, and the combined
    codes are renumbered by first appearance.  Refuses without numpy, below
    :data:`KERNEL_MIN_ROWS`, and on a NaN in a typed FLOAT key (every NaN is
    its own group in Python, all are one to ``np.unique``).
    """
    require_kernels(row_count)
    if not keys:
        return Grouping(_np.zeros(row_count, dtype=_np.int64), 1, [0])
    combined, bound = _key_codes(keys[0], row_count)
    for column in keys[1:]:
        codes, cardinality = _key_codes(column, row_count)
        if bound * cardinality > _CODE_LIMIT:
            combined, bound = _densify(combined)
            if bound * cardinality > _CODE_LIMIT:
                raise KernelRefused("overflow-bound")
        combined *= cardinality
        combined += codes
        bound *= cardinality
    dense, count = _densify(combined)
    first = _np.full(count, row_count, dtype=_np.int64)
    _np.minimum.at(first, dense, _np.arange(row_count))
    order = _np.argsort(first)  # first rows are distinct: a total order
    rank = _np.empty(count, dtype=_np.int64)
    rank[order] = _np.arange(count)
    return Grouping(rank[dense], count, first[order].tolist())


def _key_codes(column, row_count: int):
    """``(codes, bound)``: a fresh int64 code per row, every code < bound."""
    if isinstance(column, TypedColumn):
        values = column._np_data()
        if column.kind == FLOAT and _np.isnan(values).any():
            raise KernelRefused("nan")
        distinct, codes = _np.unique(values, return_inverse=True)  # -0.0 == 0.0, as in Python
        if not column.null_count:
            return codes, len(distinct)
        codes[column._np_mask()] = len(distinct)
        return codes, len(distinct) + 1
    # Anything else (TEXT, demoted columns) groups exactly as Python's dict
    # does; a value's code is the row it first appeared in.
    first_seen: Dict[object, int] = {}
    codes = _np.fromiter(
        map(first_seen.setdefault, column, itertools.count()), dtype=_np.int64, count=row_count
    )
    return codes, row_count


def _densify(codes):
    """``(dense codes, number of distinct codes)``."""
    distinct, dense = _np.unique(codes, return_inverse=True)
    return dense, len(distinct)


# -- duck-typed helpers (work on TypedColumn and plain lists alike) --------


def column_values(column) -> List[object]:
    """The column as a plain list; zero-copy when it already is one."""
    if isinstance(column, TypedColumn):
        return column.tolist()
    return column


def gather_values(column, indices: Indices) -> List[object]:
    """Gather positions out of a column of either representation."""
    if isinstance(column, TypedColumn):
        return column.gather(indices)
    return [column[i] for i in indices]


def gather_typed(column, indices: Indices):
    """:func:`gather_values`, except a typed column stays typed where the
    kernels apply (numpy present, at least :data:`KERNEL_MIN_ROWS` rows)."""
    if isinstance(column, TypedColumn):
        taken = column.take(indices)
        if taken is not None:
            return taken
    return gather_values(column, indices)


def copy_column(column):
    """An independent mutable copy preserving the representation."""
    if isinstance(column, TypedColumn):
        return column.copy()
    return list(column)


def freeze_column(column):
    """The column in a container CPython's cyclic GC skips: a list becomes a
    tuple (untracked once it holds only atomic values), a typed buffer stays
    as it is (its values are not Python objects)."""
    if isinstance(column, list):
        return tuple(column)
    return column


def column_kinds(column_names: Sequence[str], data_types: Sequence[object]) -> Dict[str, Optional[str]]:
    """name -> buffer kind for a schema's columns (enum or string types)."""
    kinds: Dict[str, Optional[str]] = {}
    for name, data_type in zip(column_names, data_types):
        type_name = getattr(data_type, "name", data_type)
        kinds[name] = kind_for_type(type_name)
    return kinds
