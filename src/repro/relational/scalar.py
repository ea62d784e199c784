"""Typed scalar expressions evaluated by both execution engines.

This module is the predicate/projection IR of the whole stack: the SQL
binder lowers WHERE/ON conjuncts and computed SELECT items into these trees,
the optimizer costs them (:mod:`repro.cost.selectivity` walks them), and both
engines evaluate them — the row engine through :func:`compile_row` (one
closure tree built per execution, no per-row dispatch) and the vectorized
engine through :func:`evaluate_batch` / :func:`filter_batch` (column arrays
addressed through selection vectors).

Semantics are SQL's three-valued logic throughout:

* any arithmetic or comparison with a NULL operand yields NULL;
* ``AND`` / ``OR`` / ``NOT`` follow the Kleene truth tables (``NULL OR TRUE``
  is ``TRUE``, ``NULL AND FALSE`` is ``FALSE``, otherwise NULL propagates);
* ``x BETWEEN lo AND hi`` decomposes to ``x >= lo AND x <= hi`` under that
  same Kleene AND — a NULL bound can still produce FALSE (and its negation
  TRUE) when the other bound already decides;
* ``x IN (a, b, NULL)`` is TRUE on a match, NULL (not FALSE) otherwise;
* a WHERE clause keeps a row only when the predicate is exactly TRUE —
  NULL counts as "filtered out";
* division by zero yields NULL (SQLite-style) rather than an error, and
  ``/`` always produces a float;
* ``LIKE`` is case-sensitive with ``%`` (any run) and ``_`` (one character).

Evaluation is *total*: both operands of every node are evaluated regardless
of the other's value.  That costs a little on short-circuitable rows but
guarantees the row and vectorized backends agree bit-for-bit on every side
effect that matters here — most importantly, on when a reference to a column
absent from the data raises :class:`MissingColumnError`.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from enum import Enum
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.common.errors import KernelRefused, QueryError
from repro.relational.expressions import ColumnRef

# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


class ComparisonOp(Enum):
    """Comparison operators shared by filters, joins and scalar expressions."""

    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def evaluate(self, left: object, right: object) -> bool:
        """Apply the operator; delegates to :attr:`comparator` (one source of
        truth for operator semantics)."""
        return _COMPARATORS[self](left, right)

    @property
    def is_equality(self) -> bool:
        return self is ComparisonOp.EQ

    @property
    def is_range(self) -> bool:
        return self in (ComparisonOp.LT, ComparisonOp.LE, ComparisonOp.GT, ComparisonOp.GE)

    @property
    def comparator(self) -> Callable[[object, object], bool]:
        """The C-level callable for this operator (hot-loop evaluation)."""
        return _COMPARATORS[self]


_COMPARATORS: Dict[ComparisonOp, Callable[[object, object], bool]] = {
    ComparisonOp.EQ: operator.eq,
    ComparisonOp.NE: operator.ne,
    ComparisonOp.LT: operator.lt,
    ComparisonOp.LE: operator.le,
    ComparisonOp.GT: operator.gt,
    ComparisonOp.GE: operator.ge,
}


class ArithOp(Enum):
    """Binary arithmetic operators."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"


def _div(left, right):
    return None if right == 0 else left / right


_ARITHMETIC: Dict[ArithOp, Callable[[object, object], object]] = {
    ArithOp.ADD: operator.add,
    ArithOp.SUB: operator.sub,
    ArithOp.MUL: operator.mul,
    ArithOp.DIV: _div,
}


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class ScalarType(Enum):
    """Types a scalar expression can produce."""

    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    BOOLEAN = "boolean"
    NULL = "null"  # the literal NULL: compatible with everything
    ANY = "any"  # an unconstrained parameter slot

    @property
    def is_numeric(self) -> bool:
        return self in (
            ScalarType.INTEGER,
            ScalarType.FLOAT,
            ScalarType.NULL,
            ScalarType.ANY,
        )

    @property
    def is_stringy(self) -> bool:
        return self in (ScalarType.STRING, ScalarType.NULL, ScalarType.ANY)

    @property
    def is_booleanish(self) -> bool:
        return self in (ScalarType.BOOLEAN, ScalarType.NULL, ScalarType.ANY)


def type_of_value(value: object) -> ScalarType:
    """The :class:`ScalarType` of a Python literal value."""
    if value is None:
        return ScalarType.NULL
    if isinstance(value, bool):
        raise QueryError("boolean literals are not supported")
    if isinstance(value, int):
        return ScalarType.INTEGER
    if isinstance(value, float):
        return ScalarType.FLOAT
    if isinstance(value, str):
        return ScalarType.STRING
    raise QueryError(f"unsupported literal {value!r}")


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------


class ScalarExpr:
    """Base class of scalar expression nodes (frozen dataclass subclasses).

    ``precedence`` drives minimal-parenthesis rendering: a child is wrapped
    in parentheses when its precedence is lower than its parent's.
    """

    precedence: int = 100

    def children(self) -> Tuple["ScalarExpr", ...]:
        return ()

    def _child_str(self, child: "ScalarExpr", tight: bool = False) -> str:
        if child.precedence < self.precedence or (tight and child.precedence == self.precedence):
            return f"({child})"
        return str(child)


@dataclass(frozen=True)
class Literal(ScalarExpr):
    """A constant: int, float, str or None (SQL NULL)."""

    value: Union[int, float, str, None]

    def __str__(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            return "'" + self.value + "'"
        return str(self.value)


@dataclass(frozen=True)
class Column(ScalarExpr):
    """A reference to a (bound, alias-qualified) relation column."""

    ref: ColumnRef

    def __str__(self) -> str:
        return str(self.ref)


@dataclass(frozen=True)
class Parameter(ScalarExpr):
    """A prepared-statement slot (1-based)."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise QueryError("parameter indices are 1-based")

    def __str__(self) -> str:
        return f"${self.index}"


#: One concept, one class: the INSERT/bound-value paths refer to slots as
#: ``ParameterRef``; it is the expression node under its historical name.
ParameterRef = Parameter


@dataclass(frozen=True)
class Arithmetic(ScalarExpr):
    """``left <op> right`` over numbers; NULL-propagating, ``/0`` is NULL."""

    op: ArithOp
    left: ScalarExpr
    right: ScalarExpr

    @property
    def precedence(self) -> int:  # type: ignore[override]
        return 5 if self.op in (ArithOp.ADD, ArithOp.SUB) else 6

    def children(self) -> Tuple[ScalarExpr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        right_tight = self.op in (ArithOp.SUB, ArithOp.DIV)
        return (
            f"{self._child_str(self.left)} {self.op.value} "
            f"{self._child_str(self.right, tight=right_tight)}"
        )


@dataclass(frozen=True)
class Negate(ScalarExpr):
    """Unary minus."""

    operand: ScalarExpr
    precedence = 7

    def children(self) -> Tuple[ScalarExpr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"-{self._child_str(self.operand, tight=True)}"


@dataclass(frozen=True)
class Comparison(ScalarExpr):
    """``left <op> right``; NULL on either side yields NULL."""

    op: ComparisonOp
    left: ScalarExpr
    right: ScalarExpr
    precedence = 4

    def children(self) -> Tuple[ScalarExpr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{self._child_str(self.left)} {self.op.value} {self._child_str(self.right)}"


@dataclass(frozen=True)
class Between(ScalarExpr):
    """``operand [NOT] BETWEEN low AND high`` — inclusive bounds, decomposed
    per SQL as ``operand >= low AND operand <= high`` (Kleene AND)."""

    operand: ScalarExpr
    low: ScalarExpr
    high: ScalarExpr
    negated: bool = False
    precedence = 4

    def children(self) -> Tuple[ScalarExpr, ...]:
        return (self.operand, self.low, self.high)

    def __str__(self) -> str:
        keyword = "NOT BETWEEN" if self.negated else "BETWEEN"
        return (
            f"{self._child_str(self.operand)} {keyword} "
            f"{self._child_str(self.low)} AND {self._child_str(self.high)}"
        )


@dataclass(frozen=True)
class InList(ScalarExpr):
    """``operand [NOT] IN (item, ...)`` with SQL NULL semantics."""

    operand: ScalarExpr
    items: Tuple[ScalarExpr, ...]
    negated: bool = False
    precedence = 4

    def __post_init__(self) -> None:
        if not self.items:
            raise QueryError("IN requires at least one list item")

    def children(self) -> Tuple[ScalarExpr, ...]:
        return (self.operand,) + self.items

    def __str__(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        inner = ", ".join(str(item) for item in self.items)
        return f"{self._child_str(self.operand)} {keyword} ({inner})"


@dataclass(frozen=True)
class Like(ScalarExpr):
    """``operand [NOT] LIKE 'pattern'`` — ``%`` any run, ``_`` one char."""

    operand: ScalarExpr
    pattern: str
    negated: bool = False
    precedence = 4

    def children(self) -> Tuple[ScalarExpr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        return f"{self._child_str(self.operand)} {keyword} '{self.pattern}'"


@dataclass(frozen=True)
class IsNull(ScalarExpr):
    """``operand IS [NOT] NULL`` — always TRUE or FALSE, never NULL."""

    operand: ScalarExpr
    negated: bool = False
    precedence = 4

    def children(self) -> Tuple[ScalarExpr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        keyword = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self._child_str(self.operand)} {keyword}"


@dataclass(frozen=True)
class Not(ScalarExpr):
    """Three-valued NOT."""

    operand: ScalarExpr
    precedence = 3

    def children(self) -> Tuple[ScalarExpr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"NOT {self._child_str(self.operand, tight=True)}"


@dataclass(frozen=True)
class And(ScalarExpr):
    """N-ary three-valued AND."""

    items: Tuple[ScalarExpr, ...]
    precedence = 2

    def __post_init__(self) -> None:
        if len(self.items) < 2:
            raise QueryError("AND needs at least two operands")

    def children(self) -> Tuple[ScalarExpr, ...]:
        return self.items

    def __str__(self) -> str:
        return " AND ".join(self._child_str(item) for item in self.items)


@dataclass(frozen=True)
class Or(ScalarExpr):
    """N-ary three-valued OR."""

    items: Tuple[ScalarExpr, ...]
    precedence = 1

    def __post_init__(self) -> None:
        if len(self.items) < 2:
            raise QueryError("OR needs at least two operands")

    def children(self) -> Tuple[ScalarExpr, ...]:
        return self.items

    def __str__(self) -> str:
        return " OR ".join(self._child_str(item) for item in self.items)


# ---------------------------------------------------------------------------
# Tree walking helpers
# ---------------------------------------------------------------------------


def walk(expr: ScalarExpr) -> Iterator[ScalarExpr]:
    """Pre-order traversal of the expression tree."""
    yield expr
    for child in expr.children():
        yield from walk(child)


def columns_of(expr: ScalarExpr) -> List[ColumnRef]:
    """Every column reference in the tree, in traversal order, de-duplicated."""
    seen: List[ColumnRef] = []
    for node in walk(expr):
        if isinstance(node, Column) and node.ref not in seen:
            seen.append(node.ref)
    return seen


def aliases_of(expr: ScalarExpr) -> FrozenSet[str]:
    """The set of relation aliases the expression references."""
    return frozenset(ref.alias for ref in columns_of(expr))


def parameters_of(expr: ScalarExpr) -> List[Parameter]:
    """Every parameter slot in the tree, in traversal order."""
    return [node for node in walk(expr) if isinstance(node, Parameter)]


def conjuncts(expr: ScalarExpr) -> List[ScalarExpr]:
    """Flatten top-level ANDs into a list of CNF conjuncts."""
    if isinstance(expr, And):
        out: List[ScalarExpr] = []
        for item in expr.items:
            out.extend(conjuncts(item))
        return out
    return [expr]


def conjoin(exprs: Sequence[ScalarExpr]) -> ScalarExpr:
    """Combine conjuncts back into one expression (AND of all)."""
    if not exprs:
        raise QueryError("cannot conjoin zero expressions")
    if len(exprs) == 1:
        return exprs[0]
    return And(tuple(exprs))


# ---------------------------------------------------------------------------
# Type checking
# ---------------------------------------------------------------------------


def typecheck(
    expr: ScalarExpr,
    column_type: Callable[[ColumnRef], ScalarType],
    parameter_types: Optional[Dict[int, ScalarType]] = None,
) -> ScalarType:
    """Infer the expression's type, raising :class:`QueryError` on a mismatch.

    *column_type* resolves a bound column reference to its declared type.
    *parameter_types*, when given, collects the types parameter slots are
    used at (a parameter compared to an INTEGER column is typed INTEGER);
    conflicting uses of one slot raise.
    """
    params = parameter_types if parameter_types is not None else {}

    def note_parameter(node: ScalarExpr, partner: ScalarType) -> None:
        if not isinstance(node, Parameter) or partner in (ScalarType.NULL, ScalarType.ANY):
            return
        # Numeric slots unify to FLOAT-compatible; a string/numeric clash errors.
        existing = params.get(node.index)
        if existing is None:
            params[node.index] = partner
            return
        if existing is partner:
            return
        if existing.is_numeric and partner.is_numeric:
            if ScalarType.FLOAT in (existing, partner):
                params[node.index] = ScalarType.FLOAT
            return
        raise QueryError(
            f"parameter ${node.index} is used as both {existing.value} and {partner.value}"
        )

    def check(node: ScalarExpr) -> ScalarType:
        if isinstance(node, Literal):
            return type_of_value(node.value)
        if isinstance(node, Column):
            return column_type(node.ref)
        if isinstance(node, Parameter):
            return params.get(node.index, ScalarType.ANY)
        if isinstance(node, Negate):
            inner = check(node.operand)
            if not inner.is_numeric:
                raise QueryError(f"cannot negate {inner.value} expression {node.operand}")
            note_parameter(node.operand, ScalarType.FLOAT)
            return inner if inner is ScalarType.INTEGER else ScalarType.FLOAT
        if isinstance(node, Arithmetic):
            left, right = check(node.left), check(node.right)
            for side, side_type in ((node.left, left), (node.right, right)):
                if not side_type.is_numeric:
                    raise QueryError(
                        f"arithmetic needs numeric operands; {side} is {side_type.value}"
                    )
            # Arithmetic is numeric-only, so a slot meeting a non-concrete
            # partner (another parameter, NULL) still types as FLOAT — the
            # admission check then rejects strings up front.
            concrete = (ScalarType.INTEGER, ScalarType.FLOAT)
            note_parameter(node.left, right if right in concrete else ScalarType.FLOAT)
            note_parameter(node.right, left if left in concrete else ScalarType.FLOAT)
            if node.op is ArithOp.DIV or ScalarType.FLOAT in (left, right):
                return ScalarType.FLOAT
            if left is ScalarType.INTEGER and right is ScalarType.INTEGER:
                return ScalarType.INTEGER
            return ScalarType.FLOAT
        if isinstance(node, Comparison):
            left, right = check(node.left), check(node.right)
            require_comparable(node, left, right)
            note_parameter(node.left, right)
            note_parameter(node.right, left)
            return ScalarType.BOOLEAN
        if isinstance(node, Between):
            value = check(node.operand)
            for bound in (node.low, node.high):
                bound_type = check(bound)
                require_comparable(node, value, bound_type)
                note_parameter(bound, value)
            note_parameter(node.operand, check(node.low))
            return ScalarType.BOOLEAN
        if isinstance(node, InList):
            value = check(node.operand)
            for item in node.items:
                item_type = check(item)
                require_comparable(node, value, item_type)
                note_parameter(item, value)
                note_parameter(node.operand, item_type)
            return ScalarType.BOOLEAN
        if isinstance(node, Like):
            value = check(node.operand)
            if not value.is_stringy:
                raise QueryError(f"LIKE needs a string operand; {node.operand} is {value.value}")
            note_parameter(node.operand, ScalarType.STRING)
            return ScalarType.BOOLEAN
        if isinstance(node, IsNull):
            check(node.operand)
            return ScalarType.BOOLEAN
        if isinstance(node, Not):
            inner = check(node.operand)
            if not inner.is_booleanish:
                raise QueryError(f"NOT needs a boolean operand; {node.operand} is {inner.value}")
            return ScalarType.BOOLEAN
        if isinstance(node, (And, Or)):
            keyword = "AND" if isinstance(node, And) else "OR"
            for item in node.items:
                item_type = check(item)
                if not item_type.is_booleanish:
                    raise QueryError(
                        f"{keyword} needs boolean operands; {item} is {item_type.value}"
                    )
            return ScalarType.BOOLEAN
        raise QueryError(f"unsupported scalar expression {node!r}")  # pragma: no cover

    def require_comparable(node: ScalarExpr, left: ScalarType, right: ScalarType) -> None:
        if left.is_numeric and right.is_numeric:
            return
        if left.is_stringy and right.is_stringy:
            return
        raise QueryError(
            f"cannot compare {left.value} with {right.value} in {node}"
        )

    return check(expr)


# ---------------------------------------------------------------------------
# Shared evaluation pieces
# ---------------------------------------------------------------------------

#: Sentinel a column array may carry for "this row has no such column".
MISSING = object()


class MissingColumnError(QueryError):
    """An evaluated row/batch lacks a column the expression references."""

    def __init__(self, ref: ColumnRef) -> None:
        super().__init__(f"column {ref} is absent from the data")
        self.ref = ref


def like_matcher(pattern: str) -> Callable[[str], bool]:
    """Compile a SQL LIKE pattern into a string predicate."""
    parts: List[str] = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    regex = re.compile("^" + "".join(parts) + "$", re.DOTALL)
    return lambda value: regex.match(value) is not None


def _not3(value: Optional[bool]) -> Optional[bool]:
    return None if value is None else not value


def _and3(values: Sequence[Optional[bool]]) -> Optional[bool]:
    saw_null = False
    for value in values:
        if value is False:
            return False
        if value is None:
            saw_null = True
    return None if saw_null else True


def _or3(values: Sequence[Optional[bool]]) -> Optional[bool]:
    saw_null = False
    for value in values:
        if value is True:
            return True
        if value is None:
            saw_null = True
    return None if saw_null else False


def _between3(value: object, low: object, high: object) -> Optional[bool]:
    """``value BETWEEN low AND high`` decomposed per SQL:
    ``value >= low AND value <= high`` under the Kleene AND — so a NULL bound
    does not force NULL when the other side already decides FALSE."""
    at_least = None if value is None or low is None else value >= low
    at_most = None if value is None or high is None else value <= high
    return _and3((at_least, at_most))


def _in3(value: object, items: Sequence[object]) -> Optional[bool]:
    if value is None:
        return None
    saw_null = False
    for item in items:
        if item is None:
            saw_null = True
        elif item == value:
            return True
    return None if saw_null else False


def resolve_parameter(index: int, parameters: Optional[Sequence[object]]) -> object:
    """The value for a 1-based slot; raises :class:`QueryError` when absent."""
    if parameters is None or index > len(parameters):
        supplied = 0 if parameters is None else len(parameters)
        raise QueryError(
            f"expression references parameter ${index} but only "
            f"{supplied} parameter{'s' if supplied != 1 else ''} supplied"
        )
    return parameters[index - 1]


NameOf = Callable[[ColumnRef], str]
RowFn = Callable[[Mapping[str, object]], object]


# ---------------------------------------------------------------------------
# Backend 1: row-closure compiler (PlanExecutor)
# ---------------------------------------------------------------------------


def compile_row(
    expr: ScalarExpr,
    name_of: NameOf,
    parameters: Optional[Sequence[object]] = None,
) -> RowFn:
    """Compile the expression into a closure tree over row mappings.

    *name_of* maps a bound :class:`ColumnRef` onto the row-dict key it reads
    (unqualified at a scan, ``"alias.column"`` qualified above joins).
    Parameter slots resolve once, at compile time.  The returned callable
    yields the expression's value (``None`` for SQL NULL); for predicates,
    only ``True`` keeps a row.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, Column):
        key = name_of(expr.ref)
        ref = expr.ref

        def read(row: Mapping[str, object]) -> object:
            value = row.get(key, MISSING)
            if value is MISSING:
                raise MissingColumnError(ref)
            return value

        return read
    if isinstance(expr, Parameter):
        value = resolve_parameter(expr.index, parameters)
        return lambda row: value
    if isinstance(expr, Negate):
        inner = compile_row(expr.operand, name_of, parameters)
        return lambda row: None if (v := inner(row)) is None else -v
    if isinstance(expr, Arithmetic):
        left = compile_row(expr.left, name_of, parameters)
        right = compile_row(expr.right, name_of, parameters)
        apply = _ARITHMETIC[expr.op]

        def arith(row: Mapping[str, object]) -> object:
            lv, rv = left(row), right(row)
            if lv is None or rv is None:
                return None
            return apply(lv, rv)

        return arith
    if isinstance(expr, Comparison):
        left = compile_row(expr.left, name_of, parameters)
        right = compile_row(expr.right, name_of, parameters)
        compare = expr.op.comparator

        def comparison(row: Mapping[str, object]) -> Optional[bool]:
            lv, rv = left(row), right(row)
            if lv is None or rv is None:
                return None
            return compare(lv, rv)

        return comparison
    if isinstance(expr, Between):
        value = compile_row(expr.operand, name_of, parameters)
        low = compile_row(expr.low, name_of, parameters)
        high = compile_row(expr.high, name_of, parameters)
        negated = expr.negated

        def between(row: Mapping[str, object]) -> Optional[bool]:
            result = _between3(value(row), low(row), high(row))
            return _not3(result) if negated else result

        return between
    if isinstance(expr, InList):
        value = compile_row(expr.operand, name_of, parameters)
        items = [compile_row(item, name_of, parameters) for item in expr.items]
        negated = expr.negated

        def in_list(row: Mapping[str, object]) -> Optional[bool]:
            result = _in3(value(row), [item(row) for item in items])
            return _not3(result) if negated else result

        return in_list
    if isinstance(expr, Like):
        value = compile_row(expr.operand, name_of, parameters)
        match = like_matcher(expr.pattern)
        negated = expr.negated

        def like(row: Mapping[str, object]) -> Optional[bool]:
            v = value(row)
            if v is None:
                return None
            if not isinstance(v, str):
                raise QueryError(f"LIKE operand must be a string, got {v!r}")
            result = match(v)
            return not result if negated else result

        return like
    if isinstance(expr, IsNull):
        value = compile_row(expr.operand, name_of, parameters)
        negated = expr.negated
        if negated:
            return lambda row: value(row) is not None
        return lambda row: value(row) is None
    if isinstance(expr, Not):
        inner = compile_row(expr.operand, name_of, parameters)
        return lambda row: _not3(inner(row))
    if isinstance(expr, And):
        fns = [compile_row(item, name_of, parameters) for item in expr.items]
        return lambda row: _and3([fn(row) for fn in fns])
    if isinstance(expr, Or):
        fns = [compile_row(item, name_of, parameters) for item in expr.items]
        return lambda row: _or3([fn(row) for fn in fns])
    raise QueryError(f"unsupported scalar expression {expr!r}")  # pragma: no cover


def compile_predicate(
    expr: ScalarExpr,
    name_of: NameOf,
    parameters: Optional[Sequence[object]] = None,
) -> Callable[[Mapping[str, object]], bool]:
    """Like :func:`compile_row`, but collapses 3VL to "keep the row or not":
    the result is ``True`` only when the predicate evaluates to exactly TRUE.
    """
    fn = compile_row(expr, name_of, parameters)
    return lambda row: fn(row) is True


def interpret(
    expr: ScalarExpr,
    row: Mapping[str, object],
    name_of: NameOf,
    parameters: Optional[Sequence[object]] = None,
) -> object:
    """Naive per-row tree-walk evaluation (the benchmark baseline).

    Semantically identical to calling the :func:`compile_row` closure, but
    re-dispatches on node types for every row — what an engine without the
    compilation step would do.
    """
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Column):
        value = row.get(name_of(expr.ref), MISSING)
        if value is MISSING:
            raise MissingColumnError(expr.ref)
        return value
    if isinstance(expr, Parameter):
        return resolve_parameter(expr.index, parameters)
    if isinstance(expr, Negate):
        value = interpret(expr.operand, row, name_of, parameters)
        return None if value is None else -value
    if isinstance(expr, Arithmetic):
        left = interpret(expr.left, row, name_of, parameters)
        right = interpret(expr.right, row, name_of, parameters)
        if left is None or right is None:
            return None
        return _ARITHMETIC[expr.op](left, right)
    if isinstance(expr, Comparison):
        left = interpret(expr.left, row, name_of, parameters)
        right = interpret(expr.right, row, name_of, parameters)
        if left is None or right is None:
            return None
        return expr.op.evaluate(left, right)
    if isinstance(expr, Between):
        result = _between3(
            interpret(expr.operand, row, name_of, parameters),
            interpret(expr.low, row, name_of, parameters),
            interpret(expr.high, row, name_of, parameters),
        )
        return _not3(result) if expr.negated else result
    if isinstance(expr, InList):
        value = interpret(expr.operand, row, name_of, parameters)
        items = [interpret(item, row, name_of, parameters) for item in expr.items]
        result = _in3(value, items)
        return _not3(result) if expr.negated else result
    if isinstance(expr, Like):
        value = interpret(expr.operand, row, name_of, parameters)
        if value is None:
            return None
        if not isinstance(value, str):
            raise QueryError(f"LIKE operand must be a string, got {value!r}")
        result = like_matcher(expr.pattern)(value)
        return not result if expr.negated else result
    if isinstance(expr, IsNull):
        value = interpret(expr.operand, row, name_of, parameters)
        return (value is not None) if expr.negated else (value is None)
    if isinstance(expr, Not):
        return _not3(interpret(expr.operand, row, name_of, parameters))
    if isinstance(expr, And):
        return _and3([interpret(item, row, name_of, parameters) for item in expr.items])
    if isinstance(expr, Or):
        return _or3([interpret(item, row, name_of, parameters) for item in expr.items])
    raise QueryError(f"unsupported scalar expression {expr!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Backend 2: batched evaluation over selection vectors (VectorizedExecutor)
# ---------------------------------------------------------------------------

Resolve = Callable[[ColumnRef], Sequence[object]]


def evaluate_batch(
    expr: ScalarExpr,
    resolve: Resolve,
    indices: Sequence[int],
    parameters: Optional[Sequence[object]] = None,
    keep_typed: bool = False,
) -> List[object]:
    """Evaluate the expression over column arrays at the given positions.

    *resolve* maps a column reference onto an indexable array (a stored
    column, a batch pivot, or a view column); it raises
    :class:`MissingColumnError` itself when the column does not exist at
    all.  Array entries may be :data:`MISSING` for ragged row data — reading
    one raises, matching the row backend.  Returns one value per entry of
    *indices*, in order.

    Column/constant/negation/arithmetic trees whose columns all resolve to
    typed buffers (:class:`repro.storage.buffers.TypedColumn`, probed by
    ``getattr`` like :func:`compile_filter`'s ``filter_*``) evaluate in the
    buffers' numpy kernels; a kernel refuses wherever it could differ from
    the per-value code below, which then runs as if nothing had been tried.
    With *keep_typed* — the aggregate kernels' way in — the result is the
    typed buffer itself and a tree the kernels cannot take raises
    :class:`~repro.common.errors.KernelRefused` instead of evaluating twice.
    """
    if keep_typed or isinstance(expr, (Column, Negate, Arithmetic)):
        try:
            typed = _typed_operand(expr, resolve, indices, parameters)
        except KernelRefused:
            if keep_typed:
                raise
            typed = _UNTYPED
        if hasattr(typed, "arith"):  # a buffer, not a folded constant
            return typed if keep_typed else typed.tolist()
        if keep_typed:
            raise KernelRefused("text-values")
    count = len(indices)
    if isinstance(expr, Literal):
        return [expr.value] * count
    if isinstance(expr, Column):
        array = resolve(expr.ref)
        values = [array[index] for index in indices]
        for value in values:
            if value is MISSING:
                raise MissingColumnError(expr.ref)
        return values
    if isinstance(expr, Parameter):
        return [resolve_parameter(expr.index, parameters)] * count
    if isinstance(expr, Negate):
        inner = evaluate_batch(expr.operand, resolve, indices, parameters)
        return [None if value is None else -value for value in inner]
    if isinstance(expr, Arithmetic):
        left = evaluate_batch(expr.left, resolve, indices, parameters)
        right = evaluate_batch(expr.right, resolve, indices, parameters)
        apply = _ARITHMETIC[expr.op]
        return [
            None if lv is None or rv is None else apply(lv, rv)
            for lv, rv in zip(left, right)
        ]
    if isinstance(expr, Comparison):
        left = evaluate_batch(expr.left, resolve, indices, parameters)
        right = evaluate_batch(expr.right, resolve, indices, parameters)
        compare = expr.op.comparator
        return [
            None if lv is None or rv is None else compare(lv, rv)
            for lv, rv in zip(left, right)
        ]
    if isinstance(expr, Between):
        values = evaluate_batch(expr.operand, resolve, indices, parameters)
        lows = evaluate_batch(expr.low, resolve, indices, parameters)
        highs = evaluate_batch(expr.high, resolve, indices, parameters)
        if expr.negated:
            return [
                _not3(_between3(v, lo, hi)) for v, lo, hi in zip(values, lows, highs)
            ]
        return [_between3(v, lo, hi) for v, lo, hi in zip(values, lows, highs)]
    if isinstance(expr, InList):
        values = evaluate_batch(expr.operand, resolve, indices, parameters)
        item_columns = [
            evaluate_batch(item, resolve, indices, parameters) for item in expr.items
        ]
        out: List[object] = []
        for position, value in enumerate(values):
            result = _in3(value, [items[position] for items in item_columns])
            out.append(_not3(result) if expr.negated else result)
        return out
    if isinstance(expr, Like):
        values = evaluate_batch(expr.operand, resolve, indices, parameters)
        match = like_matcher(expr.pattern)
        out = []
        for value in values:
            if value is None:
                out.append(None)
                continue
            if not isinstance(value, str):
                raise QueryError(f"LIKE operand must be a string, got {value!r}")
            result = match(value)
            out.append(not result if expr.negated else result)
        return out
    if isinstance(expr, IsNull):
        values = evaluate_batch(expr.operand, resolve, indices, parameters)
        if expr.negated:
            return [value is not None for value in values]
        return [value is None for value in values]
    if isinstance(expr, Not):
        return [_not3(value) for value in evaluate_batch(expr.operand, resolve, indices, parameters)]
    if isinstance(expr, (And, Or)):
        columns = [evaluate_batch(item, resolve, indices, parameters) for item in expr.items]
        combine = _and3 if isinstance(expr, And) else _or3
        return [combine(row_values) for row_values in zip(*columns)]
    raise QueryError(f"unsupported scalar expression {expr!r}")  # pragma: no cover


#: :func:`_typed_operand`'s "the typed kernels do not cover this subtree".
_UNTYPED = object()
_NUMBERS = (int, float)


def _typed_operand(
    expr: ScalarExpr,
    resolve: Resolve,
    indices: Sequence[int],
    parameters: Optional[Sequence[object]],
) -> object:
    """The subtree as a typed buffer or numeric constant, else ``_UNTYPED``.

    Buffers are whatever *resolve* hands back that has the kernel methods
    (``take`` / ``negate`` / ``arith``); they never hold :data:`MISSING`.
    """
    if isinstance(expr, Column):
        take = getattr(resolve(expr.ref), "take", None)
        taken = take(indices) if take is not None else None
        return _UNTYPED if taken is None else taken
    if isinstance(expr, (Literal, Parameter)):
        value = _constant_of(expr, parameters)
        return value if type(value) in _NUMBERS else _UNTYPED
    if isinstance(expr, Negate):
        inner = _typed_operand(expr.operand, resolve, indices, parameters)
        if inner is _UNTYPED:
            return _UNTYPED
        return -inner if type(inner) in _NUMBERS else inner.negate()
    if isinstance(expr, Arithmetic):
        left = _typed_operand(expr.left, resolve, indices, parameters)
        right = _typed_operand(expr.right, resolve, indices, parameters)
        if left is _UNTYPED or right is _UNTYPED:
            return _UNTYPED
        if type(left) not in _NUMBERS:
            return left.arith(expr.op.value, right)
        if type(right) not in _NUMBERS:
            return right.arith(expr.op.value, left, True)
        folded = _ARITHMETIC[expr.op](left, right)
        return _UNTYPED if folded is None else folded
    return _UNTYPED


def filter_batch(
    expr: ScalarExpr,
    resolve: Resolve,
    indices: Sequence[int],
    parameters: Optional[Sequence[object]] = None,
) -> List[int]:
    """Selection vector of positions where the predicate is exactly TRUE."""
    return compile_filter(expr, parameters)(resolve, indices)


#: A compiled predicate over column arrays: selection vector in, the subset
#: where the predicate is exactly TRUE out (input order preserved).
FilterFn = Callable[[Resolve, Sequence[int]], List[int]]

#: Sentinel for "this operand is not a compile-time constant".
_NOT_CONST = object()


def _constant_of(node: ScalarExpr, parameters: Optional[Sequence[object]]) -> object:
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, Parameter):
        return resolve_parameter(node.index, parameters)
    return _NOT_CONST


def _never(resolve: Resolve, indices: Sequence[int]) -> List[int]:
    return []


def compile_filter(
    expr: ScalarExpr,
    parameters: Optional[Sequence[object]] = None,
) -> FilterFn:
    """Compile a predicate into a selection-vector transform.

    The sargable shapes — a column compared to (or BETWEEN / IN) constants,
    column-to-column comparisons, ``IS [NOT] NULL`` — compile to tight
    per-position loops over the resolved arrays, skipping the intermediate
    value columns :func:`evaluate_batch` would build; ``AND`` / ``OR``
    combine compiled arms by set intersection/union over the *full* input
    selection (totality: every arm sees every position, so a reference to a
    missing column raises exactly when the row backend would).  Everything
    else falls back to the generic batched evaluator.  Parameter slots
    resolve once, at compile time, like :func:`compile_row`.

    When the resolved array is a typed buffer
    (:class:`repro.storage.buffers.TypedColumn`), each sargable closure first
    probes the buffer's vectorized kernel (``filter_compare`` & friends) via
    ``getattr`` — duck typing keeps this module free of storage imports.  A
    kernel returns ``None`` whenever vectorized evaluation could diverge
    from exact Python comparison semantics, in which case the loop below
    runs unchanged; a typed buffer never holds :data:`MISSING`, so the
    kernels don't need the ragged-row check.
    """
    if isinstance(expr, And):
        arms = [compile_filter(item, parameters) for item in expr.items]

        def conjunction(resolve: Resolve, indices: Sequence[int]) -> List[int]:
            passed = [arm(resolve, indices) for arm in arms]
            chosen = set(passed[0])
            for arm_result in passed[1:]:
                chosen.intersection_update(arm_result)
            return [index for index in indices if index in chosen]

        return conjunction
    if isinstance(expr, Or):
        arms = [compile_filter(item, parameters) for item in expr.items]

        def disjunction(resolve: Resolve, indices: Sequence[int]) -> List[int]:
            chosen: set = set()
            for arm in arms:
                chosen.update(arm(resolve, indices))
            return [index for index in indices if index in chosen]

        return disjunction
    if isinstance(expr, Comparison):
        compare = expr.op.comparator
        left, right = expr.left, expr.right
        if isinstance(left, Column) and isinstance(right, Column):
            left_ref, right_ref = left.ref, right.ref

            op_symbol = expr.op.value

            def column_to_column(resolve: Resolve, indices: Sequence[int]) -> List[int]:
                left_values = resolve(left_ref)
                right_values = resolve(right_ref)
                fast = getattr(left_values, "filter_compare_with", None)
                if fast is not None:
                    hits = fast(right_values, op_symbol, indices)
                    if hits is not None:
                        return hits
                out: List[int] = []
                append = out.append
                for index in indices:
                    lv = left_values[index]
                    rv = right_values[index]
                    if lv is MISSING:
                        raise MissingColumnError(left_ref)
                    if rv is MISSING:
                        raise MissingColumnError(right_ref)
                    if lv is not None and rv is not None and compare(lv, rv):
                        append(index)
                return out

            return column_to_column
        for column, other, flipped in ((left, right, False), (right, left, True)):
            if not isinstance(column, Column):
                continue
            constant = _constant_of(other, parameters)
            if constant is _NOT_CONST:
                continue
            if constant is None:
                return _never  # NULL never compares TRUE
            ref = column.ref

            def column_to_constant(
                resolve: Resolve,
                indices: Sequence[int],
                ref=ref,
                constant=constant,
                flipped=flipped,
                op_symbol=expr.op.value,
            ) -> List[int]:
                values = resolve(ref)
                fast = getattr(values, "filter_compare", None)
                if fast is not None:
                    hits = fast(op_symbol, constant, indices, flipped)
                    if hits is not None:
                        return hits
                out: List[int] = []
                append = out.append
                for index in indices:
                    value = values[index]
                    if value is None:
                        continue
                    if value is MISSING:
                        raise MissingColumnError(ref)
                    if compare(constant, value) if flipped else compare(value, constant):
                        append(index)
                return out

            return column_to_constant
    if isinstance(expr, Between) and isinstance(expr.operand, Column):
        low = _constant_of(expr.low, parameters)
        high = _constant_of(expr.high, parameters)
        if low is not _NOT_CONST and high is not _NOT_CONST:
            if low is None or high is None:
                # One NULL bound: the Kleene AND of the two comparisons is
                # NULL or FALSE, never TRUE — but its negation can be TRUE,
                # so only the positive form short-circuits to empty.
                if not expr.negated:
                    return _never
                return _generic_filter(expr, parameters)
            ref = expr.operand.ref
            negated = expr.negated

            def between(resolve: Resolve, indices: Sequence[int]) -> List[int]:
                values = resolve(ref)
                fast = getattr(values, "filter_between", None)
                if fast is not None:
                    hits = fast(low, high, negated, indices)
                    if hits is not None:
                        return hits
                out: List[int] = []
                append = out.append
                for index in indices:
                    value = values[index]
                    if value is None:
                        continue
                    if value is MISSING:
                        raise MissingColumnError(ref)
                    if (low <= value <= high) is not negated:
                        append(index)
                return out

            return between
    if isinstance(expr, InList) and isinstance(expr.operand, Column):
        constants = [_constant_of(item, parameters) for item in expr.items]
        if all(constant is not _NOT_CONST for constant in constants):
            has_null = any(constant is None for constant in constants)
            pool = frozenset(constant for constant in constants if constant is not None)
            ref = expr.operand.ref
            if expr.negated:
                if has_null:
                    return _never  # NOT IN with a NULL item is never TRUE

                def not_in_list(resolve: Resolve, indices: Sequence[int]) -> List[int]:
                    values = resolve(ref)
                    fast = getattr(values, "filter_in", None)
                    if fast is not None:
                        hits = fast(pool, True, indices)
                        if hits is not None:
                            return hits
                    out: List[int] = []
                    append = out.append
                    for index in indices:
                        value = values[index]
                        if value is None:
                            continue
                        if value is MISSING:
                            raise MissingColumnError(ref)
                        if value not in pool:
                            append(index)
                    return out

                return not_in_list

            def in_list(resolve: Resolve, indices: Sequence[int]) -> List[int]:
                # A NULL item only turns FALSE into NULL; the TRUE set is
                # unchanged, so membership in the non-null pool is exact.
                values = resolve(ref)
                fast = getattr(values, "filter_in", None)
                if fast is not None:
                    hits = fast(pool, False, indices)
                    if hits is not None:
                        return hits
                out: List[int] = []
                append = out.append
                for index in indices:
                    value = values[index]
                    if value is None:
                        continue
                    if value is MISSING:
                        raise MissingColumnError(ref)
                    if value in pool:
                        append(index)
                return out

            return in_list
    if isinstance(expr, IsNull) and isinstance(expr.operand, Column):
        ref = expr.operand.ref
        want_null = not expr.negated

        def is_null(resolve: Resolve, indices: Sequence[int]) -> List[int]:
            values = resolve(ref)
            fast = getattr(values, "filter_null", None)
            if fast is not None:
                return fast(want_null, indices)
            out: List[int] = []
            append = out.append
            for index in indices:
                value = values[index]
                if value is MISSING:
                    raise MissingColumnError(ref)
                if (value is None) is want_null:
                    append(index)
            return out

        return is_null

    return _generic_filter(expr, parameters)


def _generic_filter(expr: ScalarExpr, parameters: Optional[Sequence[object]]) -> FilterFn:
    def generic(resolve: Resolve, indices: Sequence[int]) -> List[int]:
        truth = evaluate_batch(expr, resolve, indices, parameters)
        return [index for index, value in zip(indices, truth) if value is True]

    return generic
