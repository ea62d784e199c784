"""Exception hierarchy shared by all repro subpackages."""

from typing import Optional, Tuple


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SchemaError(ReproError):
    """A table, column or index reference does not match the schema."""


class CatalogError(ReproError):
    """Statistics or metadata were requested for an unknown object."""


class QueryError(ReproError):
    """The query specification is malformed (unknown alias, bad predicate...)."""


class OptimizationError(ReproError):
    """The optimizer could not produce a plan for the query."""


class ExecutionError(ReproError):
    """The execution engine failed while running a physical plan."""


class AdaptationError(ReproError):
    """The adaptive controller was asked to do something inconsistent."""


class KernelRefused(ReproError):
    """A typed aggregate kernel declined an input it cannot compute exactly.

    Control flow between the buffer kernels (:mod:`repro.storage.buffers`),
    the batch evaluator and the vectorized engine, which then runs its
    generic Python path and reports ``reason`` — one of
    :data:`REFUSAL_REASONS`.  It never reaches a caller of the public API.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


#: Why an aggregate ran on the generic path (``repro_aggregate_kernel_total``'s
#: ``reason`` label, the operator span's attribute, EXPLAIN ANALYZE's word).
REFUSAL_REASONS = (
    "no-numpy",  # numpy is not importable: no kernel exists
    "small-input",  # fewer rows than array set-up is worth
    "text-values",  # an aggregate input or arithmetic operand is not a typed buffer
    "distinct",  # DISTINCT aggregates deduplicate through Python sets
    "overflow-bound",  # int64 arithmetic or SUM could overflow where Python ints grow
    "inexact-int",  # an int beyond 2**53 would round on its way through float64
    "nan",  # a NaN (or, under MIN/MAX, a -0.0) whose Python ordering numpy does not reproduce
    "missing",  # an aggregated column is absent from the child (reads as all-NULL)
)


class SqlError(ReproError):
    """Base class for errors raised by the SQL frontend.

    Carries an optional 1-based ``(line, column)`` position and the source
    text so messages can point at the offending token::

        SQL error at line 1, column 27: unknown column 'c_custky'
          SELECT * FROM customer WHERE c_custky = 1
                                       ^
    """

    def __init__(
        self,
        message: str,
        position: Optional[Tuple[int, int]] = None,
        source: Optional[str] = None,
    ) -> None:
        self.bare_message = message
        self.position = position
        self.source = source
        super().__init__(self._render(message, position, source))

    @staticmethod
    def _render(
        message: str,
        position: Optional[Tuple[int, int]],
        source: Optional[str],
    ) -> str:
        if position is None:
            return message
        line, column = position
        rendered = f"at line {line}, column {column}: {message}"
        if source is not None:
            lines = source.splitlines()
            if 1 <= line <= len(lines):
                rendered += f"\n  {lines[line - 1]}\n  {' ' * (column - 1)}^"
        return rendered


class SqlSyntaxError(SqlError):
    """The query text could not be tokenized or parsed."""


class SqlBindingError(SqlError):
    """The query parsed but references unknown tables/columns or is ambiguous."""
