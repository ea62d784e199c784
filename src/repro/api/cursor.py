"""PEP 249-flavored cursors over a :class:`~repro.api.database.Database`.

A :class:`Cursor` buffers one statement's result set and exposes the familiar
``execute`` / ``executemany`` / ``fetchone`` / ``fetchmany`` / ``fetchall`` /
``description`` surface.  Fetched rows are tuples ordered like
``description`` — the very tuples the statement built, with no dict in
between; the richer :class:`~repro.api.database.StatementResult` (a dict
view of the rows, plan, execution, cache flag) stays reachable as
:attr:`Cursor.result`.

``EXPLAIN`` output is presented relationally too: a single ``plan`` column
with one row per plan line, so ``for (line,) in cur.execute("EXPLAIN ...")``
just works.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.api.database import StatementResult
from repro.common.errors import SqlError
from repro.sql.parser import normalize_statement

#: DB-API description entry: (name, type_code, display_size, internal_size,
#: precision, scale, null_ok) — only the name is meaningful here.
DescriptionRow = Tuple[str, None, None, None, None, None, None]


class Cursor:
    """A statement executor plus forward-only result buffer."""

    arraysize = 1

    def __init__(self, connection) -> None:
        self.connection = connection
        self.description: Optional[List[DescriptionRow]] = None
        self.rowcount: int = -1
        self.result: Optional[StatementResult] = None
        self._rows: List[Tuple[object, ...]] = []
        self._cursor = 0
        self._closed = False

    # -- execution -------------------------------------------------------

    def execute(self, sql: str, parameters: Optional[Sequence[object]] = None) -> "Cursor":
        """Run one statement; returns self so calls chain (sqlite3-style)."""
        self._check_open()
        result = self.connection._execute(sql, parameters)
        self._install(result)
        return self

    def executemany(
        self, sql: str, seq_of_parameters: Sequence[Sequence[object]]
    ) -> "Cursor":
        """Run one parameterized statement once per parameter set.

        The plan cache makes the repeats cheap: every execution after the
        first reuses the cached parse→bind→optimize work.  Statements that
        produce rows are rejected, per DB-API convention.
        """
        self._check_open()
        kind, _ = normalize_statement(sql)
        if kind != "other":
            # Rejected before anything runs: no monitor/plan-cache side effects.
            raise SqlError("executemany() cannot be used with SELECT statements")
        total = 0
        last: Optional[StatementResult] = None
        for parameters in seq_of_parameters:
            result = self.connection._execute(sql, parameters)
            total += max(result.rowcount, 0)
            last = result
        self.result = last
        self.description = None
        self._rows = []
        self._cursor = 0
        self.rowcount = total if last is not None else -1
        return self

    def executescript(self, script: str) -> "Cursor":
        """Run a ``;``-separated script; the last statement's result is kept."""
        self._check_open()
        results = self.connection.database.execute_script(script)
        if results:
            self._install(results[-1])
        return self

    def _install(self, result: StatementResult) -> None:
        self.result = result
        self._cursor = 0
        if result.plan_text is not None:
            self.description = [_description_entry("plan")]
            self._rows = [(line,) for line in result.plan_text.splitlines()]
            self.rowcount = len(self._rows)
        elif result.statement == "select":
            self.description = [_description_entry(name) for name in result.columns]
            self._rows = result.tuples
            self.rowcount = len(self._rows)
        else:
            self.description = None
            self._rows = []
            self.rowcount = result.rowcount

    # -- fetching --------------------------------------------------------

    def fetchone(self) -> Optional[Tuple[object, ...]]:
        self._check_open()
        if self._cursor >= len(self._rows):
            return None
        row = self._rows[self._cursor]
        self._cursor += 1
        return row

    def fetchmany(self, size: Optional[int] = None) -> List[Tuple[object, ...]]:
        self._check_open()
        if size is None:
            size = self.arraysize
        rows = self._rows[self._cursor : self._cursor + size]
        self._cursor += len(rows)
        return rows

    def fetchall(self) -> List[Tuple[object, ...]]:
        self._check_open()
        rows = self._rows[self._cursor :]
        self._cursor = len(self._rows)
        return rows

    def __iter__(self) -> Iterator[Tuple[object, ...]]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        self._closed = True
        self._rows = []
        self.result = None

    def _check_open(self) -> None:
        if self._closed:
            raise SqlError("cursor is closed")
        self.connection._check_open()

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _description_entry(name: str) -> DescriptionRow:
    return (name, None, None, None, None, None, None)
