"""Blocking-socket client for the repro wire protocol.

A :class:`RemoteConnection` speaks the length-prefixed JSON frames of
:mod:`repro.server.protocol` over one TCP socket.  Requests are synchronous
(send one frame, read one reply), which matches the DB-API execution model;
result sets larger than the server's inline threshold are pulled through
``fetch`` frames transparently, so callers always see complete results.

:class:`RemoteResult` mirrors the fields of
:class:`~repro.api.database.StatementResult` that travel over the wire
(statement kind, columns, rows as tuples, rowcount, plan text, cache
flag), which is exactly the surface :class:`~repro.api.cursor.Cursor` consumes — the local
cursor class is reused unchanged.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.cursor import Cursor
from repro.common.errors import SqlError
from repro.server.protocol import raise_error_payload, recv_frame, send_frame

__all__ = ["connect", "RemoteConnection", "RemotePreparedStatement", "RemoteResult"]

Row = Dict[str, object]


def connect(host: str, port: int, *, timeout: Optional[float] = 30.0) -> "RemoteConnection":
    """Open a wire connection to a ``repro-serve`` instance."""
    return RemoteConnection(host, port, timeout=timeout)


@dataclass
class RemoteResult:
    """One statement's outcome as received over the wire.

    Field-compatible with the slice of
    :class:`~repro.api.database.StatementResult` the cursor layer reads;
    ``query``/``optimization``/``execution`` stay server-side.  Rows arrive
    as arrays and are kept as ``tuples``; :attr:`rows` is a dict view of
    them, built on first access.
    """

    statement: str
    columns: List[str] = field(default_factory=list)
    tuples: List[Tuple[object, ...]] = field(default_factory=list)
    rowcount: int = -1
    plan_text: Optional[str] = None
    parameter_count: int = 0
    from_cache: bool = False
    #: the server-side trace id, when the server runs with tracing on
    trace_id: Optional[str] = None
    _rows: Optional[List[Row]] = field(default=None, init=False, repr=False, compare=False)

    @property
    def rows(self) -> List[Row]:
        """The rows as dicts keyed by column name (a view of ``tuples``)."""
        if self._rows is None:
            columns = self.columns
            self._rows = [dict(zip(columns, row)) for row in self.tuples]
        return self._rows

    @property
    def row_count(self) -> int:
        return len(self.tuples)

    def __str__(self) -> str:
        if self.plan_text is not None:
            return self.plan_text
        header = "\t".join(self.columns)
        lines = [header] if header else []
        for row in self.tuples:
            lines.append("\t".join(str(value) for value in row))
        return "\n".join(lines)


class RemotePreparedStatement:
    """A server-side prepared statement: ``execute(params)`` to run it."""

    def __init__(self, connection: "RemoteConnection", statement_id: int, parameter_count: int):
        self.connection = connection
        self.statement_id = statement_id
        self.parameter_count = parameter_count

    def execute(self, parameters: Optional[Sequence[object]] = None) -> RemoteResult:
        frame = {"type": "execute", "statement_id": self.statement_id}
        if parameters is not None:
            frame["params"] = list(parameters)
        return self.connection._result(self.connection._request(frame))


class RemoteConnection:
    """A DB-API-shaped connection over one wire socket.

    One frame in flight at a time (requests lock the socket), matching the
    synchronous cursor model; open several connections for parallelism.
    """

    def __init__(self, host: str, port: int, *, timeout: Optional[float] = 30.0) -> None:
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._lock = threading.Lock()
        self._closed = False
        hello = self._read()
        if hello.get("type") != "hello":
            self._sock.close()
            raise SqlError(f"unexpected server greeting {hello.get('type')!r}")
        #: the server-assigned session id scoping this connection's feedback
        self.session_id: str = hello.get("session", "")

    # -- frame plumbing ----------------------------------------------------

    def _read(self) -> dict:
        frame = recv_frame(self._sock)
        if frame is None:
            self._closed = True
            raise SqlError("server closed the connection")
        return frame

    def _request(self, frame: dict) -> dict:
        self._check_open()
        with self._lock:
            send_frame(self._sock, frame)
            reply = self._read()
        if reply.get("type") == "error":
            raise_error_payload(reply)
        return reply

    def _result(self, payload: dict) -> RemoteResult:
        rows = [tuple(row) for row in payload.get("rows", [])]
        result_id = payload.get("result_id")
        while result_id is not None:
            chunk = self._request({"type": "fetch", "result_id": result_id})
            rows.extend(tuple(row) for row in chunk.get("rows", []))
            if chunk.get("done"):
                break
        return RemoteResult(
            statement=payload.get("statement", ""),
            columns=list(payload.get("columns", [])),
            tuples=rows,
            rowcount=payload.get("rowcount", -1),
            plan_text=payload.get("plan_text"),
            parameter_count=payload.get("parameter_count", 0),
            from_cache=bool(payload.get("from_cache", False)),
            trace_id=payload.get("trace_id"),
        )

    # -- the DB-API-facing surface ----------------------------------------

    def cursor(self) -> Cursor:
        self._check_open()
        return Cursor(self)

    def execute(self, sql: str, parameters: Optional[Sequence[object]] = None) -> Cursor:
        """Open a cursor and execute in one call (sqlite3-style)."""
        return self.cursor().execute(sql, parameters)

    def _execute(self, sql: str, parameters: Optional[Sequence[object]]) -> RemoteResult:
        frame: dict = {"type": "query", "sql": sql}
        if parameters is not None:
            frame["params"] = list(parameters)
        return self._result(self._request(frame))

    def execute_script(self, sql: str) -> List[RemoteResult]:
        reply = self._request({"type": "script", "sql": sql})
        return [self._result(payload) for payload in reply.get("results", [])]

    def executescript(self, script: str) -> List[RemoteResult]:
        return self.execute_script(script)

    def prepare(
        self, sql: str, parameters: Optional[Sequence[object]] = None
    ) -> RemotePreparedStatement:
        frame: dict = {"type": "prepare", "sql": sql}
        if parameters is not None:
            frame["params"] = list(parameters)
        reply = self._request(frame)
        return RemotePreparedStatement(
            self, reply["statement_id"], reply.get("parameter_count", 0)
        )

    @property
    def database(self) -> "RemoteConnection":
        # Cursor.executescript reaches for connection.database.execute_script;
        # remotely the connection itself plays that role.
        return self

    # -- introspection -----------------------------------------------------

    def tables(self) -> List[str]:
        return list(self._request({"type": "tables"}).get("tables", []))

    def stats(self) -> Dict[str, object]:
        return self._request({"type": "stats"}).get("stats", {})

    def metrics(self) -> Dict[str, object]:
        """The server's metrics-registry snapshot (counters/gauges/histograms)."""
        return self._request({"type": "metrics"}).get("metrics", {})

    def prometheus_metrics(self) -> str:
        """The server's metrics in the Prometheus text exposition format."""
        reply = self._request({"type": "metrics", "format": "prometheus"})
        return str(reply.get("text", ""))

    def traces(self, limit: Optional[int] = None) -> List[dict]:
        """Recent server-side statement traces, oldest first."""
        frame: dict = {"type": "traces"}
        if limit is not None:
            frame["limit"] = limit
        return list(self._request(frame).get("traces", []))

    def events(self, kind: Optional[str] = None, limit: Optional[int] = None) -> List[dict]:
        """Server observability events (re-optimizations, slow queries)."""
        frame: dict = {"type": "events"}
        if kind is not None:
            frame["kind"] = kind
        if limit is not None:
            frame["limit"] = limit
        return list(self._request(frame).get("events", []))

    def refresh_cached_plans(self) -> int:
        """Ask the server for an incremental re-optimization pass."""
        return int(self._request({"type": "refresh"}).get("refreshed", 0))

    # -- transactions (autocommit, like the in-process store) --------------

    def commit(self) -> None:
        self._check_open()

    def rollback(self) -> None:
        raise SqlError("rollback is not supported: the store is autocommit")

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise SqlError("connection is closed")

    def __enter__(self) -> "RemoteConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
