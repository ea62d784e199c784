"""The asyncio wire server: ``repro-serve``.

One :class:`ReproServer` serves one shared
:class:`~repro.api.database.Database` over TCP.  The event loop only frames
and dispatches; every statement is submitted to a
:class:`~repro.server.pool.StatementExecutorPool` and awaited, so a slow
query on one connection never stalls another connection's frames.

Each wire connection gets

* a **session id** (registered with the database), tagging its executions in
  the shared runtime monitor so concurrent clients' adaptive feedback stays
  scoped per session while they share one plan cache;
* its own **prepared-statement registry** (``prepare`` → ``statement_id`` →
  ``execute``), backed by the database-wide plan cache — two clients
  preparing the same SQL share the cached plan;
* a **result spool**: result sets above ``inline_rows`` are paged to the
  client through ``fetch`` frames instead of one giant frame.

:func:`start_server_thread` runs a server on a background thread (tests,
notebooks, the example script); :func:`main` is the ``repro-serve`` console
entry point.
"""

from __future__ import annotations

import argparse
import asyncio
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.database import Database, StatementResult
from repro.common.errors import ReproError, SqlError
from repro.server.pool import StatementExecutorPool
from repro.server.protocol import (
    ProtocolError,
    encode_frame,
    error_payload,
    read_frame,
    result_payload,
)

__all__ = ["ReproServer", "ServerHandle", "start_server_thread", "main", "DEFAULT_PORT"]

DEFAULT_PORT = 7531
#: result sets at most this many rows ride inline on the result frame;
#: larger ones are spooled and paged out through ``fetch`` frames.
DEFAULT_INLINE_ROWS = 512


class _ClientState:
    """Per-wire-connection state: session, prepared statements, spools."""

    __slots__ = ("session", "prepared", "spools", "_next_statement", "_next_spool")

    def __init__(self, session: str) -> None:
        self.session = session
        self.prepared: Dict[int, str] = {}
        self.spools: Dict[int, Tuple[List[Sequence[object]], int]] = {}
        self._next_statement = 0
        self._next_spool = 0

    def register_statement(self, sql: str) -> int:
        self._next_statement += 1
        self.prepared[self._next_statement] = sql
        return self._next_statement

    def register_spool(self, rows: List[Sequence[object]]) -> int:
        self._next_spool += 1
        self.spools[self._next_spool] = (rows, 0)
        return self._next_spool


class ReproServer:
    """Serve one shared Database over length-prefixed JSON frames."""

    def __init__(
        self,
        database: Database,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 4,
        pool_size: Optional[int] = None,
        inline_rows: int = DEFAULT_INLINE_ROWS,
    ) -> None:
        self.database = database
        self.host = host
        self.port = port
        self.inline_rows = inline_rows
        self.executor = StatementExecutorPool(database, workers, pool_size=pool_size)
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections = 0
        self._active = 0
        self._lock = threading.Lock()
        # Serving-tier gauges join the database's registry as a provider, so
        # one metrics scrape covers the whole deployment (connection counts,
        # statement queue depth, pool occupancy).
        database.metrics_registry.register_provider("server", self._server_stats)

    def _server_stats(self) -> Dict[str, int]:
        with self._lock:
            connections, active = self._connections, self._active
        return {
            "connections_served": connections,
            "active_connections": active,
            "queue_depth": self.executor.queue_depth,
            "pool_idle": self.executor.connections.idle,
            "pool_leases": self.executor.connections.leases,
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        self._server = await asyncio.start_server(self._handle_client, self.host, self.port)
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.executor.shutdown()

    @property
    def connections_served(self) -> int:
        with self._lock:
            return self._connections

    # -- per-connection protocol loop --------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        with self._lock:
            self._connections += 1
            self._active += 1
        state = _ClientState(self.database._register_session())
        writer.write(encode_frame({"type": "hello", "session": state.session}))
        try:
            await writer.drain()
            while True:
                try:
                    frame = await read_frame(reader)
                except ProtocolError:
                    return  # unframeable bytes: drop the connection
                if frame is None:
                    return
                response = await self._dispatch(frame, state)
                try:
                    data = encode_frame(response)
                except ProtocolError as error:
                    # A response too large to frame (e.g. a script whose
                    # combined results still exceed MAX_FRAME_BYTES) becomes
                    # an error frame; dropping the connection would leave the
                    # blocking client stalled until its timeout.
                    data = encode_frame(error_payload(error))
                writer.write(data)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            with self._lock:
                self._active -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _dispatch(self, frame: dict, state: _ClientState) -> dict:
        try:
            kind = frame.get("type")
            if kind == "query":
                return await self._do_query(frame, state)
            if kind == "prepare":
                return await self._do_prepare(frame, state)
            if kind == "execute":
                return await self._do_execute(frame, state)
            if kind == "fetch":
                return self._do_fetch(frame, state)
            if kind == "script":
                return await self._do_script(frame, state)
            if kind == "tables":
                return {"type": "tables", "tables": self.database.table_names}
            if kind == "stats":
                return {"type": "stats", "stats": self.database.stats()}
            if kind == "metrics":
                if frame.get("format") == "prometheus":
                    return {
                        "type": "metrics",
                        "format": "prometheus",
                        "text": self.database.prometheus_metrics(),
                    }
                return {"type": "metrics", "metrics": self.database.metrics()}
            if kind == "traces":
                return {"type": "traces", "traces": self.database.traces(frame.get("limit"))}
            if kind == "events":
                return {
                    "type": "events",
                    "events": self.database.events(
                        kind=frame.get("kind"), limit=frame.get("limit")
                    ),
                }
            if kind == "refresh":
                refreshed = self.database.refresh_cached_plans(session=state.session)
                return {"type": "refreshed", "refreshed": refreshed}
            raise SqlError(f"unknown frame type {kind!r}")
        except ReproError as error:
            return error_payload(error)
        except Exception as error:  # noqa: BLE001 - never kill the connection
            return error_payload(error)

    async def _run(self, sql: str, params, state: _ClientState) -> StatementResult:
        future = self.executor.submit(sql, params, session=state.session)
        return await asyncio.wrap_future(future)

    @staticmethod
    def _params(frame: dict):
        params = frame.get("params")
        if params is None:
            return None
        if not isinstance(params, list):
            raise SqlError("'params' must be a list")
        return params

    def _result_frame(self, result: StatementResult, state: _ClientState) -> dict:
        payload = result_payload(result)
        rows = payload["rows"]
        if len(rows) > self.inline_rows:
            payload["rows"] = rows[: self.inline_rows]
            payload["result_id"] = state.register_spool(rows[self.inline_rows :])
            payload["remaining"] = len(rows) - self.inline_rows
        return payload

    async def _do_query(self, frame: dict, state: _ClientState) -> dict:
        sql = frame.get("sql")
        if not isinstance(sql, str):
            raise SqlError("'query' frame needs an 'sql' string")
        result = await self._run(sql, self._params(frame), state)
        return self._result_frame(result, state)

    async def _do_prepare(self, frame: dict, state: _ClientState) -> dict:
        sql = frame.get("sql")
        if not isinstance(sql, str):
            raise SqlError("'prepare' frame needs an 'sql' string")
        params = self._params(frame)
        loop = asyncio.get_running_loop()
        entry = await loop.run_in_executor(
            None, lambda: self.database.prepare(sql, params)
        )
        return {
            "type": "prepared",
            "statement_id": state.register_statement(sql),
            "parameter_count": entry.parameter_count,
        }

    async def _do_execute(self, frame: dict, state: _ClientState) -> dict:
        statement_id = frame.get("statement_id")
        sql = state.prepared.get(statement_id)
        if sql is None:
            raise SqlError(f"unknown prepared statement id {statement_id!r}")
        result = await self._run(sql, self._params(frame), state)
        return self._result_frame(result, state)

    def _do_fetch(self, frame: dict, state: _ClientState) -> dict:
        result_id = frame.get("result_id")
        spool = state.spools.get(result_id)
        if spool is None:
            raise SqlError(f"unknown result id {result_id!r}")
        rows, position = spool
        limit = frame.get("limit", self.inline_rows)
        if not isinstance(limit, int) or limit < 1:
            raise SqlError("'fetch' limit must be a positive integer")
        chunk = rows[position : position + limit]
        position += len(chunk)
        done = position >= len(rows)
        if done:
            del state.spools[result_id]
        else:
            state.spools[result_id] = (rows, position)
        return {"type": "rows", "rows": chunk, "done": done}

    async def _do_script(self, frame: dict, state: _ClientState) -> dict:
        sql = frame.get("sql")
        if not isinstance(sql, str):
            raise SqlError("'script' frame needs an 'sql' string")
        from repro.sql.parser import split_statements, statement_has_parameters

        params = self._params(frame)
        payloads = []
        for text in split_statements(sql):
            takes = statement_has_parameters(text)
            result = await self._run(text, params if takes else None, state)
            # Spool oversized per-statement results exactly like single
            # queries: a large SELECT inside a script must not push the
            # whole 'results' frame past MAX_FRAME_BYTES.  The client pages
            # each payload's result_id through 'fetch' transparently.
            payloads.append(self._result_frame(result, state))
        return {"type": "results", "results": payloads}


# -- embedding helpers ------------------------------------------------------


class ServerHandle:
    """A server running on a background thread: address + stop()."""

    def __init__(self, server: ReproServer, loop: asyncio.AbstractEventLoop, thread):
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.address

    def stop(self, timeout: float = 5.0) -> None:
        asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop).result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_server_thread(
    database: Database,
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs,
) -> ServerHandle:
    """Start a :class:`ReproServer` on a daemon thread; returns its handle.

    ``port=0`` binds an ephemeral port; read the real one off
    ``handle.address``.
    """
    server = ReproServer(database, host, port, **kwargs)
    loop = asyncio.new_event_loop()

    import concurrent.futures

    ready: "concurrent.futures.Future[Tuple[str, int]]" = concurrent.futures.Future()

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            address = loop.run_until_complete(server.start())
        except BaseException as error:  # bind failure etc.
            ready.set_exception(error)
            return
        ready.set_result(address)
        loop.run_forever()
        # drain cancelled tasks after stop()
        pending = asyncio.all_tasks(loop)
        for task in pending:
            task.cancel()
        if pending:
            loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
        loop.close()

    thread = threading.Thread(target=run, name="repro-serve", daemon=True)
    thread.start()
    ready.result(timeout=10)
    return ServerHandle(server, loop, thread)


# -- console entry point ----------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve a repro database over the length-prefixed JSON wire protocol.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--workers", type=int, default=4, help="executor pool threads")
    parser.add_argument("--pool-size", type=int, default=None, help="connection pool size")
    parser.add_argument(
        "--query-workers",
        type=_positive_int,
        default=None,
        help="morsel-parallel worker threads per statement "
        "(default 1 = serial; distinct from --workers, the number of "
        "statements executing concurrently)",
    )
    parser.add_argument(
        "--query-executor",
        choices=("thread", "process"),
        default=None,
        help="morsel-parallel worker kind for statements: thread (default) "
        "or process (true multi-core over shared-memory buffers; needs "
        "--query-workers > 1)",
    )
    parser.add_argument(
        "--init",
        metavar="SQL_FILE",
        default=None,
        help="run this ;-separated SQL script (DDL/loads) before serving",
    )
    parser.add_argument("--engine", default=None, help="default execution engine")
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record a span tree per statement (scrape through 'traces' frames)",
    )
    parser.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help="log statements slower than MS to the event log, traces embedded "
        "(implies --trace; 0 logs every statement)",
    )
    args = parser.parse_args(argv)

    options = {}
    if args.engine:
        options["engine"] = args.engine
    if args.query_workers:
        options["workers"] = args.query_workers
    if args.query_executor:
        options["executor"] = args.query_executor
    if args.trace:
        options["trace"] = True
    if args.slow_query_ms is not None:
        options["slow_query_ms"] = args.slow_query_ms
    database = Database(**options)
    if args.init:
        with open(args.init, encoding="utf-8") as handle:
            database.execute_script(handle.read())

    async def serve() -> None:
        server = ReproServer(
            database,
            args.host,
            args.port,
            workers=args.workers,
            pool_size=args.pool_size,
        )
        host, port = await server.start()
        print(f"repro-serve listening on {host}:{port}", flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    return 0
