"""Full client ↔ server socket round trips.

Each test starts a real :class:`~repro.server.server.ReproServer` on an
ephemeral port (background thread, real TCP sockets) and talks to it through
:func:`repro.client.connect` — the same frames ``repro-sql --connect`` uses.
"""

import threading

import pytest

from repro.api.connection import Connection
from repro.api.database import Database
from repro.client import connect
from repro.common.errors import SqlBindingError, SqlError, SqlSyntaxError
from repro.server import start_server_thread
from repro.server.protocol import (
    encode_frame,
    error_payload,
    raise_error_payload,
    result_payload,
)


@pytest.fixture()
def served():
    database = Database()
    database.execute_script(
        "CREATE TABLE t (a INTEGER, b FLOAT, PRIMARY KEY (a));"
        "INSERT INTO t VALUES (1, 0.5), (2, 1.5), (3, 2.5);"
        "ANALYZE t"
    )
    handle = start_server_thread(database)
    yield database, handle.address
    handle.stop()


class TestQueryRoundTrip:
    def test_select_with_parameters(self, served):
        _, (host, port) = served
        with connect(host, port) as conn:
            rows = conn.cursor().execute("SELECT a, b FROM t WHERE b > $1", (0.9,)).fetchall()
        assert rows == [(2, 1.5), (3, 2.5)]

    def test_ddl_dml_roundtrip(self, served):
        _, (host, port) = served
        with connect(host, port) as conn:
            cur = conn.cursor()
            cur.execute("CREATE TABLE u (x INTEGER, y STRING)")
            assert cur.result.statement == "create table"
            cur.execute("INSERT INTO u VALUES (1, 'one'), (2, 'two')")
            assert cur.rowcount == 2
            rows = cur.execute("SELECT y FROM u WHERE x = $1", (2,)).fetchall()
            assert rows == [("two",)]

    def test_executemany_over_the_wire(self, served):
        _, (host, port) = served
        with connect(host, port) as conn:
            cur = conn.cursor()
            cur.execute("CREATE TABLE m (v INTEGER)")
            cur.executemany("INSERT INTO m VALUES (?)", [(i,) for i in range(5)])
            assert cur.rowcount == 5
            assert len(cur.execute("SELECT v FROM m").fetchall()) == 5

    def test_executescript_over_the_wire(self, served):
        _, (host, port) = served
        with connect(host, port) as conn:
            results = conn.executescript(
                "CREATE TABLE s (k INTEGER); INSERT INTO s VALUES (9); SELECT k FROM s"
            )
            assert [r.statement for r in results] == ["create table", "insert", "select"]
            assert results[-1].rows == [{"s.k": 9}]

    def test_explain_analyze_renders_remotely(self, served):
        _, (host, port) = served
        with connect(host, port) as conn:
            cur = conn.cursor().execute("EXPLAIN ANALYZE SELECT a FROM t WHERE b > 1.0")
            lines = [line for (line,) in cur]
            assert any("engine:" in line for line in lines)
            assert cur.result.statement == "explain analyze"

    def test_large_results_page_through_fetch_frames(self, served):
        database, (host, port) = served
        with connect(host, port) as conn:
            cur = conn.cursor()
            cur.execute("CREATE TABLE big (n INTEGER)")
            cur.executemany("INSERT INTO big VALUES (?)", [(i,) for i in range(1400)])
            rows = cur.execute("SELECT n FROM big").fetchall()
        # 1400 rows > the server's 512-row inline threshold: the client pulled
        # the tail through fetch frames and reassembled the full set.
        assert len(rows) == 1400
        assert sorted(n for (n,) in rows) == list(range(1400))

    def test_script_results_spool_through_fetch_frames(self, served):
        # A large SELECT inside a script spools exactly like a single query
        # (instead of inlining everything and risking an oversized frame);
        # the client reassembles each payload through fetch paging.
        _, (host, port) = served
        with connect(host, port) as conn:
            cur = conn.cursor()
            cur.execute("CREATE TABLE sbig (n INTEGER)")
            cur.executemany("INSERT INTO sbig VALUES (?)", [(i,) for i in range(1300)])
            results = conn.executescript(
                "SELECT n FROM sbig; SELECT COUNT(*) FROM sbig"
            )
        assert [r.statement for r in results] == ["select", "select"]
        assert len(results[0].rows) == 1300
        assert sorted(row["sbig.n"] for row in results[0].rows) == list(range(1300))
        assert results[1].rows == [{"count(*)": 1300}]


class TestRowsAsArrays:
    """Rows cross the wire as arrays under one list of column names; what a
    remote cursor fetches must equal what a local one fetches."""

    INLINE_ROWS = 100

    @pytest.fixture()
    def typed(self):
        database = Database()
        database.execute_script(
            "CREATE TABLE d (k INTEGER, day DATE, x FLOAT, s TEXT);"
            "INSERT INTO d VALUES (1, 9204, 0.1, NULL), (2, NULL, NULL, 'b'),"
            " (3, 8000, 1e300, 'c'), (4, 0, -2.5e-7, '');"
            "CREATE TABLE many (n INTEGER, f FLOAT)"
        )
        values = ", ".join(f"({n}, {n / 7})" for n in range(250))
        database.execute(f"INSERT INTO many VALUES {values}")
        handle = start_server_thread(database, inline_rows=self.INLINE_ROWS)
        yield database, handle.address
        handle.stop()

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT k, day, x, s FROM d ORDER BY k",
            "SELECT s, x FROM d WHERE x IS NULL OR s IS NULL ORDER BY k",
            "SELECT k FROM d WHERE k > 100",
            "SELECT n, f FROM many ORDER BY n",
        ],
        ids=["nulls-floats-dates", "nulls-only", "empty", "paged"],
    )
    def test_remote_fetchall_equals_local(self, typed, sql):
        database, (host, port) = typed
        local = Connection(database).execute(sql).fetchall()
        with connect(host, port) as conn:
            remote = conn.execute(sql).fetchall()
        assert remote == local
        assert [type(value) for row in remote for value in row] == [
            type(value) for row in local for value in row
        ]

    def test_paged_result_keeps_rows_and_dict_view(self, typed):
        _, (host, port) = typed
        with connect(host, port) as conn:
            result = conn._execute("SELECT n, f FROM many ORDER BY n", None)
        assert len(result.tuples) == 250 > self.INLINE_ROWS
        assert result.tuples[0] == (0, 0.0)
        assert result.rows[249] == {"many.n": 249, "many.f": 249 / 7}

    def test_result_frame_sends_column_names_once(self, typed):
        database, _ = typed
        payload = result_payload(database.execute("SELECT k, s FROM d ORDER BY k"))
        assert payload["columns"] == ["d.k", "d.s"]
        assert payload["rows"][:2] == [(1, None), (2, "b")]
        assert b'"d.k"' not in encode_frame(payload).split(b'"rows"')[1]


class TestPreparedStatements:
    def test_prepare_execute(self, served):
        _, (host, port) = served
        with connect(host, port) as conn:
            statement = conn.prepare("SELECT a FROM t WHERE b > $1", (0.0,))
            assert statement.parameter_count == 1
            first = statement.execute((2.0,))
            second = statement.execute((0.0,))
        assert first.rows == [{"t.a": 3}]
        assert len(second.rows) == 3
        assert second.from_cache

    def test_unknown_statement_id_errors(self, served):
        _, (host, port) = served
        with connect(host, port) as conn:
            statement = conn.prepare("SELECT a FROM t")
            statement.statement_id = 999
            with pytest.raises(SqlError, match="unknown prepared statement"):
                statement.execute()

    def test_arity_errors_cross_the_wire(self, served):
        _, (host, port) = served
        with connect(host, port) as conn:
            statement = conn.prepare("SELECT a FROM t WHERE b > $1")
            with pytest.raises(SqlError, match="expects 1 parameter"):
                statement.execute()


class TestErrorFrames:
    def test_binding_error_reconstructs_class_and_caret(self, served):
        _, (host, port) = served
        with connect(host, port) as conn:
            with pytest.raises(SqlBindingError) as excinfo:
                conn.execute("SELECT nope FROM t")
        message = str(excinfo.value)
        assert excinfo.value.bare_message.startswith("unknown column 'nope'")
        assert excinfo.value.position == (1, 8)
        assert "SELECT nope FROM t" in message
        # the caret points at the offending token, exactly like in-process
        assert "\n         ^" in message

    def test_syntax_error_reconstructs(self, served):
        _, (host, port) = served
        with connect(host, port) as conn:
            with pytest.raises(SqlSyntaxError):
                conn.execute("SELEKT a FROM t")

    def test_connection_survives_errors(self, served):
        _, (host, port) = served
        with connect(host, port) as conn:
            with pytest.raises(SqlError):
                conn.execute("SELECT nope FROM t")
            rows = conn.cursor().execute("SELECT a FROM t WHERE a = 1").fetchall()
            assert rows == [(1,)]

    def test_payload_round_trip_is_lossless(self):
        try:
            raise SqlBindingError("boom", (2, 5), "line one\nfour boom")
        except SqlBindingError as error:
            payload = error_payload(error)
            with pytest.raises(SqlBindingError) as excinfo:
                raise_error_payload(payload)
            assert str(excinfo.value) == str(error)


class TestSharedServingState:
    def test_two_connections_share_the_plan_cache(self, served):
        database, (host, port) = served
        sql = "SELECT a FROM t WHERE b > $1"
        with connect(host, port) as first:
            first.cursor().execute(sql, (0.9,))
        hits_before = database.plan_cache.stats()["hits"]
        with connect(host, port) as second:
            cur = second.cursor().execute(sql, (0.1,))
            assert cur.result.from_cache
        assert database.plan_cache.stats()["hits"] == hits_before + 1

    def test_each_wire_connection_gets_its_own_session(self, served):
        database, (host, port) = served
        with connect(host, port) as first, connect(host, port) as second:
            assert first.session_id != second.session_id
            first.execute("SELECT a FROM t WHERE b > 0.9")
            second.execute("SELECT a FROM t WHERE b > 0.9")
        assert {first.session_id, second.session_id} <= set(
            database.monitor.session_names()
        )

    def test_stats_tables_refresh_frames(self, served):
        _, (host, port) = served
        with connect(host, port) as conn:
            conn.execute("SELECT a FROM t WHERE b > 0.9")
            assert "t" in conn.tables()
            stats = conn.stats()
            assert stats["tables"]["t"] == 3
            assert conn.refresh_cached_plans() >= 0

    def test_concurrent_wire_clients(self, served):
        _, (host, port) = served
        errors = []

        def client(value):
            def run():
                try:
                    with connect(host, port) as conn:
                        for _ in range(10):
                            rows = conn.cursor().execute(
                                "SELECT a FROM t WHERE a = $1", (value,)
                            ).fetchall()
                            assert rows == [(value,)]
                except Exception as error:  # noqa: BLE001
                    errors.append(error)

            return run

        threads = [threading.Thread(target=client(1 + i % 3)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[:3]


class TestProtocolRobustness:
    def test_unknown_frame_type_errors_but_keeps_connection(self, served):
        _, (host, port) = served
        with connect(host, port) as conn:
            with pytest.raises(SqlError, match="unknown frame type"):
                conn._request({"type": "mystery"})
            assert conn.cursor().execute("SELECT a FROM t WHERE a = 1").fetchall() == [(1,)]

    def test_unframeable_bytes_drop_the_connection(self, served):
        import socket as socket_module

        _, (host, port) = served
        raw = socket_module.create_connection((host, port), timeout=5)
        try:
            raw.recv(4096)  # hello frame
            raw.sendall(b"\x00\x00\x00\x05notjs")
            # server drops the connection instead of replying
            assert raw.recv(4096) == b""
        finally:
            raw.close()

    def test_oversized_length_prefix_rejected(self, served):
        import socket as socket_module

        _, (host, port) = served
        raw = socket_module.create_connection((host, port), timeout=5)
        try:
            raw.recv(4096)
            raw.sendall(b"\xff\xff\xff\xff")
            assert raw.recv(4096) == b""
        finally:
            raw.close()

    def test_frames_encode_compactly(self):
        frame = encode_frame({"type": "query", "sql": "SELECT 1"})
        assert frame[:4] == len(frame[4:]).to_bytes(4, "big")
