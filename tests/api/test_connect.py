"""End-to-end tests for the DB-API surface: connect → Connection → Cursor."""

import os
import re

import pytest

import repro
from repro.common.errors import SqlBindingError, SqlError
from repro.engine.vectorized.columns import ColumnTable
from repro.workloads.tpch import catalog_from_data, generate_tpch_data

SETUP = [
    "CREATE TABLE part (pk INTEGER, size INTEGER, price FLOAT, label STRING, "
    "PRIMARY KEY (pk), INDEX (size))",
    "INSERT INTO part VALUES (1, 10, 1.5, 'a'), (2, 20, 2.5, 'b'), "
    "(3, 30, 3.5, 'c'), (4, 40, 4.5, 'd')",
    "ANALYZE part",
]


@pytest.fixture
def conn():
    connection = repro.connect()
    for statement in SETUP:
        connection.execute(statement)
    return connection


class TestConnect:
    def test_connect_returns_connection(self):
        connection = repro.connect()
        assert isinstance(connection, repro.Connection)
        assert isinstance(connection.database, repro.Database)
        assert connection.database.table_names == []

    def test_version_and_all_exported(self):
        assert repro.__version__
        for name in ("connect", "Database", "Connection", "Cursor", "SqlError"):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_version_has_one_source(self):
        """``pyproject.toml`` reads ``repro.__version__``; a literal there drifts."""
        root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        with open(os.path.join(root, "pyproject.toml")) as handle:
            text = handle.read()
        project = text.split("[project]")[1].split("\n[")[0]
        assert not re.search(r"^version\s*=", project, re.MULTILINE), "literal version is back"
        assert re.search(r'^dynamic\s*=\s*\[[^\]]*"version"', project, re.MULTILINE)
        assert re.search(r'version\s*=\s*\{\s*attr\s*=\s*"repro\.__version__"', text)
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)

    def test_database_hands_out_more_connections(self, conn):
        other = conn.database.connect()
        rows = other.execute("SELECT pk FROM part WHERE size > 25").fetchall()
        assert [row[0] for row in rows] == [3, 4]


class TestDdlAndDml:
    def test_create_insert_select_roundtrip(self, conn):
        cur = conn.execute("SELECT pk, label FROM part WHERE price > 2.0 ORDER BY pk")
        assert cur.fetchall() == [(2, "b"), (3, "c"), (4, "d")]
        assert [entry[0] for entry in cur.description] == ["part.pk", "part.label"]

    def test_created_table_is_columnar(self, conn):
        stored = conn.database.store["part"]
        assert isinstance(stored, ColumnTable)
        assert stored.row_count == 4

    def test_create_registers_schema_and_indexes(self, conn):
        catalog = conn.database.catalog
        table = catalog.schema.table("part")
        assert table.primary_key == "pk"
        assert table.column_names == ["pk", "size", "price", "label"]
        assert catalog.index_on("part", "size") is not None
        assert catalog.index_on("part", "pk").unique

    def test_insert_updates_row_count_stats(self, conn):
        before = conn.database.catalog.row_count("part")
        cur = conn.execute("INSERT INTO part (pk, size) VALUES (9, 90)")
        assert cur.rowcount == 1
        assert conn.database.catalog.row_count("part") == before + 1
        rows = conn.execute("SELECT price FROM part WHERE pk = 9").fetchall()
        assert rows == [(None,)]  # unspecified columns fill with NULL

    def test_analyze_builds_histograms(self, conn):
        stats = conn.database.catalog.table_stats("part")
        assert stats.row_count == 4
        assert stats.column("size").histogram is not None
        assert stats.column("size").min_value == 10

    def test_insert_explicit_columns_reordered(self, conn):
        conn.execute("INSERT INTO part (size, pk) VALUES (50, 5)")
        rows = conn.execute("SELECT size FROM part WHERE pk = 5").fetchall()
        assert rows == [(50,)]

    def test_executemany_inserts(self, conn):
        cur = conn.cursor()
        cur.executemany(
            "INSERT INTO part VALUES (?, ?, ?, ?)",
            [(6, 60, 6.5, "f"), (7, 70, 7.5, "g")],
        )
        assert cur.rowcount == 2
        assert conn.database.stored_row_count("part") == 6

    def test_executemany_rejects_select(self, conn):
        with pytest.raises(SqlError, match="executemany"):
            conn.cursor().executemany("SELECT pk FROM part WHERE size > ?", [(1,), (2,)])

    def test_executemany_select_rejection_has_no_side_effects(self, conn):
        before = conn.database.stats()
        with pytest.raises(SqlError):
            conn.cursor().executemany("SELECT pk FROM part WHERE size > ?", [(1,), (2,)])
        after = conn.database.stats()
        assert after["executions"] == before["executions"]
        assert after["plan_cache"] == before["plan_cache"]
        assert after["monitor"] == before["monitor"]


class TestCopy(object):
    def test_copy_loads_csv_and_refreshes_stats(self, conn, tmp_path):
        path = tmp_path / "parts.csv"
        path.write_text(
            "pk,size,price,label\n"
            "10,100,10.5,x\n"
            "11,110,,y\n"  # empty -> NULL
            "12,120,12.5,z\n"
        )
        cur = conn.execute(f"COPY part FROM '{path}'")
        assert cur.rowcount == 3
        assert conn.database.stored_row_count("part") == 7
        stats = conn.database.catalog.table_stats("part")
        assert stats.row_count == 7
        assert stats.column("size").max_value == 120
        rows = conn.execute("SELECT price FROM part WHERE pk = 11").fetchall()
        assert rows == [(None,)]

    def test_copy_missing_file(self, conn):
        with pytest.raises(SqlError, match="cannot read"):
            conn.execute("COPY part FROM '/nonexistent/nope.csv'")

    def test_copy_unknown_csv_column(self, conn, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("pk,nope\n1,2\n")
        with pytest.raises(SqlError, match="nope"):
            conn.execute(f"COPY part FROM '{path}'")

    def test_copy_bad_value(self, conn, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("pk,size\n1,abc\n")
        with pytest.raises(SqlError, match="cannot convert"):
            conn.execute(f"COPY part FROM '{path}'")

    def test_copy_quoted_field_with_delimiter_roundtrips(self, conn, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('pk,label\n10,"a,b"\n11,"say ""hi"""\n')
        assert conn.execute(f"COPY part FROM '{path}'").rowcount == 2
        rows = conn.execute("SELECT pk, label FROM part WHERE pk > 9 ORDER BY pk")
        assert rows.fetchall() == [(10, "a,b"), (11, 'say "hi"')]

    def test_copy_null_token_lets_empty_string_roundtrip(self, conn, tmp_path):
        path = tmp_path / "nulls.csv"
        path.write_text("pk,label\n10,NULL\n11,\n")
        cur = conn.execute(f"COPY part FROM '{path}' WITH (NULL 'NULL')")
        assert cur.rowcount == 2
        rows = conn.execute("SELECT pk, label FROM part WHERE pk > 9 ORDER BY pk")
        # only the explicit token is NULL; the empty field stays ''.
        assert rows.fetchall() == [(10, None), (11, "")]

    def test_copy_custom_delimiter(self, conn, tmp_path):
        path = tmp_path / "pipes.csv"
        path.write_text("pk|size|price|label\n10|100|10.5|x,y\n")
        cur = conn.execute(f"COPY part FROM '{path}' WITH (DELIMITER '|')")
        assert cur.rowcount == 1
        rows = conn.execute("SELECT label FROM part WHERE pk = 10")
        assert rows.fetchall() == [("x,y",)]


class TestPreparedStatements:
    def test_positional_and_numbered_parameters(self, conn):
        positional = conn.execute(
            "SELECT pk FROM part WHERE size > ? AND price < ?", (15, 4.0)
        ).fetchall()
        numbered = conn.execute(
            "SELECT pk FROM part WHERE size > $1 AND price < $2", (15, 4.0)
        ).fetchall()
        assert positional == numbered == [(2,), (3,)]

    def test_reexecution_hits_plan_cache(self, conn):
        sql = "SELECT pk FROM part WHERE size > ?"
        first = conn.database.execute(sql, (15,))
        assert first.from_cache is False
        second = conn.database.execute(sql, (25,))
        assert second.from_cache is True
        assert [row["part.pk"] for row in second.rows] == [3, 4]
        hits = conn.database.stats()["plan_cache"]["hits"]
        assert hits >= 1

    def test_cached_execution_still_records_observations(self, conn):
        sql = "SELECT pk FROM part WHERE size > ?"
        before = conn.database.monitor.observation_count()
        conn.execute(sql, (15,))
        conn.execute(sql, (25,))
        after = conn.database.monitor.observation_count()
        assert after >= before + 2

    def test_wrong_arity_raises(self, conn):
        with pytest.raises(SqlError, match="expects 2 parameters, got 1"):
            conn.execute("SELECT pk FROM part WHERE size > ? AND price < ?", (15,))

    def test_unknown_parameter_index(self, conn):
        with pytest.raises(SqlError, match="expects 3 parameters, got 2"):
            conn.execute("SELECT pk FROM part WHERE size > $1 AND price < $3", (15, 4.0))

    def test_parameters_on_parameterless_statement(self, conn):
        with pytest.raises(SqlError, match="expects 0 parameters"):
            conn.execute("SELECT pk FROM part", (1,))

    def test_insert_with_parameter_type_mismatch(self, conn):
        with pytest.raises(SqlError, match="type mismatch"):
            conn.execute("INSERT INTO part VALUES (?, ?, ?, ?)", (8, "wide", 8.5, "h"))

    def test_select_parameter_type_mismatch_is_sql_error(self, conn):
        with pytest.raises(SqlError, match="type mismatch for parameter \\$1"):
            conn.execute("SELECT pk FROM part WHERE size > ?", ("wide",))

    def test_select_null_parameter_rejected(self, conn):
        with pytest.raises(SqlError, match="NULL"):
            conn.execute("SELECT pk FROM part WHERE size > ?", (None,))

    def test_prepare_warms_cache(self, conn):
        entry = conn.database.prepare("SELECT pk FROM part WHERE size > ?", (0,))
        assert entry.parameter_count == 1
        result = conn.database.execute("SELECT pk FROM part WHERE size > ?", (0,))
        assert result.from_cache is True


class TestPlanCacheInvalidation:
    def test_ddl_invalidates(self, conn):
        sql = "SELECT pk FROM part WHERE size > ?"
        conn.execute(sql, (15,))
        conn.execute("CREATE TABLE other (x INTEGER)")
        result = conn.database.execute(sql, (15,))
        assert result.from_cache is False
        assert conn.database.stats()["plan_cache"]["invalidations"] >= 1

    def test_statistics_change_invalidates(self, conn):
        sql = "SELECT pk FROM part WHERE size > ?"
        conn.execute(sql, (15,))
        conn.execute("ANALYZE part")
        result = conn.database.execute(sql, (15,))
        assert result.from_cache is False

    def test_insert_invalidates(self, conn):
        sql = "SELECT pk FROM part WHERE size > ?"
        conn.execute(sql, (15,))
        conn.execute("INSERT INTO part VALUES (8, 80, 8.5, 'h')")
        result = conn.database.execute(sql, (15,))
        assert result.from_cache is False


class TestCursorProtocol:
    def test_fetchone_fetchmany_iteration(self, conn):
        cur = conn.execute("SELECT pk FROM part ORDER BY pk")
        assert cur.fetchone() == (1,)
        assert cur.fetchmany(2) == [(2,), (3,)]
        assert cur.fetchall() == [(4,)]
        assert cur.fetchone() is None

    def test_cursor_iterates(self, conn):
        cur = conn.execute("SELECT pk FROM part ORDER BY pk")
        assert [row for row in cur] == [(1,), (2,), (3,), (4,)]

    def test_explain_rows_are_plan_lines(self, conn):
        cur = conn.execute("EXPLAIN SELECT pk FROM part WHERE size > 15")
        assert cur.description[0][0] == "plan"
        lines = [line for (line,) in cur.fetchall()]
        assert any("seq-scan" in line for line in lines)

    def test_ddl_has_no_description(self, conn):
        cur = conn.execute("CREATE TABLE empty_one (x INTEGER)")
        assert cur.description is None
        assert cur.fetchall() == []

    def test_closed_cursor_rejects_execution(self, conn):
        cur = conn.cursor()
        cur.close()
        with pytest.raises(SqlError, match="cursor is closed"):
            cur.execute("SELECT pk FROM part")

    def test_closed_connection_rejects_cursors(self):
        connection = repro.connect()
        connection.close()
        with pytest.raises(SqlError, match="connection is closed"):
            connection.cursor()

    def test_commit_is_noop_rollback_unsupported(self, conn):
        conn.commit()
        with pytest.raises(SqlError, match="rollback"):
            conn.rollback()


class TestBothEngines:
    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_full_sql_lifecycle_per_engine(self, engine, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,1.0\n2,2.0\n3,3.0\n")
        connection = repro.connect(engine=engine)
        connection.executescript(
            "CREATE TABLE t (a INTEGER, b FLOAT); " f"COPY t FROM '{path}'; " "ANALYZE t"
        )
        rows = connection.execute("SELECT a FROM t WHERE b > ?", (1.5,)).fetchall()
        assert rows == [(2,), (3,)]
        result = connection.database.execute("EXPLAIN ANALYZE SELECT a FROM t WHERE b > ?", (1.5,))
        assert f"engine: {engine}" in result.plan_text


class TestWrappedData:
    def test_connect_over_existing_catalog_and_rows(self):
        data = generate_tpch_data(scale_factor=0.0002, seed=5)
        connection = repro.connect(catalog_from_data(data), data)
        rows = connection.execute(
            "SELECT r_name FROM region ORDER BY r_name LIMIT 2"
        ).fetchall()
        assert len(rows) == 2
        # row-list tables accept INSERT too
        count = connection.database.stored_row_count("region")
        connection.execute("INSERT INTO region VALUES (99, 99)")
        assert connection.database.stored_row_count("region") == count + 1

    def test_connect_data_without_stats_is_analyzed(self):
        data = generate_tpch_data(scale_factor=0.0002, seed=5)
        from repro.workloads.tpch import tpch_schema
        from repro.catalog.catalog import Catalog

        connection = repro.connect(Catalog(tpch_schema()), data)
        assert connection.database.catalog.has_stats("region")


class TestAdaptiveRefresh:
    def test_two_plans_sharing_an_expression_both_receive_deltas(self):
        """Per-consumer emission state: one cached plan consuming a shared
        observation must not suppress the delta for the next plan."""
        data = generate_tpch_data(scale_factor=0.0005, seed=3)
        connection = repro.connect(catalog_from_data(data), data)
        database = connection.database
        shared_join = (
            "FROM customer, orders WHERE c_custkey = o_custkey"
        )
        first = f"SELECT c_name {shared_join} AND o_orderdate < 400"
        second = f"SELECT c_name {shared_join} AND o_orderdate < 1500"
        connection.execute(first)
        connection.execute(second)
        entries = database.plan_cache.cached_plans()
        assert len(entries) == 2
        deltas_per_entry = [
            database.monitor.produce_deltas(entry.optimizer) for entry in entries
        ]
        assert all(deltas for deltas in deltas_per_entry), (
            "every cached plan must receive its own statistics deltas"
        )

    def test_scoped_observations_not_conflated_across_queries(self):
        """Same join footprint, different filters: each query's optimizer is
        fed its own observed cardinality, not a blended mean."""
        data = generate_tpch_data(scale_factor=0.0005, seed=3)
        connection = repro.connect(catalog_from_data(data), data)
        database = connection.database
        filtered = (
            "SELECT c_name FROM customer, orders "
            "WHERE c_custkey = o_custkey AND o_orderdate < 100"
        )
        unfiltered = "SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey"
        filtered_result = database.execute(filtered)
        unfiltered_result = database.execute(unfiltered)
        from repro.relational.expressions import Expression

        join_expr = Expression.of("customer", "orders")
        scoped_filtered = database.monitor.observed(
            join_expr, filtered_result.query.name
        )
        scoped_unfiltered = database.monitor.observed(
            join_expr, unfiltered_result.query.name
        )
        assert scoped_filtered == filtered_result.execution.observed_cardinalities[join_expr]
        assert (
            scoped_unfiltered
            == unfiltered_result.execution.observed_cardinalities[join_expr]
        )
        assert scoped_filtered < scoped_unfiltered

    def test_refresh_cached_plans_runs_incremental_reoptimize(self):
        data = generate_tpch_data(scale_factor=0.0005, seed=3)
        connection = repro.connect(catalog_from_data(data), data)
        sql = (
            "SELECT l_orderkey, o_orderdate, o_shippriority "
            "FROM customer, orders, lineitem "
            "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
            "AND c_mktsegment = 2"
        )
        connection.execute(sql)
        connection.execute(sql)
        database = connection.database
        assert database.monitor.observation_count() > 0
        database.refresh_cached_plans()  # must not raise; plans stay executable
        rows_before = connection.execute(sql).fetchall()
        assert rows_before == connection.execute(sql).fetchall()


class TestSessionShim:
    def test_session_warns_deprecation(self):
        data = generate_tpch_data(scale_factor=0.0002, seed=5)
        with pytest.warns(DeprecationWarning, match="repro.connect"):
            repro.Session(catalog_from_data(data), data=data)

    def test_session_still_executes(self):
        data = generate_tpch_data(scale_factor=0.0002, seed=5)
        with pytest.warns(DeprecationWarning):
            session = repro.Session(catalog_from_data(data), data=data)
        result = session.execute("SELECT r_name FROM region LIMIT 1")
        assert result.row_count == 1

    def test_session_sees_data_loaded_through_sql(self):
        """A dataless Session that CREATEs and INSERTs through SQL can SELECT:
        the no-data complaint consults the live store, not the constructor."""
        from repro.catalog.catalog import Catalog
        from repro.relational.schema import Schema

        with pytest.warns(DeprecationWarning):
            session = repro.Session(Catalog(Schema()))
        session.execute("CREATE TABLE t (a INTEGER)")
        session.execute("INSERT INTO t VALUES (1), (2)")
        result = session.execute("SELECT a FROM t")
        assert result.row_count == 2


class TestErrors:
    def test_binding_error_type(self, conn):
        with pytest.raises(SqlBindingError):
            conn.execute("SELECT nope FROM part")

    def test_select_unknown_table(self, conn):
        with pytest.raises(SqlBindingError, match="unknown table"):
            conn.execute("SELECT x FROM missing")

    def test_duplicate_create_table(self, conn):
        with pytest.raises(SqlBindingError, match="already exists"):
            conn.execute("CREATE TABLE part (x INTEGER)")
