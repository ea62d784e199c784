"""Index-backed execution: index scans and index-NL joins on both engines.

Covers the physical access paths end to end: EXPLAIN showing the chosen
index, differential parity between seq-scan and index-scan plans across both
engines, real index-NL probing vs the hash-join path, sorted (key-order)
emission, index maintenance under INSERT/COPY, and the no-silent-fallback
contract when a plan references a since-dropped index.
"""

import random

import pytest

import repro
from repro.common.errors import ExecutionError
from repro.engine import make_executor
from repro.engine.executor import PlanExecutor
from repro.engine.vectorized import VectorizedExecutor
from repro.optimizer.search_space import EnumerationOptions
from repro.relational.expressions import ColumnRef, Expression
from repro.relational.plan import PhysicalOperator, PhysicalPlan
from repro.relational.properties import PhysicalProperty

NO_INDEXES = EnumerationOptions(enable_index_scans=False, enable_index_nl=False)

ROWS = 5000


def events_csv(tmp_path_factory, rows=ROWS, seed=7):
    rng = random.Random(seed)
    path = tmp_path_factory.mktemp("index_access") / "events.csv"
    lines = ["id,ts,val,grp"]
    for i in range(rows):
        val = "" if rng.random() < 0.05 else f"{rng.uniform(0, 100):.3f}"
        lines.append(f"{i},{rng.randrange(100000)},{val},{i % 40}")
    path.write_text("\n".join(lines) + "\n")
    return path


DDL = (
    "CREATE TABLE events (id INTEGER, ts INTEGER, val FLOAT, grp INTEGER, "
    "PRIMARY KEY (id));"
    "CREATE INDEX idx_events_ts ON events (ts);"
    "CREATE INDEX idx_events_grp_hash ON events (grp) USING HASH;"
    "CREATE TABLE tags (grp INTEGER, label INTEGER, PRIMARY KEY (grp));"
    "INSERT INTO tags VALUES "
    + ", ".join(f"({grp}, {grp * 11})" for grp in range(40))
)


@pytest.fixture(scope="module")
def databases(tmp_path_factory):
    """engine × enumeration grid over identically DDL-loaded stores."""
    csv_path = events_csv(tmp_path_factory)
    grid = {}
    for engine in ("row", "vectorized"):
        for label, enumeration in (("indexed", None), ("seq", NO_INDEXES)):
            database = repro.connect(engine=engine, enumeration=enumeration).database
            database.execute_script(DDL)
            database.execute(f"COPY events FROM '{csv_path}'")
            database.execute("ANALYZE")
            grid[engine, label] = database
    return grid


QUERIES = {
    "PointPk": "SELECT val FROM events WHERE id = 1234",
    "PointHash": "SELECT id FROM events WHERE grp = 7 ORDER BY id",
    "RangeTs": "SELECT id FROM events WHERE ts BETWEEN 500 AND 2500 ORDER BY id",
    "RangeOpen": "SELECT COUNT(*) FROM events WHERE ts >= 99000",
    "ConstLeft": "SELECT id FROM events WHERE 300 > ts ORDER BY id",
    "ExtraFilter": (
        "SELECT id FROM events WHERE ts BETWEEN 500 AND 9000 AND val < 50.0 "
        "ORDER BY id"
    ),
    "JoinProbe": (
        "SELECT id, label FROM events, tags WHERE events.grp = tags.grp "
        "AND ts < 600 ORDER BY id"
    ),
    "Param": "SELECT id FROM events WHERE ts BETWEEN ? AND ? ORDER BY id",
}
PARAMS = {"Param": (500, 2500)}


@pytest.mark.parametrize("name", sorted(QUERIES))
class TestAccessPathParity:
    """Identical results across row/vectorized engines and seq/index plans."""

    def test_four_way_identical_rows(self, name, databases):
        sql, params = QUERIES[name], PARAMS.get(name)
        results = {
            key: database.execute(sql, params) for key, database in databases.items()
        }
        baseline = results["row", "seq"]
        assert baseline.rows, sql  # queries are chosen to return data
        for key, outcome in results.items():
            assert outcome.rows == baseline.rows, (key, sql)
            assert outcome.rowcount == baseline.rowcount, (key, sql)

    def test_engines_agree_on_operator_cardinalities(self, name, databases):
        sql, params = QUERIES[name], PARAMS.get(name)
        row = databases["row", "indexed"].execute(sql, params)
        vec = databases["vectorized", "indexed"].execute(sql, params)
        assert (
            row.execution.operator_cardinalities == vec.execution.operator_cardinalities
        ), sql
        assert (
            row.execution.observed_cardinalities == vec.execution.observed_cardinalities
        ), sql


class TestExplainAccessPath:
    def test_point_query_uses_pk_index(self, databases):
        plan_text = databases["vectorized", "indexed"].execute(
            "EXPLAIN SELECT val FROM events WHERE id = 1234"
        ).plan_text
        assert "index-scan" in plan_text
        assert "using idx_events_pk" in plan_text

    def test_range_query_uses_ordered_index(self, databases):
        plan_text = databases["row", "indexed"].execute(
            "EXPLAIN SELECT id FROM events WHERE ts BETWEEN 500 AND 2500"
        ).plan_text
        assert "using idx_events_ts" in plan_text

    def test_hash_index_not_used_for_ranges(self, databases):
        """grp only has a hash index: a range over it cannot be index-served."""
        plan_text = databases["row", "indexed"].execute(
            "EXPLAIN SELECT id FROM events WHERE grp > 35"
        ).plan_text
        assert "seq-scan" in plan_text
        assert "using" not in plan_text

    def test_seq_databases_never_index_scan(self, databases):
        plan_text = databases["row", "seq"].execute(
            "EXPLAIN SELECT val FROM events WHERE id = 1234"
        ).plan_text
        assert "index-scan" not in plan_text


class TestMaintenanceUnderMutation:
    def test_insert_visible_through_index_plans(self, databases):
        sql = "SELECT val FROM events WHERE id = ?"
        for (engine, label), database in databases.items():
            database.execute(
                "INSERT INTO events VALUES (990001, 77, 1.25, 3), (990002, 77, NULL, 3)"
            )
        results = {
            key: database.execute(sql, (990001,)) for key, database in databases.items()
        }
        for key, outcome in results.items():
            assert outcome.rows == [{"events.val": 1.25}], key

    def test_copy_maintains_indexes(self, databases, tmp_path):
        extra = tmp_path / "extra.csv"
        extra.write_text("id,ts,val,grp\n990100,123456,9.5,5\n990101,123456,8.5,5\n")
        for database in databases.values():
            database.execute(f"COPY events FROM '{extra}'")
        sql = "SELECT id FROM events WHERE ts = 123456 ORDER BY id"
        results = {key: db.execute(sql) for key, db in databases.items()}
        expected = [{"events.id": 990100}, {"events.id": 990101}]
        for key, outcome in results.items():
            assert outcome.rows == expected, key

    def test_physical_entry_counts_track_appends(self):
        database = repro.connect().database
        database.execute("CREATE TABLE t (a INTEGER, INDEX (a))")
        database.execute("INSERT INTO t VALUES (1), (2), (NULL)")
        index = database.store["t"].usable_index("a", "point")
        assert index.entry_count == 2
        assert index.null_count == 1
        database.execute("INSERT INTO t VALUES (2)")
        # Appends publish a new copy-on-write version; the pre-insert index
        # snapshot above stays frozen while the re-fetched one sees the row.
        assert index.entry_count == 2
        index = database.store["t"].usable_index("a", "point")
        assert index.entry_count == 3
        assert list(index.lookup(2)) == [1, 3]


class TestSortedIndexScan:
    """An INDEX_SCAN delivering SORTED(col) emits key order without a sort."""

    @pytest.fixture()
    def fixture(self):
        database = repro.connect().database
        database.execute_script(
            "CREATE TABLE t (k INTEGER, v INTEGER, INDEX (v));"
            "INSERT INTO t VALUES (1, 30), (2, 10), (3, NULL), (4, 20), (5, 10);"
            "ANALYZE t"
        )
        entry = database.prepare("SELECT k, v FROM t")
        return database, entry.query

    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_key_order_with_nulls_last(self, fixture, engine):
        database, query = fixture
        plan = PhysicalPlan(
            PhysicalOperator.INDEX_SCAN,
            Expression.leaf("t"),
            output_property=PhysicalProperty.sorted_on(ColumnRef("t", "v")),
        )
        result = make_executor(engine, query, database.store).execute(plan)
        assert [row["t.v"] for row in result.rows] == [10, 10, 20, 30, None]
        # equal keys keep stored order (2 before 5) and NULLs come last
        assert [row["t.k"] for row in result.rows] == [2, 5, 4, 1, 3]


def _join_query(database):
    return database.prepare(
        "SELECT id, label FROM events, tags WHERE events.grp = tags.grp AND ts < 600"
    ).query


def _join_plans():
    outer = PhysicalPlan(PhysicalOperator.SEQ_SCAN, Expression.leaf("events"))
    indexed_inner = PhysicalPlan(
        PhysicalOperator.INDEX_SCAN,
        Expression.leaf("tags"),
        output_property=PhysicalProperty.indexed_on(ColumnRef("tags", "grp")),
    )
    seq_inner = PhysicalPlan(PhysicalOperator.SEQ_SCAN, Expression.leaf("tags"))
    join_expr = Expression.of("events", "tags")
    inl = PhysicalPlan(
        PhysicalOperator.INDEX_NL_JOIN, join_expr, children=(outer, indexed_inner)
    )
    hash_join = PhysicalPlan(
        PhysicalOperator.HASH_JOIN, join_expr, children=(outer, seq_inner)
    )
    return inl, hash_join


class TestIndexNestedLoopJoin:
    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_probe_matches_hash_join_exactly(self, databases, engine):
        database = databases[engine, "indexed"]
        query = _join_query(database)
        inl, hash_join = _join_plans()
        executor = make_executor(engine, query, database.store)
        inl_result = executor.execute(inl)
        hash_result = make_executor(engine, query, database.store).execute(hash_join)
        assert inl_result.rows == hash_result.rows
        assert inl_result.rows  # non-degenerate
        # the probed inner records the candidates it actually produced
        assert (
            inl_result.observed_cardinalities[Expression.leaf("tags")]
            == inl_result.observed_cardinalities[Expression.of("events", "tags")]
        )

    def test_row_and_vectorized_probe_agree(self, databases):
        inl, _ = _join_plans()
        row_db = databases["row", "indexed"]
        vec_db = databases["vectorized", "indexed"]
        row_result = PlanExecutor(_join_query(row_db), row_db.store).execute(inl)
        vec_result = VectorizedExecutor(_join_query(vec_db), vec_db.store).execute(inl)
        # the vectorized engine prunes to the referenced columns (documented
        # engine difference); compare on the columns it kept
        referenced = set(vec_result.rows[0]) if vec_result.rows else set()
        trimmed = [{name: row[name] for name in referenced} for row in row_result.rows]
        assert trimmed == vec_result.rows
        assert row_result.operator_cardinalities == vec_result.operator_cardinalities


class TestDroppedIndexIsAnError:
    """A plan naming an index the store no longer has must not silently
    fall back to a sequential scan."""

    @pytest.fixture()
    def fixture(self):
        database = repro.connect().database
        database.execute_script(
            "CREATE TABLE t (k INTEGER, v INTEGER, INDEX (v));"
            "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30);"
            "ANALYZE t"
        )
        # Plan against 3 rows with a forced index path via a manual plan.
        query = database.prepare("SELECT k FROM t WHERE v = 20").query
        plan = PhysicalPlan(
            PhysicalOperator.INDEX_SCAN,
            Expression.leaf("t"),
            details=(("index", "idx_t_v"), ("index_column", "t.v")),
        )
        return database, query, plan

    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_execution_error_names_the_index(self, fixture, engine):
        database, query, plan = fixture
        # sanity: with the index in place the plan executes
        ok = make_executor(engine, query, database.store).execute(plan)
        assert ok.rows == [{"t.k": 2, "t.v": 20}] or ok.rows == [{"t.k": 2}]
        database.store["t"].drop_index("idx_t_v")
        with pytest.raises(ExecutionError, match="idx_t_v"):
            make_executor(engine, query, database.store).execute(plan)

    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_unresolvable_unnamed_index_scan_errors(self, fixture, engine):
        database, query, _ = fixture
        bare = PhysicalPlan(PhysicalOperator.INDEX_SCAN, Expression.leaf("t"))
        database.store["t"].drop_index("idx_t_v")
        with pytest.raises(ExecutionError, match="index"):
            make_executor(engine, query, database.store).execute(bare)

    def test_database_replans_after_drop_instead_of_erroring(self):
        """Through the Database the catalog version bump forces a re-plan, so
        DROP INDEX never surfaces as an ExecutionError to SQL users."""
        database = repro.connect().database
        database.execute_script(
            "CREATE TABLE t (k INTEGER, v INTEGER, INDEX (v));"
            "INSERT INTO t VALUES (1, 10), (2, 20);"
            "ANALYZE t"
        )
        before = database.execute("SELECT k FROM t WHERE v = 20")
        database.execute("DROP INDEX idx_t_v")
        after = database.execute("SELECT k FROM t WHERE v = 20")
        assert after.rows == before.rows == [{"t.k": 2}]
        assert after.from_cache is False


class TestMultiConjunctNarrowing:
    """Several sargable conjuncts on one column narrow the index window
    together — the shape the cost model priced."""

    @pytest.fixture()
    def database(self):
        database = repro.connect().database
        database.execute("CREATE TABLE r (k INTEGER, INDEX (k))")
        database.execute(
            "INSERT INTO r VALUES " + ", ".join(f"({i})" for i in range(2000))
        )
        database.execute("ANALYZE r")
        return database

    def test_two_range_conjuncts_fetch_the_window(self, database):
        from repro.storage.access import resolve_index_scan_row_ids

        entry = database.prepare("SELECT k FROM r WHERE k >= 100 AND k <= 110")
        stored = database.store["r"]
        scan = next(
            node
            for node in entry.optimization.plan.iter_nodes()
            if node.operator is PhysicalOperator.INDEX_SCAN
        )
        row_ids = resolve_index_scan_row_ids(scan, entry.query, stored)
        assert row_ids == list(range(100, 111))  # 11 candidates, not ~1900

    def test_contradictory_conjuncts_fetch_nothing(self, database):
        from repro.storage.access import resolve_index_scan_row_ids

        entry = database.prepare("SELECT k FROM r WHERE k >= 500 AND k < 400")
        stored = database.store["r"]
        scan = next(
            node
            for node in entry.optimization.plan.iter_nodes()
            if node.operator is PhysicalOperator.INDEX_SCAN
        )
        assert resolve_index_scan_row_ids(scan, entry.query, stored) == []

    def test_results_match_seq_plans(self, database):
        sql = "SELECT k FROM r WHERE k > 100 AND k <= 110 AND k >= 105 ORDER BY k"
        rows = database.execute(sql).rows
        assert rows == [{"r.k": k} for k in range(105, 111)]
        for engine in ("row", "vectorized"):
            assert database.execute(sql, engine=engine).rows == rows
