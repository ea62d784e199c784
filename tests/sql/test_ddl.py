"""Parser + binder tests for the DDL/DML grammar and its error paths.

Every rejection must be a positioned :class:`SqlError` whose rendered
message carries the caret snippet pointing at the offending token.
"""

import pytest

import repro
from repro.common.errors import SqlBindingError, SqlError, SqlSyntaxError
from repro.sql.ast import (
    AnalyzeStatement,
    CopyStatement,
    CreateIndexStatement,
    CreateTableStatement,
    DropIndexStatement,
    InsertStatement,
    Parameter,
)
from repro.sql.parser import parse, parse_script, split_statements


def assert_caret_points_at(error: SqlSyntaxError, source: str, fragment: str) -> None:
    """The error's (line, column) lands on *fragment* in *source*."""
    assert error.position is not None, f"no position on: {error}"
    line, column = error.position
    line_text = source.splitlines()[line - 1]
    assert line_text[column - 1 :].startswith(fragment), (
        f"caret at {error.position} points at "
        f"{line_text[column - 1:][:20]!r}, expected {fragment!r}"
    )
    assert "^" in str(error)  # rendered caret snippet


class TestCreateTableParsing:
    def test_full_create(self):
        statement = parse(
            "CREATE TABLE t (a INTEGER, b FLOAT, c STRING, d DATE, "
            "PRIMARY KEY (a), INDEX (b), INDEX (d))"
        )
        assert isinstance(statement, CreateTableStatement)
        assert [c.name for c in statement.columns] == ["a", "b", "c", "d"]
        assert statement.primary_key == "a"
        assert [i.column for i in statement.indexes] == ["b", "d"]

    def test_missing_paren(self):
        source = "CREATE TABLE t a INTEGER"
        with pytest.raises(SqlSyntaxError) as excinfo:
            parse(source)
        assert "'('" in str(excinfo.value)
        assert_caret_points_at(excinfo.value, source, "a INTEGER")

    def test_missing_type(self):
        source = "CREATE TABLE t (a, b INTEGER)"
        with pytest.raises(SqlSyntaxError) as excinfo:
            parse(source)
        assert_caret_points_at(excinfo.value, source, ",")
        assert "type for column 'a'" in str(excinfo.value)

    def test_empty_column_list(self):
        with pytest.raises(SqlSyntaxError):
            parse("CREATE TABLE t ()")

    def test_duplicate_primary_key_clause(self):
        with pytest.raises(SqlSyntaxError, match="duplicate PRIMARY KEY"):
            parse("CREATE TABLE t (a INTEGER, PRIMARY KEY (a), PRIMARY KEY (a))")

    def test_unknown_type_is_binding_error(self):
        conn = repro.connect()
        source = "CREATE TABLE t (a FANCYTYPE)"
        with pytest.raises(SqlBindingError) as excinfo:
            conn.execute(source)
        assert "unknown type 'FANCYTYPE'" in str(excinfo.value)
        assert_caret_points_at(excinfo.value, source, "a FANCYTYPE")

    def test_duplicate_column(self):
        conn = repro.connect()
        with pytest.raises(SqlBindingError, match="duplicate column 'a'"):
            conn.execute("CREATE TABLE t (a INTEGER, a FLOAT)")

    def test_index_on_unknown_column(self):
        conn = repro.connect()
        with pytest.raises(SqlBindingError, match="INDEX column 'z'"):
            conn.execute("CREATE TABLE t (a INTEGER, INDEX (z))")

    def test_primary_key_on_unknown_column(self):
        conn = repro.connect()
        with pytest.raises(SqlBindingError, match="PRIMARY KEY column 'z'"):
            conn.execute("CREATE TABLE t (a INTEGER, PRIMARY KEY (z))")


class TestInsertParsing:
    def test_insert_forms(self):
        statement = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL), (-3, ?)")
        assert isinstance(statement, InsertStatement)
        assert statement.columns == ("a", "b")
        assert len(statement.rows) == 3
        assert statement.rows[1][1].value is None
        assert isinstance(statement.rows[2][1], Parameter)

    def test_missing_values_keyword(self):
        source = "INSERT INTO t (1, 2)"
        with pytest.raises(SqlSyntaxError) as excinfo:
            parse(source)
        assert_caret_points_at(excinfo.value, source, "1, 2)")

    def test_column_reference_in_values(self):
        source = "INSERT INTO t VALUES (a)"
        with pytest.raises(SqlSyntaxError, match="literal, NULL or parameter") as excinfo:
            parse(source)
        assert_caret_points_at(excinfo.value, source, "a)")

    def test_unterminated_row(self):
        with pytest.raises(SqlSyntaxError, match="','|'\\)'"):
            parse("INSERT INTO t VALUES (1, 2")

    def test_insert_unknown_table(self):
        conn = repro.connect()
        with pytest.raises(SqlBindingError, match="unknown table 'missing'"):
            conn.execute("INSERT INTO missing VALUES (1)")

    def test_insert_arity_mismatch(self):
        conn = repro.connect()
        conn.execute("CREATE TABLE t (a INTEGER, b FLOAT)")
        source = "INSERT INTO t VALUES (1)"
        with pytest.raises(SqlBindingError) as excinfo:
            conn.execute(source)
        assert "1 value but 2 columns" in str(excinfo.value)
        assert_caret_points_at(excinfo.value, source, "1)")

    def test_insert_type_mismatch_literal(self):
        conn = repro.connect()
        conn.execute("CREATE TABLE t (a INTEGER, b FLOAT)")
        source = "INSERT INTO t VALUES (1, 'oops')"
        with pytest.raises(SqlBindingError) as excinfo:
            conn.execute(source)
        assert "type mismatch for column 'b'" in str(excinfo.value)
        assert "expected float" in str(excinfo.value)
        assert_caret_points_at(excinfo.value, source, "'oops'")

    def test_integer_column_rejects_float(self):
        conn = repro.connect()
        conn.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(SqlBindingError, match="type mismatch"):
            conn.execute("INSERT INTO t VALUES (1.5)")

    def test_float_column_accepts_integer(self):
        conn = repro.connect()
        conn.execute("CREATE TABLE t (b FLOAT)")
        assert conn.execute("INSERT INTO t VALUES (1)").rowcount == 1

    def test_null_always_admitted(self):
        conn = repro.connect()
        conn.execute("CREATE TABLE t (a INTEGER, b FLOAT, c STRING)")
        assert conn.execute("INSERT INTO t VALUES (NULL, NULL, NULL)").rowcount == 1


class TestCopyAndAnalyzeParsing:
    def test_copy_parses(self):
        statement = parse("COPY t FROM '/tmp/x.csv'")
        assert isinstance(statement, CopyStatement)
        assert statement.path == "/tmp/x.csv"

    def test_copy_requires_quoted_path(self):
        source = "COPY t FROM data.csv"
        with pytest.raises(SqlSyntaxError, match="quoted CSV path") as excinfo:
            parse(source)
        assert_caret_points_at(excinfo.value, source, "data.csv")

    def test_copy_requires_from(self):
        with pytest.raises(SqlSyntaxError, match="FROM"):
            parse("COPY t '/tmp/x.csv'")

    def test_copy_with_options(self):
        statement = parse("COPY t FROM '/tmp/x.csv' WITH (NULL 'NULL', DELIMITER '|')")
        assert isinstance(statement, CopyStatement)
        assert statement.null_token == "NULL"
        assert statement.delimiter == "|"

    def test_copy_options_default(self):
        statement = parse("COPY t FROM '/tmp/x.csv'")
        assert statement.null_token is None
        assert statement.delimiter == ","

    def test_copy_rejects_multichar_delimiter(self):
        with pytest.raises(SqlSyntaxError, match="single character"):
            parse("COPY t FROM '/tmp/x.csv' WITH (DELIMITER 'ab')")

    def test_copy_rejects_unknown_option(self):
        with pytest.raises(SqlSyntaxError, match="DELIMITER"):
            parse("COPY t FROM '/tmp/x.csv' WITH (HEADER 'yes')")

    def test_analyze_forms(self):
        assert isinstance(parse("ANALYZE"), AnalyzeStatement)
        statement = parse("ANALYZE t")
        assert isinstance(statement, AnalyzeStatement)
        assert statement.table == "t"

    def test_explain_analyze_still_explains(self):
        from repro.sql.ast import ExplainStatement

        statement = parse("EXPLAIN ANALYZE SELECT a FROM t")
        assert isinstance(statement, ExplainStatement)
        assert statement.analyze


class TestParameterParsing:
    def test_question_marks_number_left_to_right(self):
        statement = parse("SELECT a FROM t WHERE b > ? AND c < ?")
        parameters = [
            predicate.right for predicate in statement.predicates
        ]
        assert [parameter.index for parameter in parameters] == [1, 2]

    def test_mixed_styles_rejected(self):
        source = "SELECT a FROM t WHERE b > ? AND c < $2"
        with pytest.raises(SqlSyntaxError, match="mix") as excinfo:
            parse(source)
        assert_caret_points_at(excinfo.value, source, "$2")

    def test_dollar_zero_rejected(self):
        with pytest.raises(SqlSyntaxError, match="1-based"):
            parse("SELECT a FROM t WHERE b > $0")

    def test_bare_dollar_rejected(self):
        with pytest.raises(SqlSyntaxError, match="parameter number"):
            parse("SELECT a FROM t WHERE b > $")

    def test_parameter_vs_parameter_rejected(self):
        conn = repro.connect()
        conn.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(SqlBindingError, match="references no relation columns"):
            conn.execute("SELECT a FROM t WHERE ? = ?", (1, 1))

    def test_string_parameter_in_arithmetic_rejected_cleanly(self):
        # Parameter-only arithmetic types the slots FLOAT, so a mistyped
        # value raises SqlError instead of a raw TypeError from the engine.
        conn = repro.connect()
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(SqlError, match="type mismatch for parameter"):
            conn.execute("SELECT a FROM t WHERE a < ? + ?", ("foo", "bar"))

    def test_parameter_vs_constant_rejected(self):
        conn = repro.connect()
        conn.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(SqlBindingError, match="references no relation columns"):
            conn.execute("SELECT a FROM t WHERE ? = 1", (1,))


class TestScripts:
    def test_parse_script_multiple_statements(self):
        statements = parse_script(
            "CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1); SELECT a FROM t;"
        )
        assert len(statements) == 3

    def test_split_statements_respects_strings(self):
        chunks = split_statements(
            "SELECT a FROM t WHERE c = 'x;y'; ANALYZE t;\n-- comment; not a stmt\n"
        )
        assert chunks == ["SELECT a FROM t WHERE c = 'x;y'", "ANALYZE t"]

    def test_missing_semicolon_between_statements(self):
        with pytest.raises(SqlSyntaxError, match="';'"):
            parse_script("ANALYZE t ANALYZE u")


class TestCreateIndexParsing:
    def test_full_create_index(self):
        statement = parse("CREATE INDEX idx_t_a ON t (a)")
        assert isinstance(statement, CreateIndexStatement)
        assert statement.name == "idx_t_a"
        assert statement.table == "t"
        assert statement.column == "a"
        assert statement.unique is False
        assert statement.kind is None

    def test_unique_and_using(self):
        statement = parse("CREATE UNIQUE INDEX i ON t (a) USING HASH")
        assert statement.unique is True
        assert statement.kind == "hash"
        assert parse("CREATE INDEX i ON t (a) USING ORDERED").kind == "ordered"

    def test_unknown_kind(self):
        source = "CREATE INDEX i ON t (a) USING btree"
        with pytest.raises(SqlSyntaxError) as excinfo:
            parse(source)
        assert "HASH or ORDERED" in str(excinfo.value)
        assert_caret_points_at(excinfo.value, source, "btree")

    def test_missing_on(self):
        source = "CREATE INDEX i t (a)"
        with pytest.raises(SqlSyntaxError) as excinfo:
            parse(source)
        assert "ON" in str(excinfo.value)
        assert_caret_points_at(excinfo.value, source, "t (a)")

    def test_drop_index(self):
        statement = parse("DROP INDEX idx_t_a")
        assert isinstance(statement, DropIndexStatement)
        assert statement.name == "idx_t_a"

    def test_drop_without_name(self):
        with pytest.raises(SqlSyntaxError, match="index name"):
            parse("DROP INDEX")


class TestCreateIndexBinding:
    def _connection(self):
        conn = repro.connect()
        conn.execute("CREATE TABLE t (a INTEGER, b FLOAT)")
        return conn

    def test_create_and_drop_roundtrip(self):
        conn = self._connection()
        conn.execute("CREATE INDEX idx_a ON t (a)")
        schema = conn.database.catalog.schema
        assert schema.has_index("idx_a")
        assert schema.index("idx_a").kind == "ordered"
        conn.execute("DROP INDEX idx_a")
        assert not schema.has_index("idx_a")

    def test_unknown_table_caret(self):
        conn = self._connection()
        source = "CREATE INDEX idx ON missing (a)"
        with pytest.raises(SqlBindingError) as excinfo:
            conn.execute(source)
        assert "unknown table 'missing'" in str(excinfo.value)
        assert_caret_points_at(excinfo.value, source, "missing")

    def test_unknown_column_caret(self):
        conn = self._connection()
        source = "CREATE INDEX idx ON t (nope)"
        with pytest.raises(SqlBindingError) as excinfo:
            conn.execute(source)
        assert "column 'nope' does not exist" in str(excinfo.value)
        assert_caret_points_at(excinfo.value, source, "nope")

    def test_duplicate_name_rejected(self):
        conn = self._connection()
        conn.execute("CREATE INDEX idx ON t (a)")
        with pytest.raises(SqlBindingError, match="already exists"):
            conn.execute("CREATE INDEX idx ON t (b)")

    def test_drop_unknown_index_caret(self):
        conn = self._connection()
        source = "DROP INDEX ghost"
        with pytest.raises(SqlBindingError) as excinfo:
            conn.execute(source)
        assert "unknown index 'ghost'" in str(excinfo.value)
        assert_caret_points_at(excinfo.value, source, "ghost")

    def test_hash_index_built_physically(self):
        conn = self._connection()
        conn.execute("INSERT INTO t VALUES (1, 0.5), (2, 1.5)")
        conn.execute("CREATE INDEX idx_hash ON t (a) USING HASH")
        stored = conn.database.store["t"]
        assert stored.index("idx_hash").kind == "hash"
        assert list(stored.index("idx_hash").lookup(2)) == [1]


class TestUniqueIndexSql:
    def test_primary_key_rejects_duplicate_insert(self):
        conn = repro.connect()
        conn.execute("CREATE TABLE t (a INTEGER, PRIMARY KEY (a))")
        conn.execute("INSERT INTO t VALUES (1), (2)")
        with pytest.raises(SqlError, match="unique index"):
            conn.execute("INSERT INTO t VALUES (2)")
        # the failed insert changed nothing
        result = conn.database.execute("SELECT COUNT(*) FROM t")
        assert result.rows == [{"count(*)": 2}]

    def test_create_unique_index_over_duplicates_rejected(self):
        conn = repro.connect()
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("INSERT INTO t VALUES (1), (1)")
        with pytest.raises(SqlError, match="duplicate values"):
            conn.execute("CREATE UNIQUE INDEX idx_a ON t (a)")
        # the failed build registered nothing: the name is still free
        assert not conn.database.catalog.schema.has_index("idx_a")
        conn.execute("CREATE INDEX idx_a ON t (a)")  # non-unique is fine
