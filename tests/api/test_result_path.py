"""The SELECT result path: columns out of the engine, one tuple per row out.

Every engine and executor hands the API its output as columns; ORDER BY,
LIMIT and projection run column-wise and build each row once, as the tuple
the cursor returns.  These tests pin that the shaped rows are identical on
the row engine, the vectorized engine and the thread and process executors,
that they agree with a plain-Python oracle, that ``result.rows`` is only a
dict view of the tuples, and that what outlives a statement — fetched rows,
retained results, published table snapshots — sits in containers CPython's
cyclic GC does not track.
"""

import gc
import random

import pytest

import repro
from repro.storage import shm
from repro.storage.buffers import TypedColumn

ROLES = {
    "row": dict(engine="row"),
    "serial": dict(engine="vectorized"),
    "thread": dict(engine="vectorized", workers=2, executor="thread", batch_size=64),
    "process": dict(engine="vectorized", workers=2, executor="process", batch_size=64),
}


def literal(value):
    if value is None:
        return "NULL"
    return f"'{value}'" if isinstance(value, str) else repr(value)


def make_facts():
    rng = random.Random(36)

    def maybe(value):
        return None if rng.random() < 0.2 else value

    return [
        (
            k,
            maybe(rng.randint(0, 3)),  # few distinct values: ties everywhere
            maybe(rng.choice([0.5, 1.25, -2.0, 3.0])),
            maybe(rng.choice(["ash", "birch", "cedar"])),
        )
        for k in range(600)
    ]


FACTS = make_facts()


@pytest.fixture(scope="module")
def connections():
    base = repro.connect()
    base.execute("CREATE TABLE facts (k INTEGER, g INTEGER, f FLOAT, s STRING)")
    values = ", ".join("(" + ", ".join(map(literal, row)) + ")" for row in FACTS)
    base.execute(f"INSERT INTO facts VALUES {values}")
    base.execute("CREATE TABLE dims (dg INTEGER, label STRING)")
    base.execute("INSERT INTO dims VALUES (0, 'zero'), (1, 'one'), (2, 'two'), (3, NULL)")
    base.execute("CREATE INDEX idx_facts_s ON facts (s) USING HASH")
    base.execute("CREATE INDEX idx_facts_k ON facts (k) USING ORDERED")
    base.execute("ANALYZE")
    roles = {
        name: base.database.connect(**options)
        for name, options in ROLES.items()
        if name != "process" or shm.shm_available()
    }
    yield roles
    for connection in roles.values():
        connection.close()
    base.close()


QUERIES = [
    # multi-key, mixed directions, NULL keys and ties on every key
    "SELECT k, g, f, s FROM facts ORDER BY g DESC, f, s DESC",
    # ORDER BY columns outside the SELECT list, then LIMIT
    "SELECT k, s FROM facts ORDER BY f DESC, g, k LIMIT 17",
    # derived columns, ordered by a stored column
    "SELECT k, f * 2 AS twice, g + k AS total FROM facts WHERE g = 1 ORDER BY f, k DESC",
    # a join, ordered on the dimension's NULL-bearing TEXT column
    "SELECT facts.k, dims.label FROM facts, dims WHERE facts.g = dims.dg "
    "ORDER BY dims.label DESC, facts.k LIMIT 40",
    # an aggregate, NULL group key included
    "SELECT g, COUNT(*), SUM(f) FROM facts GROUP BY g ORDER BY g DESC",
    "SELECT COUNT(*) FROM facts",
    "SELECT k FROM facts WHERE k < 0 ORDER BY k",
    "SELECT k, s FROM facts ORDER BY k LIMIT 0",
    "SELECT s, k FROM facts WHERE s = 'birch' LIMIT 5",
    "SELECT k, s FROM facts",
]


def run_everywhere(connections, sql):
    results = {name: conn.execute(sql).fetchall() for name, conn in connections.items()}
    for name, rows in results.items():
        assert repr(rows) == repr(results["row"]), (sql, name)
    return results["row"]


@pytest.mark.parametrize("sql", QUERIES)
def test_every_executor_shapes_the_same_rows(connections, sql):
    run_everywhere(connections, sql)


def ordered(rows, *keys):
    """The shaping oracle: stable sorts, last key first, NULLs sort high."""
    shaped = list(rows)
    for position, descending in reversed(keys):
        shaped.sort(key=lambda row: (row[position] is None, row[position]), reverse=descending)
    return shaped


def test_order_by_matches_a_python_oracle(connections):
    rows = run_everywhere(connections, QUERIES[0])
    assert rows == ordered(FACTS, (1, True), (2, False), (3, True))
    top = run_everywhere(connections, QUERIES[1])
    expected = ordered(FACTS, (2, True), (1, False), (0, False))[:17]
    assert top == [(k, s) for k, _, _, s in expected]
    derived = run_everywhere(connections, QUERIES[2])
    group = ordered([row for row in FACTS if row[1] == 1], (2, False), (0, True))
    assert derived == [
        (k, None if f is None else f * 2, None if g is None else g + k) for k, g, f, _ in group
    ]


def test_edge_shapes(connections):
    assert run_everywhere(connections, "SELECT COUNT(*) FROM facts") == [(len(FACTS),)]
    assert run_everywhere(connections, "SELECT k FROM facts WHERE k < 0 ORDER BY k") == []
    assert run_everywhere(connections, "SELECT k, s FROM facts ORDER BY k LIMIT 0") == []
    cursor = connections["serial"].execute("SELECT k, s FROM facts ORDER BY k LIMIT 0")
    assert [entry[0] for entry in cursor.description] == ["facts.k", "facts.s"]
    assert cursor.rowcount == 0


@pytest.mark.parametrize("role", sorted(ROLES))
def test_rows_are_a_dict_view_of_the_tuples(connections, role):
    if role not in connections:
        pytest.skip("shared memory is unavailable")
    cursor = connections[role].execute(QUERIES[3])
    fetched = cursor.fetchall()
    result = cursor.result
    # Nothing on the SELECT -> fetchall() path built a dict.
    assert result._rows is None and result.execution._rows is None
    assert fetched == result.tuples
    assert result.rows == [dict(zip(result.columns, row)) for row in fetched]
    assert len(result.rows) == result.row_count == cursor.rowcount


def untracked_after_collect(containers):
    gc.collect()
    return [container for container in containers if gc.is_tracked(container)]


def test_what_outlives_a_statement_is_not_tracked_by_the_gc(connections):
    connection = connections["serial"]
    cursor = connection.execute("SELECT k, g, f, s FROM facts ORDER BY s, k")
    fetched = cursor.fetchall()
    output = cursor.result.execution.output.columns
    retained = [column for column in output.values() if not isinstance(column, TypedColumn)]
    assert retained and all(isinstance(column, tuple) for column in retained)

    snapshot = connection.database.store["facts"]
    columns = [c for c in snapshot.columns.values() if not isinstance(c, TypedColumn)]
    assert columns, "the TEXT column is list-backed until sealed"
    hashed = snapshot.indexes["idx_facts_s"]
    buckets = list(hashed._buckets.values())
    ordered_index = snapshot.indexes["idx_facts_k"]
    frozen = columns + buckets + [hashed._null_row_ids, ordered_index._keys]
    frozen += [ordered_index._row_ids, ordered_index._null_row_ids]
    assert all(isinstance(container, tuple) for container in frozen)

    assert untracked_after_collect(fetched + retained + frozen) == []


def test_a_writer_never_touches_the_sealed_version_it_copies(connections):
    connection = connections["serial"]
    connection.execute("CREATE TABLE notes (n INTEGER, body STRING)")
    connection.execute("INSERT INTO notes VALUES (1, 'a'), (2, NULL)")
    database = connection.database
    before = database.store["notes"]
    connection.execute("INSERT INTO notes VALUES (3, 'c')")
    after = database.store["notes"]
    assert after is not before and before.row_count == 2 and after.row_count == 3
    assert before.columns["body"] == ("a", None)
    assert after.columns["body"] == ("a", None, "c")
