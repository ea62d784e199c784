"""Generated differential tests for the typed aggregate kernels.

The contract: whatever path a hash aggregate takes — numpy kernels over the
typed buffers, or the generic Python loops (serial, thread-chunked,
process-chunked) — every engine and executor returns the row engine's rows,
``repr``-identical (value, type, float bits, group order).  The seeded
generator leans on what the kernels special-case: NULL-heavy columns,
duplicate keys, TEXT/INT/FLOAT keys, ``x / 0``, an all-NULL group, an empty
table, a single group, no GROUP BY, int sums past int64, DISTINCT.  Each
query also says which path it must have taken, read from the
``repro_aggregate_kernel_total`` counter, and everything runs a second time
with numpy taken away.
"""

import random

import pytest

import repro
from repro.common.errors import REFUSAL_REASONS
from repro.storage import buffers, shm
from repro.storage.buffers import sequential_sum

ROLES = {
    "row": dict(engine="row"),
    "serial": dict(engine="vectorized"),
    "thread": dict(engine="vectorized", workers=4, executor="thread"),
    "process": dict(engine="vectorized", workers=2, executor="process"),
}

#: 1e16 + 1.0 rounds back to 1e16, so only strict left-to-right addition
#: ends on 1.0: a compensated sum (builtin ``sum`` from Python 3.12) says
#: 200.0, a pairwise one (``np.sum``) something else again.
ILL_CONDITIONED = [1e16, 1.0, -1e16, 1.0] * 100
ILL_CONDITIONED_SUM = 1.0
ILL_CONDITIONED_AVG = 0.0025

#: (sql, path the vectorized engines must report when numpy is present)
QUERIES = [
    (
        "SELECT g, COUNT(*), COUNT(f), SUM(f), AVG(f), MIN(f), MAX(f), "
        "SUM(q), AVG(q), MIN(q), MAX(q) FROM facts GROUP BY g",
        "kernel",
    ),
    (
        "SELECT s, g, SUM(f * (1 - d)), SUM(q * 2 + 1), AVG(f / q), SUM(-f), MAX(q - g) "
        "FROM facts GROUP BY s, g ORDER BY s, g",
        "kernel",
    ),
    ("SELECT f, COUNT(*), SUM(q) FROM facts GROUP BY f", "kernel"),
    ("SELECT d, s, q, COUNT(*) FROM facts GROUP BY d, s, q", "kernel"),
    ("SELECT COUNT(*), COUNT(q), SUM(f), AVG(q), MIN(f), MAX(q) FROM facts", "kernel"),
    ("SELECT g, SUM(f), AVG(d) FROM facts WHERE g = 3 GROUP BY g", "kernel"),
    (
        "SELECT label, COUNT(*), SUM(f * w), AVG(q), MIN(w) FROM facts, dims "
        "WHERE g = dg GROUP BY label ORDER BY label",
        "kernel",
    ),
    ("SELECT SUM(x), AVG(x), COUNT(*) FROM shaky", "kernel"),
    ("SELECT g, COUNT(DISTINCT q), SUM(f) FROM facts GROUP BY g", "distinct"),
    ("SELECT g, SUM(DISTINCT q) FROM facts GROUP BY g", "distinct"),
    ("SELECT g, MIN(s), MAX(s), COUNT(s) FROM facts GROUP BY g", "text-values"),
    ("SELECT g, SUM(f) FROM facts WHERE k < 10 GROUP BY g", "small-input"),
    ("SELECT COUNT(*), SUM(f), MIN(k) FROM nothing", "small-input"),
    ("SELECT k, SUM(f) FROM nothing GROUP BY k", "small-input"),
    ("SELECT SUM(v), MIN(v), COUNT(v) FROM big", "overflow-bound"),
    ("SELECT p, SUM(v * 4) FROM big GROUP BY p", "overflow-bound"),
    ("SELECT AVG(v) FROM big", "inexact-int"),
    ("SELECT p, SUM(v + 0.5) FROM big GROUP BY p", "inexact-int"),
]


def literal(value):
    if value is None:
        return "NULL"
    return f"'{value}'" if isinstance(value, str) else repr(value)


def load(connection, table, ddl, rows):
    connection.execute(f"CREATE TABLE {table} ({ddl})")
    if rows:
        values = ", ".join("(" + ", ".join(map(literal, row)) + ")" for row in rows)
        connection.execute(f"INSERT INTO {table} VALUES {values}")
    connection.execute(f"ANALYZE {table}")


@pytest.fixture(scope="module")
def connections():
    rng = random.Random(20160626)

    def maybe(value, null_share=0.25):
        return None if rng.random() < null_share else value

    facts = []
    for k in range(2400):
        g = rng.randint(0, 5)
        all_null = g == 5  # one group whose every aggregate input is NULL
        facts.append(
            (
                k,
                g,
                None if all_null else maybe(round(rng.uniform(-500, 500), 2)),
                maybe(rng.choice(["red", "green", "blue"]), 0.1),
                maybe(rng.choice([0.0, 0.05, 0.1])),
                None if all_null else maybe(rng.choice([0, 0, 1, 2, 7, -3])),
            )
        )
    base = repro.connect()
    load(base, "facts", "k INTEGER, g INTEGER, f FLOAT, s STRING, d FLOAT, q INTEGER", facts)
    load(base, "dims", "dg INTEGER, label STRING, w FLOAT", [(g, f"dim{g % 3}", g / 4) for g in range(5)])
    load(base, "nothing", "k INTEGER, f FLOAT", [])
    load(base, "big", "p INTEGER, v INTEGER", [(i % 3, 2**62 - i) for i in range(300)])
    load(base, "shaky", "x FLOAT", [(x,) for x in ILL_CONDITIONED])
    roles = {
        name: base.database.connect(**options)
        for name, options in ROLES.items()
        if name != "process" or shm.shm_available()
    }
    yield roles
    for connection in roles.values():
        connection.close()


def kernel_counts(database):
    entry = database.metrics()["counters"]["repro_aggregate_kernel_total"]
    assert entry["label"] == ("path", "reason")
    return dict(entry["values"])


def run_everywhere(connections, sql):
    results = {name: connection.execute(sql).fetchall() for name, connection in connections.items()}
    for name, rows in results.items():
        assert repr(rows) == repr(results["row"]), (sql, name)
    return results["row"]


@pytest.mark.parametrize("numpy_present", [True, False], ids=["numpy", "no-numpy"])
@pytest.mark.parametrize("sql,expected", QUERIES)
def test_every_executor_returns_the_row_engines_bytes(
    connections, monkeypatch, sql, expected, numpy_present
):
    if numpy_present and buffers._np is None:
        pytest.skip("numpy is not installed")
    if not numpy_present:
        monkeypatch.setattr(buffers, "_np", None)
        expected = "no-numpy"
    database = connections["row"].database
    before = kernel_counts(database)
    run_everywhere(connections, sql)
    after = kernel_counts(database)
    moved = {key: after[key] - before.get(key, 0) for key in after if after[key] != before.get(key, 0)}
    assert expected == "kernel" or expected in REFUSAL_REASONS
    key = "kernel" if expected == "kernel" else f"generic,{expected}"
    assert moved == {key: len(connections) - 1}, (sql, moved)  # the row engine has no kernels


def test_float_sum_is_pinned_on_every_engine_and_python(connections):
    """Not what builtin ``sum`` (3.12+) or ``np.sum`` return — and not allowed to drift."""
    assert sequential_sum(ILL_CONDITIONED) == ILL_CONDITIONED_SUM
    rows = run_everywhere(connections, "SELECT SUM(x), AVG(x) FROM shaky")
    assert rows == [(ILL_CONDITIONED_SUM, ILL_CONDITIONED_AVG)]
    rows = run_everywhere(connections, "SELECT SUM(x), AVG(x) FROM shaky WHERE x > 0.5")
    # 100 x 1e16 with 200 x 1.0 in between, every 1.0 absorbed as it arrives;
    # a compensated sum keeps them and lands 256 higher.
    assert rows == [(1e18, 3333333333333333.5)]


def test_explain_analyze_footer_and_span_name_the_path(connections):
    database = connections["serial"].database
    sql = "SELECT g, SUM(f) FROM facts GROUP BY g"
    expected = "kernel" if buffers._np is not None else "generic(no-numpy)"
    text = database.execute("EXPLAIN ANALYZE " + sql).plan_text
    assert text.splitlines()[-1].endswith(f"engine: vectorized, aggregate={expected}")
    row_engine_text = connections["row"].cursor().execute("EXPLAIN ANALYZE " + sql).result.plan_text
    assert "hash-aggregate" in row_engine_text and "aggregate=" not in row_engine_text
    distinct = database.execute("EXPLAIN ANALYZE SELECT COUNT(DISTINCT q) FROM facts").plan_text
    assert ("aggregate=generic(distinct)" in distinct) == (buffers._np is not None)

    database.tracer.enabled = True
    try:
        trace_id = database.execute(sql).trace_id
        trace = next(t for t in database.traces() if t["trace_id"] == trace_id)
    finally:
        database.tracer.enabled = False
    execute = next(span for span in trace["spans"]["children"] if span["name"] == "execute")
    attributes = next(
        span["attributes"]
        for span in execute["children"]
        if span["name"] == "operator" and "hash-aggregate" in span["attributes"]["operator"]
    )
    if buffers._np is not None:
        assert attributes["kernel"] is True and "reason" not in attributes
    else:
        assert attributes["kernel"] is False and attributes["reason"] == "no-numpy"
    assert 'repro_aggregate_kernel_total{path="' in database.prometheus_metrics()
