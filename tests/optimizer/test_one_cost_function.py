"""All three optimizers price alternatives with one cost function.

The searches differ, the prices must not: on the TPC-H statements, with and
without the harness's indexes (where indexed nested-loop joins compete, or
do not), Volcano, System R and the declarative optimizer must land on the
same optimum — cold, and again after one ``refresh_cached_plans()`` has fed
observed cardinalities to the declarative optimizer's incremental path.  A
cost function that ignores the index an indexed nested-loop join probes
makes them disagree on most statements.
"""

import pytest

from benchmarks.tpch import dbgen, runner
from repro.optimizer.baselines.system_r import SystemROptimizer
from repro.optimizer.baselines.volcano import VolcanoOptimizer

#: the ledger's smoke scale: the smallest at which the harness builds its
#: indexes over real rows.
SCALE = 0.002

QUERIES, _ = runner.load_queries()


@pytest.fixture(
    scope="module",
    params=[(0.0, True), (1.0, True), (0.0, False), (1.0, False)],
    ids=["uniform", "zipf", "uniform-noindex", "zipf-noindex"],
)
def database(request, tmp_path_factory):
    skew, indexes = request.param
    directory = tmp_path_factory.mktemp("tpch_cost")
    dbgen.generate(str(directory), scale_factor=SCALE, skew=skew)
    connection = runner.load_connection(str(directory), indexes=indexes)
    catalog = connection.database.catalog
    if not indexes:
        # The primary keys bring indexes of their own: drop every one.
        for table in dbgen.TABLES:
            for index in list(catalog.indexes_on(table)):
                connection.execute(f"DROP INDEX {index.name}")
    assert bool(catalog.indexes_on("orders")) == indexes
    assert indexes or not any(catalog.indexes_on(table) for table in dbgen.TABLES)
    yield connection
    connection.close()


@pytest.fixture(scope="module")
def refreshed(database):
    """The 16 cached plans after one feedback round: run each, then refresh."""
    db = database.database
    db.plan_cache.clear()
    entries = {}
    for name, sql in QUERIES.items():
        database.execute(sql).fetchall()
        entries[name] = db.plan_cache.cached_plans()[-1]
    db.refresh_cached_plans()
    assert any(
        any(entry.optimizer.cost_model.overlay.snapshot().values())
        for entry in entries.values()
    ), "the refresh must have fed observations to some plan"
    return entries


def assert_baselines_agree(query, catalog, cost, overlay=None):
    for baseline in (VolcanoOptimizer, SystemROptimizer):
        copy = overlay.copy() if overlay is not None else None
        baseline_cost = baseline(query, catalog, overlay=copy).optimize().cost
        assert baseline_cost == pytest.approx(cost, rel=1e-9), baseline.__name__


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_three_optimizers_reach_one_optimum(database, name):
    db = database.database
    query, _, declarative = db.optimize_select(QUERIES[name], name)
    assert_baselines_agree(query, db.catalog, declarative.cost)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_three_optimizers_agree_after_a_refresh(database, refreshed, name):
    entry = refreshed[name]
    assert_baselines_agree(
        entry.query,
        database.database.catalog,
        entry.optimization.cost,
        overlay=entry.optimizer.cost_model.overlay,
    )
