"""All three optimizers price alternatives with one cost function.

The searches differ, the prices must not: on the TPC-H statements with the
harness's indexes, where indexed nested-loop joins compete, Volcano, System R
and the declarative optimizer must land on the same optimum.  A cost
function that ignores the index an indexed nested-loop join probes makes
them disagree on most statements.
"""

import pytest

from benchmarks.tpch import dbgen, runner
from repro.optimizer.baselines.system_r import SystemROptimizer
from repro.optimizer.baselines.volcano import VolcanoOptimizer

#: the ledger's smoke scale: the smallest at which the harness builds its
#: indexes over real rows.
SCALE = 0.002

QUERIES, _ = runner.load_queries()


@pytest.fixture(scope="module", params=[0.0, 1.0], ids=["uniform", "zipf"])
def database(request, tmp_path_factory):
    directory = tmp_path_factory.mktemp("tpch_cost")
    dbgen.generate(str(directory), scale_factor=SCALE, skew=request.param)
    connection = runner.load_connection(str(directory))
    assert connection.database.catalog.indexes_on("orders"), "indexes must be built"
    yield connection.database
    connection.close()


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_three_optimizers_reach_one_optimum(database, name):
    query, _, declarative = database.optimize_select(QUERIES[name], name)
    for baseline in (VolcanoOptimizer, SystemROptimizer):
        cost = baseline(query, database.catalog).optimize().cost
        assert cost == pytest.approx(declarative.cost, rel=1e-9), baseline.__name__
