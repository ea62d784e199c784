"""A cold optimize() must return the optimum under every pruning config.

Reference counting can kill a region while its children's minima are still
improving; the costs the region retains then go stale and, unless the cold
pass refreshes them, hide the optimum from the regions above.  The overlays
below are cells where a pruned cold pass without that refresh misses: the
q5 cell of a 17×17 grid of two join-selectivity factors (2264.37 against
the optimum 2235.68), and five q5s overlays found by sweeping random
selectivity factors (1–3 factors on join pairs or larger sub-expressions,
each 2^uniform(-4, 4), drawn from ``random.Random(1)``).
"""

import pytest

from repro.cost.overrides import StatisticsOverlay
from repro.optimizer.declarative import DeclarativeOptimizer
from repro.optimizer.tables import PruningConfig
from repro.relational.expressions import Expression
from repro.workloads.queries import q5, q5s
from repro.workloads.tpch import tpch_catalog

CONFIGS = [
    PruningConfig.none(),
    PruningConfig.evita_raced(),
    PruningConfig.aggsel(),
    PruningConfig.aggsel_refcount(),
    PruningConfig.aggsel_bounding(),
    PruningConfig.full(),
]

Q5_CELL = [(("customer", "lineitem"), 2**-0.5), (("region", "supplier"), 2**0.5)]

Q5S_OVERLAYS = [
    [(("orders", "region"), 0.749093611946351)],
    [(("customer", "lineitem"), 0.7262381668520581), (("customer", "nation"), 0.7559785209413871)],
    [
        (("lineitem", "nation", "region"), 0.45197651501624375),
        (("nation", "orders", "region"), 0.4259108394569413),
        (("customer", "lineitem", "nation", "region", "supplier"), 1.237844734768037),
    ],
    [
        (("lineitem", "nation", "supplier"), 0.090621126240172),
        (("customer", "supplier"), 0.7269198350485656),
        (("customer", "orders", "region"), 0.1552978846601764),
    ],
    [
        (("lineitem", "nation", "region", "supplier"), 1.365981736082978),
        (("lineitem", "nation", "orders", "region"), 0.4496307602941379),
        (("customer", "lineitem", "nation", "region", "supplier"), 3.7809774385002335),
    ],
]


@pytest.fixture(scope="module")
def catalog():
    return tpch_catalog(0.01)


def cold_cost(query, catalog, factors, pruning):
    overlay = StatisticsOverlay()
    for aliases, factor in factors:
        overlay.set_selectivity_factor(Expression.of(*aliases), factor)
    optimizer = DeclarativeOptimizer(query, catalog, pruning=pruning, overlay=overlay)
    return optimizer.optimize().cost


CASES = [(q5, Q5_CELL)] + [(q5s, factors) for factors in Q5S_OVERLAYS]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda config: config.label())
@pytest.mark.parametrize("make_query,factors", CASES, ids=["q5-cell"] + ["q5s"] * 5)
def test_cold_cost_is_the_unpruned_optimum(catalog, make_query, factors, config):
    optimum = cold_cost(make_query(), catalog, factors, PruningConfig.none())
    cost = cold_cost(make_query(), catalog, factors, config)
    assert cost == pytest.approx(optimum, rel=1e-9)


def test_the_q5_cell_lands_on_the_recorded_optimum(catalog):
    cost = cold_cost(q5(), catalog, Q5_CELL, PruningConfig.full())
    assert cost == pytest.approx(2235.68, abs=0.005)
