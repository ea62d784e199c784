"""Figure 10: per-slice execution time of adaptive vs static plans.

Four series over the same SegTollS stream: a statically chosen bad plan, a
statically chosen good plan (optimized with full statistics over the whole
stream), adaptive execution with cumulative statistics, and adaptive execution
with non-cumulative (latest-slice) statistics.
"""

from __future__ import annotations

import pytest

from benchmarks.harness import format_table, publish
from repro.adaptive.controller import AdaptationMode, AdaptiveController
from repro.optimizer.declarative import DeclarativeOptimizer
from repro.optimizer.tables import PruningConfig
from repro.streams.linear_road import (
    GeneratorConfig,
    LinearRoadGenerator,
    linear_road_catalog,
    segtolls_query,
)

SLICES = 15


@pytest.fixture(scope="module")
def stream_slices():
    generator = LinearRoadGenerator(GeneratorConfig(reports_per_second=30, cars=150, seed=29))
    return generator.generate_slices(SLICES, 1.0)


def _good_plan(stream_slices):
    """Plan optimized with statistics over the whole stream ("good single plan")."""
    sample = [row for stream_slice in stream_slices for row in stream_slice.rows]
    catalog = linear_road_catalog(sample)
    return DeclarativeOptimizer(segtolls_query(), catalog).optimize().plan


def _bad_plan():
    """Plan optimized with no statistics at all ("bad single plan")."""
    catalog = linear_road_catalog()
    return DeclarativeOptimizer(
        segtolls_query(), catalog, pruning=PruningConfig.full()
    ).optimize().plan


def _run_static(plan, stream_slices):
    controller = AdaptiveController(
        segtolls_query(), linear_road_catalog(), mode=AdaptationMode.STATIC, static_plan=plan
    )
    return controller.run(stream_slices)


def _run_adaptive(stream_slices, cumulative):
    controller = AdaptiveController(
        segtolls_query(),
        linear_road_catalog(),
        mode=AdaptationMode.INCREMENTAL,
        cumulative=cumulative,
        reoptimize_every=1,
    )
    return controller.run(stream_slices)


@pytest.mark.parametrize("series", ["good-plan", "aqp-cumulative"])
def test_execution_series(benchmark, stream_slices, series):
    if series == "good-plan":
        plan = _good_plan(stream_slices)

        def run():
            return _run_static(plan, stream_slices)

    else:

        def run():
            return _run_adaptive(stream_slices, cumulative=True)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(result.reports) == SLICES


def test_fig10_report(benchmark, stream_slices):
    # The trivial pedantic call registers this test as a benchmark so the
    # figure data is still produced under `pytest --benchmark-only`.
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    series = {
        "Bad Plan": _run_static(_bad_plan(), stream_slices),
        "Good Plan": _run_static(_good_plan(stream_slices), stream_slices),
        "AQP-Cumulative": _run_adaptive(stream_slices, cumulative=True),
        "AQP-NonCumulative": _run_adaptive(stream_slices, cumulative=False),
    }

    # All four strategies must compute identical results per slice.
    reference = [r.output_rows for r in series["Good Plan"].reports]
    for name, outcome in series.items():
        assert [r.output_rows for r in outcome.reports] == reference, name

    header = ["series"] + [str(i) for i in range(SLICES)]
    rows = []
    totals = {}
    for name, outcome in series.items():
        per_slice_ms = [r.execute_seconds * 1000 for r in outcome.reports]
        rows.append([name] + per_slice_ms)
        totals[name] = sum(per_slice_ms)
    text = format_table("Figure 10: per-slice execution time (ms)", header, rows)
    text += "\n" + format_table(
        "Figure 10 totals: cumulative execution time (ms)",
        ["series", "total_ms"],
        [[name, total] for name, total in totals.items()],
    )
    publish("fig10_aqp_execution", text)

    # Shape checks.  At this (deliberately small) stream scale the execution
    # engine's per-slice times are dominated by how many window tuples flow
    # through the first join, so the separation between the statically "good"
    # and "bad" plans is much narrower than in the paper.
    # The claims that survive scaling down: adaptive execution tracks the
    # better static plan within a modest factor, never collapses to the worst
    # behaviour, and produces identical answers.
    best_static = min(totals["Bad Plan"], totals["Good Plan"])
    worst_static = max(totals["Bad Plan"], totals["Good Plan"])
    assert totals["AQP-Cumulative"] <= worst_static * 1.1
    assert totals["AQP-Cumulative"] <= best_static * 2.0
    assert totals["AQP-NonCumulative"] <= worst_static * 1.2
