"""Tests for the runtime statistics monitor."""

import pytest

from repro.adaptive.monitor import ObservationHistory, RuntimeMonitor
from repro.engine.executor import ExecutionResult
from repro.optimizer.declarative import DeclarativeOptimizer
from repro.relational.expressions import Expression
from repro.workloads.queries import q3s
from repro.workloads.tpch import tpch_catalog


def execution_with(cards):
    return ExecutionResult(observed_cardinalities=dict(cards))


class TestObservationHistory:
    def test_latest_and_mean(self):
        history = ObservationHistory()
        history.add(10.0)
        history.add(20.0)
        assert history.latest == 20.0
        assert history.mean == 15.0


class TestRecording:
    def test_cumulative_vs_noncumulative(self):
        expr = Expression.of("customer", "orders")
        cumulative = RuntimeMonitor(cumulative=True)
        latest_only = RuntimeMonitor(cumulative=False)
        for monitor in (cumulative, latest_only):
            monitor.record_execution(execution_with({expr: 100}))
            monitor.record_execution(execution_with({expr: 300}))
        assert cumulative.observed(expr) == 200.0
        assert latest_only.observed(expr) == 300.0

    def test_unobserved_expression_returns_none(self):
        monitor = RuntimeMonitor()
        assert monitor.observed(Expression.of("a", "b")) is None

    def test_window_sizes_recorded(self):
        monitor = RuntimeMonitor(cumulative=False)
        monitor.record_window_sizes({"r1": 50, "r2": 3})
        assert monitor.observed_alias_rows("r1") == 50.0
        assert monitor.observed_alias_rows("missing") is None

    def test_operator_seconds_accumulate_across_slices(self):
        monitor = RuntimeMonitor()
        first = ExecutionResult(
            operator_timings={"seq-scan (a)#1": 0.5, "pipelined-hash-join (a b)#0": 2.0}
        )
        second = ExecutionResult(operator_timings={"seq-scan (a)#1": 0.25})
        monitor.record_execution(first)
        monitor.record_execution(second)
        assert monitor.operator_seconds() == {
            "seq-scan (a)#1": 0.75,
            "pipelined-hash-join (a b)#0": 2.0,
        }

    def test_operator_seconds_snapshot_is_detached(self):
        monitor = RuntimeMonitor()
        monitor.record_execution(ExecutionResult(operator_timings={"sort (a)#0": 1.0}))
        snapshot = monitor.operator_seconds()
        snapshot["sort (a)#0"] = 99.0
        assert monitor.operator_seconds()["sort (a)#0"] == 1.0

    def test_expressions_sorted_smallest_first(self):
        monitor = RuntimeMonitor()
        monitor.record_execution(
            execution_with(
                {
                    Expression.of("a", "b", "c"): 5,
                    Expression.leaf("a"): 10,
                    Expression.of("a", "b"): 7,
                }
            )
        )
        sizes = [len(expression) for expression in monitor.expressions()]
        assert sizes == sorted(sizes)


class TestDeltaProduction:
    def test_deltas_make_estimates_match_observations(self):
        catalog = tpch_catalog(0.01)
        optimizer = DeclarativeOptimizer(q3s(), catalog)
        optimizer.optimize()
        monitor = RuntimeMonitor(cumulative=False)
        expr = Expression.of("customer", "orders")
        monitor.record_execution(execution_with({expr: 4242}))
        deltas = monitor.produce_deltas(optimizer)
        assert deltas
        optimizer.reoptimize(deltas)
        assert optimizer.cost_model.summary(expr).cardinality == pytest.approx(4242, rel=1e-3)

    def test_leaf_observations_not_turned_into_selectivity_deltas(self):
        catalog = tpch_catalog(0.01)
        optimizer = DeclarativeOptimizer(q3s(), catalog)
        optimizer.optimize()
        monitor = RuntimeMonitor()
        monitor.record_execution(execution_with({Expression.leaf("orders"): 99}))
        assert monitor.produce_deltas(optimizer) == []

    def test_change_threshold_suppresses_tiny_updates(self):
        catalog = tpch_catalog(0.01)
        optimizer = DeclarativeOptimizer(q3s(), catalog)
        optimizer.optimize()
        monitor = RuntimeMonitor(cumulative=False, change_threshold=0.05)
        expr = Expression.of("customer", "orders")
        monitor.record_execution(execution_with({expr: 1000}))
        first = monitor.produce_deltas(optimizer)
        assert first
        # A 1% change is below the threshold: no new delta.
        monitor.record_execution(execution_with({expr: 1010}))
        assert monitor.produce_deltas(optimizer) == []
        # A 50% change passes the threshold.
        monitor.record_execution(execution_with({expr: 1500}))
        assert monitor.produce_deltas(optimizer)

    def test_window_size_deltas_scale_table_cardinality(self):
        catalog = tpch_catalog(0.01)
        optimizer = DeclarativeOptimizer(q3s(), catalog)
        optimizer.optimize()
        monitor = RuntimeMonitor(cumulative=False)
        monitor.record_window_sizes({"orders": 30_000})
        deltas = monitor.produce_deltas(optimizer)
        assert deltas
        factor = optimizer.cost_model.overlay.table_cardinality_factor("orders")
        assert factor == pytest.approx(30_000 / catalog.row_count("orders"), rel=1e-6)
