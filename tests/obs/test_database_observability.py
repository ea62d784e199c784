"""Database- and server-level observability: traces, metrics, event log."""

import gc
import json
import re

import pytest

from repro.api.database import Database
from repro.common.errors import SqlError
from repro.engine.vectorized.executor import VectorizedExecutor
from repro.obs.metrics import parse_prometheus


def _seeded_database(**options) -> Database:
    database = Database(**options)
    database.execute_script(
        "CREATE TABLE t (ta INTEGER); "
        "CREATE TABLE u (ua INTEGER, ub INTEGER); "
        "INSERT INTO t VALUES (1), (2); "
        "INSERT INTO u VALUES (1, 0), (2, 0); "
        "ANALYZE t; ANALYZE u"
    )
    return database


def _grow_stale(database: Database) -> None:
    """Make u's analyzed statistics stale: 100 extra rows on the hot key."""
    values = ", ".join(f"(1, {index})" for index in range(100))
    database.execute(f"INSERT INTO u VALUES {values}")


JOIN = "SELECT COUNT(*) FROM t, u WHERE ta = ua"


class TestStats:
    def test_legacy_keys_preserved(self):
        database = _seeded_database()
        database.execute("SELECT ta FROM t")
        stats = database.stats()
        assert sorted(stats) == [
            "catalog_version",
            "executions",
            "monitor",
            "parallel",
            "plan_cache",
            "statements",
            "tables",
        ]
        assert stats["tables"] == {"t": 2, "u": 2}
        assert stats["statements"]["select"] == 1
        assert stats["statements"]["insert"] == 2
        assert stats["executions"] == 1
        assert stats["plan_cache"]["entries"] == 1

    def test_stats_is_a_registry_view(self):
        database = _seeded_database()
        database.execute("SELECT ta FROM t")
        registry_counts = database.metrics_registry.to_dict()["counters"]
        assert registry_counts["repro_statements_total"]["values"]["select"] == 1
        assert database.stats()["statements"]["select"] == 1


class TestTracing:
    def test_disabled_by_default_and_near_free(self):
        database = _seeded_database()
        result = database.execute("SELECT ta FROM t")
        assert result.trace_id is None
        assert database.traces() == []

    def test_statement_trace_spans(self):
        database = _seeded_database(trace=True)
        result = database.execute(JOIN)
        assert result.trace_id is not None
        trace = database.traces()[-1]
        assert trace["trace_id"] == result.trace_id
        assert trace["status"] == "ok"
        assert trace["statement"] == JOIN
        children = [child["name"] for child in trace["spans"]["children"]]
        assert children == [
            "plan-cache-lookup",
            "plan-wait",
            "parse",
            "bind",
            "optimize",
            "execute",
        ]
        lookup = trace["spans"]["children"][0]
        assert lookup["attributes"]["hit"] is False

    def test_statement_span_counts_gc_collections(self, monkeypatch):
        database = _seeded_database(trace=True)
        database.execute("SELECT ta FROM t")
        quiet = database.traces()[-1]["spans"]["attributes"]["gc_collections"]
        assert len(quiet) == len(gc.get_stats())

        scan = VectorizedExecutor._execute_scan_view

        def collecting_scan(self, node):
            gc.collect()
            return scan(self, node)

        monkeypatch.setattr(VectorizedExecutor, "_execute_scan_view", collecting_scan)
        database.execute(JOIN)
        counts = database.traces()[-1]["spans"]["attributes"]["gc_collections"]
        assert counts[-1] >= 2  # one full collection per scanned table
        text = database.execute("EXPLAIN ANALYZE " + JOIN).plan_text
        assert re.search(r"execution time: \S+ ms \(gc: [2-9]\d* full collections\)", text)

    def test_cache_hit_shortens_the_trace(self):
        database = _seeded_database(trace=True)
        database.execute(JOIN)
        database.execute(JOIN)
        trace = database.traces()[-1]
        children = [child["name"] for child in trace["spans"]["children"]]
        assert children == ["plan-cache-lookup", "execute"]
        assert trace["spans"]["children"][0]["attributes"]["hit"] is True

    def test_operator_spans_match_explain_analyze(self):
        database = _seeded_database(trace=True)
        database.execute(JOIN)
        analyzed = database.execute(f"EXPLAIN ANALYZE {JOIN}")
        expected = re.findall(
            r"est_rows=([^,)]+), actual_rows=([^,)]+)\)", analyzed.plan_text
        )
        execute_span = database.traces()[-2]["spans"]["children"][-1]
        operators = [
            span for span in execute_span["children"] if span["name"] == "operator"
        ]
        observed = [
            (span["attributes"]["est_rows"], span["attributes"]["actual_rows"])
            for span in operators
        ]
        assert observed == expected
        assert all(actual != "?" for _, actual in observed)

    def test_error_traces_carry_the_id(self):
        database = _seeded_database(trace=True)
        with pytest.raises(SqlError) as excinfo:
            database.execute("SELECT nope FROM t")
        trace = database.traces()[-1]
        assert trace["status"] == "error"
        assert "nope" in trace["error"]
        assert excinfo.value.trace_id == trace["trace_id"]

    def test_session_tag_flows_into_the_trace(self):
        database = _seeded_database(trace=True)
        database.execute("SELECT ta FROM t", session="session-7")
        assert database.traces()[-1]["session"] == "session-7"

    def test_traces_are_json_serializable(self):
        database = _seeded_database(trace=True)
        database.execute(JOIN)
        json.dumps(database.traces())


class TestSlowQueryLog:
    def test_threshold_zero_logs_everything_with_trace(self):
        database = _seeded_database(slow_query_ms=0.0)
        database.execute("SELECT ta FROM t")
        events = database.events(kind="slow_query")
        assert events
        event = events[-1]
        assert event["statement"] == "select ta from t"  # normalized form
        assert event["elapsed_ms"] >= 0.0
        # slow_query_ms implies tracing, so the trace rides along
        assert event["trace"]["trace_id"] == event["trace_id"]
        assert database.stats() is not None  # registry unaffected

    def test_high_threshold_logs_nothing(self):
        database = _seeded_database(slow_query_ms=60000.0)
        database.execute("SELECT ta FROM t")
        assert database.events(kind="slow_query") == []


class TestReoptimizationEvents:
    def test_refresh_records_events_with_deltas(self):
        database = _seeded_database()
        _grow_stale(database)
        database.execute(JOIN)
        database.refresh_cached_plans()
        events = database.events(kind="reoptimization")
        assert events
        event = events[-1]
        assert event["deltas"], "stale join statistics must surface deltas"
        delta = event["deltas"][0]
        assert delta["new_factor"] != delta["old_factor"]
        assert "t" in delta["expression"] and "u" in delta["expression"]
        assert isinstance(event["cost_before"], float)
        assert isinstance(event["cost_after"], float)
        assert event["plan_before"] and event["plan_after"]
        assert event["plan_flipped"] == (event["plan_before"] != event["plan_after"])
        counters = database.metrics_registry.to_dict()["counters"]
        assert counters["repro_reoptimizations_total"]["values"][""] >= 1

    def test_refresh_event_carries_the_work_done(self):
        database = _seeded_database()
        _grow_stale(database)
        database.execute(JOIN)
        database.refresh_cached_plans()
        event = database.events(kind="reoptimization")[-1]
        assert set(event["events"]) == {"explore", "cost", "best_changed", "bound_changed"}
        assert event["events"]["cost"] >= event["cost_evals_live"] + event["cost_evals_dead"]
        assert event["cost_evals_live"] + event["cost_evals_dead"] > 0
        assert event["wall_ms"] > 0.0

    def test_refresh_without_observations_records_nothing(self):
        database = _seeded_database()
        database.refresh_cached_plans()
        assert database.events(kind="reoptimization") == []


class TestMetricsSurface:
    def test_prometheus_round_trip_from_live_database(self):
        database = _seeded_database(trace=True)
        database.execute(JOIN)
        parsed = parse_prometheus(database.prometheus_metrics())
        names = {name for name, _, _ in parsed["samples"]}
        assert "repro_statements_total" in names
        assert "repro_plan_cache_hits" in names
        assert "repro_tables_t" in names
        samples = {
            (name, tuple(sorted(labels.items()))): value
            for name, labels, value in parsed["samples"]
        }
        assert samples[("repro_statements_total", (("statement", "select"),))] == 1

    def test_metrics_snapshot_shape(self):
        database = _seeded_database()
        database.execute(JOIN)
        metrics = database.metrics()
        assert set(metrics) == {"counters", "gauges", "histograms", "providers"}
        assert metrics["providers"]["plan_cache"]["entries"] == 1
        latency = metrics["histograms"]["repro_statement_seconds"]["values"]
        assert sum(series["count"] for series in latency.values()) >= 1
        json.dumps(metrics)


class TestServerObservability:
    @pytest.fixture()
    def served(self):
        from repro.server import start_server_thread

        database = _seeded_database(trace=True)
        handle = start_server_thread(database)
        yield database, handle.address
        handle.stop()

    def test_wire_metrics_traces_events(self, served):
        from repro.client import connect as client_connect

        database, (host, port) = served
        _grow_stale(database)
        with client_connect(host, port) as connection:
            result = connection.execute(JOIN).result
            assert result.trace_id is not None
            metrics = connection.metrics()
            assert metrics["counters"]["repro_statements_total"]["values"]["select"] >= 1
            assert metrics["providers"]["server"]["connections_served"] >= 1
            parsed = parse_prometheus(connection.prometheus_metrics())
            assert "repro_statements_total" in parsed["families"]
            traces = connection.traces(limit=1)
            assert traces[0]["trace_id"] == result.trace_id
            connection.refresh_cached_plans()
            events = connection.events(kind="reoptimization")
            assert events and events[-1]["deltas"]

    def test_error_frames_echo_the_trace_id(self, served):
        from repro.client import connect as client_connect

        database, (host, port) = served
        with client_connect(host, port) as connection:
            with pytest.raises(SqlError) as excinfo:
                connection.execute("SELECT nope FROM t")
            assert excinfo.value.trace_id == database.traces()[-1]["trace_id"]
