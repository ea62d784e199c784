"""The traced pass: one number per layer, measured from outside the program.

Two sources only: wall-clock around calls into each module's public
functions, and the span trees / counters the program already exposes
(``Database.tracer``, ``Database.traces()``, ``Database.stats()``,
``OptimizationResult.metrics``).  Nothing here feeds an end-to-end metric;
the traced pass runs separately so that tracing cost never leaks into them.
"""

from __future__ import annotations

import socket
import statistics
import time
from contextlib import closing
from typing import Callable, Dict, Iterable, List, Sequence

from benchmarks.ledger import stages
from benchmarks.ledger.dataset import Checks, Dataset
from benchmarks.ledger.spec import PARALLEL_WORKERS, Repetitions
from repro.engine.parallel.stats import reset_parallel_stats
from repro.relational import scalar
from repro.relational.expressions import ColumnRef
from repro.server import protocol
from repro.sql.parser import Parser
from repro.storage import shm
from repro.storage.buffers import TypedColumn

Metrics = Dict[str, float]

STATEMENT_SPANS = ("plan-cache-lookup", "plan-wait", "parse", "bind", "optimize", "execute")
#: plan operator → reported kind; anything else lands in ``other``.
OPERATOR_KINDS = {
    "seq-scan": "seq-scan",
    "index-scan": "index-scan",
    "pipelined-hash-join": "hash-join",
    "indexed-nested-loop-join": "indexed-nested-loop-join",
    "hash-aggregate": "hash-aggregate",
    "sort": "sort",
}
KERNEL_ROWS = 1_000_000
SINGLE_DELTA_QUERIES = ("q05", "q07", "q09")


def median_ms(call: Callable[[], object], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        begin = time.perf_counter()
        call()
        samples.append((time.perf_counter() - begin) * 1e3)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Folding span trees
# ---------------------------------------------------------------------------


def children_named(span: dict, name: str) -> List[dict]:
    return [child for child in span["children"] if child["name"] == name]


def statement_spans(runs: Iterable[stages.Run]) -> Dict[str, float]:
    """ms per top-level span name, summed over one sweep's statements."""
    totals = dict.fromkeys(STATEMENT_SPANS + ("statement_self",), 0.0)
    for run in runs:
        root = run.trace["spans"]
        covered = 0.0
        for child in root["children"]:
            covered += child["seconds"]
            if child["name"] in totals:
                totals[child["name"]] += child["seconds"] * 1e3
        totals["statement_self"] += (root["seconds"] - covered) * 1e3
    return totals


def operator_self_ms(runs: Iterable[stages.Run]) -> Dict[str, float]:
    """Operator self time by kind over one sweep.

    Operator spans are inclusive and flat under ``execute``; the plan tree
    of the statement's result says which spans are whose children.
    ``output`` is the part of ``execute`` no operator span covers — ORDER
    BY, LIMIT and projection have no span of their own yet.
    """
    totals = dict.fromkeys(list(OPERATOR_KINDS.values()) + ["other", "output"], 0.0)
    for run in runs:
        execute = children_named(run.trace["spans"], "execute")[0]
        seconds = {
            span["attributes"]["operator"]: span["seconds"]
            for span in children_named(execute, "operator")
        }
        plan = run.result.plan
        keys = plan.operator_keys()
        position = 0

        def visit(node) -> float:
            nonlocal position
            key = keys[position]
            position += 1
            inclusive = seconds.get(key, 0.0)
            below = sum(visit(child) for child in node.children)
            kind = OPERATOR_KINDS.get(node.operator.value, "other")
            totals[kind] += max(0.0, inclusive - below) * 1e3
            return inclusive

        root_seconds = visit(plan)
        totals["output"] += max(0.0, execute["seconds"] - root_seconds) * 1e3
    return totals


def median_qerror(runs: Iterable[stages.Run]) -> float:
    """Median over operators of max(est/observed, observed/est), rows floored at 1."""
    errors = []
    for run in runs:
        execute = children_named(run.trace["spans"], "execute")[0]
        for span in children_named(execute, "operator"):
            observed = span["attributes"]["actual_rows"]
            if observed != "?":
                estimated = max(float(span["attributes"]["est_rows"]), 1.0)
                observed = max(float(observed), 1.0)
                errors.append(max(estimated / observed, observed / estimated))
    return statistics.median(errors)


def median_by_key(samples: Sequence[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(sample[key] for sample in samples) for key in samples[0]}


# ---------------------------------------------------------------------------
# Feedback loop
# ---------------------------------------------------------------------------


class RefreshProbe:
    """``refresh_cached_plans()`` with its two halves timed separately.

    Mirrors the loop in ``Database.refresh_cached_plans`` through the same
    public calls (``monitor.produce_deltas``, ``optimizer.reoptimize``), then
    plans every query from scratch under the same overlay as the reference.
    """

    def __init__(self, database) -> None:
        self.database = database
        self.metrics: Metrics = {}

    def __call__(self) -> None:
        database = self.database
        produce_ms = reoptimize_ms = scratch_ms = 0.0
        touched_or = touched_and = total_or = total_and = space_or = space_and = 0
        equal = compared = 0
        for entry in database.plan_cache.cached_plans():
            begin = time.perf_counter()
            deltas = database.monitor.produce_deltas(entry.optimizer)
            produce_ms += (time.perf_counter() - begin) * 1e3
            if deltas:
                begin = time.perf_counter()
                entry.optimization = entry.optimizer.reoptimize(deltas)
                reoptimize_ms += (time.perf_counter() - begin) * 1e3
                metrics = entry.optimization.metrics
                touched_or += metrics.or_nodes_touched
                touched_and += metrics.and_nodes_touched
                total_or += metrics.or_nodes_total
                total_and += metrics.and_nodes_total
                reference = stages.scratch_optimizer(database, entry)
                begin = time.perf_counter()
                scratch = reference.optimize()
                scratch_ms += (time.perf_counter() - begin) * 1e3
                compared += 1
                equal += stages.costs_agree(scratch.cost, entry.optimization.cost)
            or_nodes, and_nodes = entry.optimizer.search_space_size()
            space_or += or_nodes
            space_and += and_nodes
        self.metrics = {
            "adaptive.produce_deltas_ms": produce_ms,
            "optimizer.reoptimize_ms": reoptimize_ms,
            "optimizer.reopt_speedup": scratch_ms / reoptimize_ms if reoptimize_ms else 0.0,
            "optimizer.search_space_or": space_or,
            "optimizer.search_space_and": space_and,
            "optimizer.update_ratio_or": touched_or / total_or if total_or else 0.0,
            "optimizer.update_ratio_and": touched_and / total_and if total_and else 0.0,
            "optimizer.scratch_equals_incremental": equal / compared if compared else 1.0,
        }


def cold_traced_sweep(dataset: Dataset) -> List[stages.Run]:
    """A sweep on an empty plan cache, so parse/bind/optimize spans appear."""
    database = dataset.database
    database.plan_cache.clear()
    database.tracer.enabled = True
    try:
        return stages.sweep(dataset.connection, dataset.queries)
    finally:
        database.tracer.enabled = False


def feedback_layers(dataset: Dataset, rounds: int, checks: Checks) -> Metrics:
    """Traced and untraced rounds side by side, plus the refresh halves."""
    untraced, traced = stages.FeedbackTimings(), stages.FeedbackTimings()
    before_spans, after_runs, before_runs, cold_spans = [], [], [], []
    operator_ms = []
    first_events: List[dict] = []
    for index in range(rounds):
        untraced.add(stages.feedback_round(dataset, checks))
        outcome = stages.feedback_round(dataset, checks, traced=True)
        traced.add(outcome)
        if index == 0:
            first_events = outcome.events
        before_runs.append(outcome.before)
        after_runs.append(outcome.after)
        before_spans.append(statement_spans(outcome.before))
        operator_ms.append(operator_self_ms(outcome.before))
        cold_spans.append(statement_spans(cold_traced_sweep(dataset)))
    probe = RefreshProbe(dataset.database)
    stages.feedback_round(dataset, checks, refresh=probe)

    metrics: Metrics = dict(probe.metrics)
    warm, cold = median_by_key(before_spans), median_by_key(cold_spans)
    for name in ("plan-cache-lookup", "execute", "statement_self"):
        metrics[f"obs.span_ms.{name}"] = warm[name]
    for name in ("plan-wait", "parse", "bind", "optimize"):
        metrics[f"obs.span_ms.{name}"] = cold[name]
    untraced_ms = stages.sum_of_medians(untraced.before_ms)
    metrics["obs.trace_overhead_ratio"] = stages.sum_of_medians(traced.before_ms) / untraced_ms
    for kind, value in median_by_key(operator_ms).items():
        metrics[f"engine.operator_self_ms.{kind}"] = value

    execute_ms: Dict[str, List[float]] = {}
    rows_per_s = []
    for runs in before_runs:
        scanned = seconds = 0.0
        for run in runs:
            execute = children_named(run.trace["spans"], "execute")[0]
            execute_ms.setdefault(run.name, []).append(execute["seconds"] * 1e3)
            seconds += execute["seconds"]
            plan, observed = run.result.plan, run.result.execution.operator_cardinalities
            for node, key in zip(plan.iter_nodes(), plan.operator_keys()):
                if node.operator.is_scan:
                    scanned += observed.get(key) or 0
        rows_per_s.append(scanned / seconds)
    for name, samples in execute_ms.items():
        metrics[f"engine.query_ms.{name}"] = statistics.median(samples)
    metrics["engine.rows_per_s"] = statistics.median(rows_per_s)

    metrics["adaptive.deltas_per_refresh"] = sum(len(event["deltas"]) for event in first_events)
    metrics["adaptive.plan_flips"] = sum(bool(event["plan_flipped"]) for event in first_events)
    metrics["adaptive.qerror_median_before"] = median_qerror(before_runs[0])
    metrics["adaptive.qerror_median_after"] = median_qerror(after_runs[0])
    metrics["adaptive.pre_reopt_sweep_ms"] = untraced_ms

    ours = [statistics.median(values) for values in untraced.before_ms.values()]
    reference = [dataset.sqlite_ms[name] for name in untraced.before_ms]
    metrics["reference.sqlite3.sweep_ms"] = sum(reference)
    metrics["reference.sqlite3.geomean_ratio"] = statistics.geometric_mean(
        ours
    ) / statistics.geometric_mean(reference)
    return metrics


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def planning_layers(dataset: Dataset) -> Metrics:
    database, queries = dataset.database, dataset.queries
    texts = list(queries.values())
    parse_ms = median_ms(lambda: [Parser(sql).parse_statement() for sql in texts], 5)
    bind_ms = median_ms(lambda: [database.bind_select(sql) for sql in texts], 5)
    plan_ms = median_ms(lambda: [database.optimize_select(sql) for sql in texts], 3)

    def single_delta() -> float:
        total = 0.0
        for name in SINGLE_DELTA_QUERIES:
            _, optimizer, result = database.optimize_select(queries[name])
            # The deepest two-relation join of the chosen plan, in pre-order.
            join = [node for node in result.plan.iter_nodes() if len(node.expression) == 2][-1]
            delta = optimizer.update_join_selectivity(join.expression, 4.0)
            begin = time.perf_counter()
            optimizer.reoptimize([delta])
            total += (time.perf_counter() - begin) * 1e3
        return total

    for sql in texts:
        database.prepare(sql)
    hit_ms = median_ms(lambda: [database.prepare(sql) for sql in texts], 9) / len(texts)
    return {
        "sql.parse_ms": parse_ms,
        "sql.bind_ms": bind_ms - parse_ms,
        "optimizer.optimize_ms": plan_ms - bind_ms,
        "optimizer.single_delta_reopt_ms": statistics.median(single_delta() for _ in range(3)),
        "api.plan_cache.hit_ms": hit_ms,
    }


# ---------------------------------------------------------------------------
# Kernels, storage, shared memory
# ---------------------------------------------------------------------------


def kernel_layers() -> Metrics:
    """The batch evaluator and the typed filter kernel on a fixed 1 M-row column."""
    price = TypedColumn("float")
    price.extend(float(index % 9973) for index in range(KERNEL_ROWS))
    discount = TypedColumn("float")
    discount.extend((index % 11) / 100.0 for index in range(KERNEL_ROWS))
    columns = {"price": price, "discount": discount}
    indices = range(KERNEL_ROWS)
    revenue = scalar.Arithmetic(
        scalar.ArithOp.MUL,
        scalar.Column(ColumnRef("t", "price")),
        scalar.Arithmetic(
            scalar.ArithOp.SUB, scalar.Literal(1), scalar.Column(ColumnRef("t", "discount"))
        ),
    )
    eval_ms = median_ms(
        lambda: scalar.evaluate_batch(revenue, lambda ref: columns[ref.column], indices), 3
    )
    filter_ms = median_ms(lambda: price.filter_compare("<", 2500.0, indices), 9)
    return {
        "relational.scalar.eval_ns_per_row": eval_ms * 1e6 / KERNEL_ROWS,
        "storage.buffers.filter_ns_per_row": filter_ms * 1e6 / KERNEL_ROWS,
    }


def storage_layers(dataset: Dataset, keys: Sequence[int]) -> Metrics:
    connection = dataset.connection
    lookup = stages.POINT_SQL.format("?")
    lookups, inserts = [], []
    for index in range(400):
        begin = time.perf_counter()
        connection.execute(lookup, (keys[index % len(keys)],)).fetchall()
        lookups.append((time.perf_counter() - begin) * 1e6)
    for index in range(200):
        begin = time.perf_counter()
        connection.execute(f"INSERT INTO audit VALUES (-1, {index}, -1)")
        inserts.append((time.perf_counter() - begin) * 1e6)
    return {
        "storage.copy_s": dataset.copy_seconds,
        "storage.copy_rows_per_s": dataset.rows_loaded / dataset.copy_seconds,
        "storage.index_lookup_us": statistics.median(lookups),
        "storage.insert_us": statistics.median(inserts),
    }


def shm_layers(dataset: Dataset) -> Metrics:
    """``export_columns`` / ``attach_columns`` on lineitem's numeric columns."""
    table = dataset.database.store["lineitem"]
    columns = {
        name: column for name, column in table.columns.items() if isinstance(column, TypedColumn)
    }
    export_ms, attach_ms = [], []
    for _ in range(5):
        begin = time.perf_counter()
        export = shm.export_columns(columns, table.row_count)
        try:
            export_ms.append((time.perf_counter() - begin) * 1e3 / (export.shm_bytes / 1e6))
            begin = time.perf_counter()
            attached = shm.attach_columns(export.manifest)
            attach_ms.append((time.perf_counter() - begin) * 1e3)
            attached.close()
        finally:
            export.release()
    return {
        "storage.shm.export_ms_per_mb": statistics.median(export_ms),
        "storage.shm.attach_ms": statistics.median(attach_ms),
    }


# ---------------------------------------------------------------------------
# Parallel executors
# ---------------------------------------------------------------------------


def fanout_spans(runs: Iterable[stages.Run], name: str) -> List[dict]:
    found = []
    for run in runs:
        found.extend(children_named(children_named(run.trace["spans"], "execute")[0], name))
    return found


def parallel_layers(dataset: Dataset, sweeps: int, checks: Checks) -> Metrics:
    reset_parallel_stats()
    runs: Dict[str, List[stages.Run]] = {mode: [] for mode in stages.EXECUTORS}
    with closing(stages.ParallelSweeps(dataset, checks)) as timings:
        for _ in range(sweeps):
            for mode, traced in timings.step(traced=True).items():
                runs[mode].extend(traced)
    counters = dataset.database.stats()["parallel"]
    metrics: Metrics = {
        "engine.parallel.serial_sweep_ms": stages.sum_of_medians(timings.query_ms["serial"]),
        "engine.parallel.morsels_dispatched": counters["morsels_dispatched"],
        "engine.parallel.shm_bytes_exported": counters["shm_bytes_exported"],
        "engine.parallel.pickled_bytes_exported": counters["pickled_bytes_exported"],
        "engine.parallel.fallbacks": sum(counters["fallbacks"].values()),
    }
    for mode in ("thread", "process"):
        fanout = fanout_spans(runs[mode], "morsel-fanout")
        metrics[f"engine.parallel.fanout_ms.{mode}"] = (
            sum(span["seconds"] for span in fanout) * 1e3 / sweeps
        )
    process_runs = runs["process"]
    metrics["engine.parallel.shm_export_ms"] = (
        sum(span["seconds"] for span in fanout_spans(process_runs, "shm-export")) * 1e3 / sweeps
    )
    busy = sum(
        span["attributes"].get("worker_seconds", 0.0)
        for span in fanout_spans(process_runs, "operator")
    )
    window = sum(span["seconds"] for span in fanout_spans(process_runs, "morsel-fanout"))
    metrics["engine.parallel.worker_busy_share"] = busy / (window * PARALLEL_WORKERS)
    # The first sweep started the pool; a steady sweep did not.
    steady = statistics.median(
        sum(sample) for sample in zip(*timings.query_ms["process"].values())
    )
    metrics["engine.parallel.pool_start_ms"] = timings.first_sweep_ms["process"] - steady
    return metrics


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------


def protocol_layers(dataset: Dataset) -> Metrics:
    """``encode_frame`` and frame decode of a 25-row ``result_payload``."""
    result = dataset.database.execute(stages.TOPN_SQL.format(0))
    payload = protocol.result_payload(result)
    frame = protocol.encode_frame(payload)
    encode, decode = [], []
    sender, receiver = socket.socketpair()
    try:
        for _ in range(1000):
            begin = time.perf_counter()
            protocol.encode_frame(payload)
            encode.append((time.perf_counter() - begin) * 1e6)
            sender.sendall(frame)
            begin = time.perf_counter()
            protocol.recv_frame(receiver)
            decode.append((time.perf_counter() - begin) * 1e6)
    finally:
        sender.close()
        receiver.close()
    return {
        "server.protocol.encode_us": statistics.median(encode),
        "server.protocol.decode_us": statistics.median(decode),
    }


def serving_layers(
    dataset: Dataset, streams: Sequence[Sequence[stages.Op]], slices: int, checks: Checks
) -> Metrics:
    cache_before = dataset.database.stats()["plan_cache"]
    with closing(stages.ServedMix(dataset, streams, slices)) as mix:
        for _ in range(slices):
            mix.step()
    mix.verify(checks)
    served = mix.slices
    cache_after = dataset.database.stats()["plan_cache"]
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    embedded = stages.embedded_mix(dataset, [op for op in streams[0] if op.kind != "insert"])
    metrics: Metrics = {
        "api.plan_cache.hit_ratio": hits / (hits + misses),
        "api.embedded_stmt_p50_ms": embedded.percentile(0.5),
    }
    for kind in stages.KINDS:
        metrics[f"server.stmt_p50_ms.{kind}"] = statistics.median(
            part.percentile(0.5, kind) for part in served
        )
    metrics["server.roundtrip_us"] = (
        metrics["server.stmt_p50_ms.point_prepared"] - embedded.percentile(0.5, "point_prepared")
    ) * 1e3
    return metrics


def traced_pass(
    dataset: Dataset, reps: Repetitions, streams: Sequence[Sequence[stages.Op]], checks: Checks
) -> Metrics:
    """Every per-layer metric for one workload."""
    metrics = feedback_layers(dataset, reps.traced_rounds, checks)
    metrics.update(planning_layers(dataset))
    metrics.update(parallel_layers(dataset, reps.traced_rounds, checks))
    metrics.update(serving_layers(dataset, streams, reps.rounds, checks))
    metrics.update(protocol_layers(dataset))
    metrics.update(storage_layers(dataset, stages.order_keys(dataset)))
    metrics.update(shm_layers(dataset))
    metrics.update(kernel_layers())
    return metrics
