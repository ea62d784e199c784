"""The four measured stages every workload runs on its own data.

* **feedback rounds** — the paper's loop: cold-plan the 16 queries, execute
  them (the monitor observes), ``refresh_cached_plans()`` (incremental
  re-optimization), execute again;
* **parallel sweeps** — the fan-out-eligible queries on serial, thread and
  process connections of the same database;
* **served mix** — short statements from closed-loop wire clients against
  ``start_server_thread(db)``;
* **peak sweep** — one sweep under ``tracemalloc``.

All loops are closed-loop with fixed repetition counts.  Results are checked
where they are produced; a mismatch is counted in :class:`Checks`, never
raised, so one wrong row cannot hide the rest of the run.
"""

from __future__ import annotations

import gc
import random
import statistics
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.ledger.dataset import Checks, Dataset, Rows
from benchmarks.ledger.spec import PARALLEL_QUERIES, PARALLEL_WORKERS, SERVED_CLIENTS
from benchmarks.tpch import oracle
from repro.adaptive.monitor import RuntimeMonitor
from repro.client import remote
from repro.optimizer.declarative import DeclarativeOptimizer
from repro.server.server import start_server_thread

# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass
class Run:
    """One timed statement: latency, rows, the engine's result, its trace."""

    name: str
    ms: float
    rows: Rows
    result: object
    trace: Optional[dict] = None


def sweep(connection, queries: Dict[str, str], names: Optional[Sequence[str]] = None) -> List[Run]:
    """Execute *names* once each; fetching the rows is inside the timed region."""
    database = connection.database
    runs: List[Run] = []
    for name in names if names is not None else queries:
        begin = time.perf_counter()
        cursor = connection.execute(queries[name])
        rows = cursor.fetchall()
        runs.append(Run(name, (time.perf_counter() - begin) * 1e3, rows, cursor.result))
    if database.tracer.enabled:
        # Drain per sweep: the trace ring is bounded (256 by default).
        traces = {trace["trace_id"]: trace for trace in database.traces()}
        database.tracer.clear()
        for run in runs:
            run.trace = traces.get(run.result.trace_id)
    return runs


def sum_of_medians(samples: Dict[str, List[float]]) -> float:
    """Sum over queries of each query's median over the rounds."""
    return sum(statistics.median(values) for values in samples.values())


def geomean_of_medians(samples: Dict[str, List[float]]) -> float:
    return statistics.geometric_mean(statistics.median(values) for values in samples.values())


# ---------------------------------------------------------------------------
# Feedback rounds
# ---------------------------------------------------------------------------


@dataclass
class FeedbackRound:
    plan_cold_ms: float
    reopt_ms: float
    before: List[Run]
    after: List[Run]
    events: List[dict]


def scratch_optimizer(database, entry) -> DeclarativeOptimizer:
    """A fresh optimizer for *entry*'s query under a copy of its overlay."""
    return DeclarativeOptimizer(
        entry.query,
        database.catalog,
        pruning=database.pruning,
        cost_parameters=database.cost_parameters,
        enumeration=database.enumeration,
        overlay=entry.optimizer.cost_model.overlay.copy(),
    )


def costs_agree(left: float, right: float) -> bool:
    return abs(left - right) <= 1e-6 * max(1.0, abs(left), abs(right))


def feedback_round(
    dataset: Dataset,
    checks: Checks,
    *,
    traced: bool = False,
    refresh: Optional[Callable[[], object]] = None,
    check_scratch: bool = False,
) -> FeedbackRound:
    """One round from an empty plan cache and a fresh monitor.

    *refresh* replaces the ``refresh_cached_plans()`` call (the traced pass
    times its two halves separately); *check_scratch* also plans every
    refreshed query from scratch under the same overlay and requires the
    incremental cost to equal it.
    """
    database, connection, queries = dataset.database, dataset.connection, dataset.queries
    database.tracer.enabled = False
    database.plan_cache.clear()
    database.monitor = RuntimeMonitor()
    database.event_log.clear()
    # Every round starts from the same collector state; otherwise full
    # collections land in every third round's planning (+20 %).
    gc.collect()

    begin = time.perf_counter()
    for sql in queries.values():
        database.prepare(sql)
    plan_cold_ms = (time.perf_counter() - begin) * 1e3

    database.tracer.enabled = traced
    before = sweep(connection, queries)
    database.tracer.enabled = False

    begin = time.perf_counter()
    (refresh or database.refresh_cached_plans)()
    reopt_ms = (time.perf_counter() - begin) * 1e3
    events = database.events("reoptimization")

    if check_scratch:
        for entry in database.plan_cache.cached_plans():
            scratch = scratch_optimizer(database, entry).optimize()
            checks.expect(
                costs_agree(scratch.cost, entry.optimization.cost),
                f"{entry.query.name}: incremental cost {entry.optimization.cost} "
                f"!= from-scratch cost {scratch.cost}",
            )

    database.tracer.enabled = traced
    after = sweep(connection, queries)
    database.tracer.enabled = False

    for first, second in zip(before, after):
        # A re-optimization may change the plan, never the answer.
        same = oracle.compare_results(first.rows, second.rows, oracle.query_is_ordered(queries[first.name]))
        checks.expect(same.matches, f"{first.name}: rows changed across refresh_cached_plans()")
    return FeedbackRound(plan_cold_ms, reopt_ms, before, after, events)


@dataclass
class FeedbackTimings:
    plan_cold_ms: List[float] = field(default_factory=list)
    reopt_ms: List[float] = field(default_factory=list)
    before_ms: Dict[str, List[float]] = field(default_factory=dict)
    after_ms: Dict[str, List[float]] = field(default_factory=dict)

    def add(self, outcome: FeedbackRound) -> None:
        self.plan_cold_ms.append(outcome.plan_cold_ms)
        self.reopt_ms.append(outcome.reopt_ms)
        for target, runs in ((self.before_ms, outcome.before), (self.after_ms, outcome.after)):
            for run in runs:
                target.setdefault(run.name, []).append(run.ms)


# ---------------------------------------------------------------------------
# Parallel sweeps
# ---------------------------------------------------------------------------

EXECUTORS = ("serial", "thread", "process")


class ParallelSweeps:
    """Serial, thread and process connections of one database.

    Opening it runs an untimed sweep, which starts the pools; each
    :meth:`step` then times one sweep per executor.  Every sweep is also a
    parity check: the three connections share the plan cache, so they run
    the same plan and must return the same bytes.
    """

    def __init__(self, dataset: Dataset, checks: Checks) -> None:
        database = dataset.database
        self.dataset, self.checks = dataset, checks
        self.connections = {
            "serial": database.connect(),
            "thread": database.connect(executor="thread", workers=PARALLEL_WORKERS),
            "process": database.connect(executor="process", workers=PARALLEL_WORKERS),
        }
        #: executor → query → ms per timed sweep
        self.query_ms = {mode: {name: [] for name in PARALLEL_QUERIES} for mode in EXECUTORS}
        #: executor → total ms of the first sweep (pool start-up included)
        self.first_sweep_ms = {
            mode: sum(run.ms for run in runs) for mode, runs in self._sweeps(traced=False).items()
        }

    def _sweeps(self, traced: bool) -> Dict[str, List[Run]]:
        database, queries = self.dataset.database, self.dataset.queries
        database.tracer.enabled = traced
        try:
            runs = {
                mode: sweep(self.connections[mode], queries, PARALLEL_QUERIES) for mode in EXECUTORS
            }
        finally:
            database.tracer.enabled = False
        for mode in ("thread", "process"):
            for reference, run in zip(runs["serial"], runs[mode]):
                self.checks.expect(
                    run.rows == reference.rows and repr(run.rows) == repr(reference.rows),
                    f"{run.name}: {mode} rows are not byte-identical to serial",
                )
                # A statement that silently fell back is not a process run.
                self.checks.expect(
                    run.result.execution.executor == mode,
                    f"{run.name}: asked for {mode}, ran on {run.result.execution.executor!r}",
                )
        return runs

    def step(self, traced: bool = False) -> Dict[str, List[Run]]:
        """One timed sweep per executor."""
        gc.collect()
        runs = self._sweeps(traced)
        for mode in EXECUTORS:
            for run in runs[mode]:
                self.query_ms[mode][run.name].append(run.ms)
        return runs

    def close(self) -> None:
        for connection in self.connections.values():
            connection.close()


# ---------------------------------------------------------------------------
# Served mix
# ---------------------------------------------------------------------------

POINT_SQL = (
    "SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = {}"
)
TOPN_SQL = (
    "SELECT c_custkey, c_acctbal FROM customer WHERE c_nationkey = {} "
    "ORDER BY c_acctbal DESC LIMIT 25"
)
JOIN3_SQL = (
    "SELECT c_name, o_orderkey, l_linenumber, l_extendedprice FROM customer, orders, lineitem "
    "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND o_orderkey = ?"
)
#: 4/8 point lookups (half prepared, half literal), 2/8 top-25, 1/8 prepared
#: three-way join, 1/8 insert.
MIX = (
    "point_prepared", "point_prepared", "point_literal", "point_literal",
    "topn", "topn", "join3", "insert",
)
KINDS = ("point_prepared", "point_literal", "topn", "join3", "insert")
KEY_POOL = 512
#: marks the mix's own inserts in ``audit`` (the storage probe writes -1).
AUDIT_FLAG = 1


@dataclass(frozen=True)
class Op:
    kind: str
    sql: str
    #: ``None`` for literal text; a tuple runs as a prepared statement.
    params: Optional[Tuple[object, ...]] = None


def order_keys(dataset: Dataset) -> List[int]:
    return [row[0] for row in dataset.connection.execute("SELECT o_orderkey FROM orders")]


def statement_stream(seed: int, client: int, count: int, keys: Sequence[int]) -> List[Op]:
    """One client's statements, from its own RNG stream."""
    rng = random.Random(f"ledger-served:{seed}:{client}")
    pool = rng.sample(list(keys), min(KEY_POOL, len(keys)))
    stream: List[Op] = []
    for seq in range(count):
        kind = rng.choice(MIX)
        if kind == "point_prepared":
            stream.append(Op(kind, POINT_SQL.format("?"), (rng.choice(pool),)))
        elif kind == "point_literal":
            stream.append(Op(kind, POINT_SQL.format(rng.choice(pool))))
        elif kind == "topn":
            stream.append(Op(kind, TOPN_SQL.format(rng.randrange(25))))
        elif kind == "join3":
            stream.append(Op(kind, JOIN3_SQL, (rng.choice(pool),)))
        else:
            stream.append(Op(kind, f"INSERT INTO audit VALUES ({client}, {seq}, {AUDIT_FLAG})"))
    return stream


def stream_text(streams: Sequence[Sequence[Op]]) -> List[str]:
    """The streams as the strings the input digest covers."""
    return [f"{op.sql}|{op.params}" for stream in streams for op in stream]


class WireClient:
    """The statement mix through ``repro.client.remote``."""

    def __init__(self, host: str, port: int) -> None:
        self.connection = remote.connect(host, port)
        self.prepared: Dict[str, remote.RemotePreparedStatement] = {}

    def run(self, op: Op) -> Rows:
        if op.params is None:
            return self.connection.execute(op.sql).fetchall()
        statement = self.prepared.get(op.sql)
        if statement is None:
            statement = self.prepared[op.sql] = self.connection.prepare(op.sql, op.params)
        result = statement.execute(op.params)
        return [tuple(row[column] for column in result.columns) for row in result.rows]

    def close(self) -> None:
        self.connection.close()


@dataclass
class ClientLog:
    latencies_ms: List[Tuple[str, float]] = field(default_factory=list)
    rows: List[Rows] = field(default_factory=list)
    error: Optional[BaseException] = None


def run_stream(run: Callable[[Op], Rows], stream: Sequence[Op], log: ClientLog) -> None:
    for op in stream:
        begin = time.perf_counter()
        rows = run(op)
        log.latencies_ms.append((op.kind, (time.perf_counter() - begin) * 1e3))
        log.rows.append(rows)


@dataclass
class ServedTimings:
    latencies_ms: List[Tuple[str, float]]
    wall_seconds: float

    @property
    def per_second(self) -> float:
        return len(self.latencies_ms) / self.wall_seconds

    def percentile(self, share: float, kind: Optional[str] = None) -> float:
        values = sorted(ms for k, ms in self.latencies_ms if kind is None or k == kind)
        return values[min(len(values) - 1, int(share * len(values)))]


def verify_streams(
    dataset: Dataset, streams: Sequence[Sequence[Op]], logs: Sequence[ClientLog], checks: Checks
) -> None:
    """Every read equals its embedded execution; audit holds the acknowledged inserts."""
    connection = dataset.connection
    expected: Dict[Tuple[str, Optional[Tuple[object, ...]]], Rows] = {}
    acknowledged: List[Tuple[int, int]] = []
    for client, (stream, log) in enumerate(zip(streams, logs)):
        if log.error is not None:
            checks.expect(False, f"client {client} stopped: {log.error!r}")
        # Statements a stopped client never sent count as failed.
        for _ in range(len(stream) - len(log.rows)):
            checks.expect(False, f"client {client}: statement not acknowledged")
        for seq, (op, rows) in enumerate(zip(stream, log.rows)):
            if op.kind == "insert":
                acknowledged.append((client, seq))
                checks.passed(1)
                continue
            key = (op.sql, op.params)
            if key not in expected:
                expected[key] = connection.execute(op.sql, op.params).fetchall()
            checks.expect(rows == expected[key], f"{op.kind} {key}: wire rows differ from embedded")
    stored = connection.execute(f"SELECT client, seq FROM audit WHERE flag = {AUDIT_FLAG}").fetchall()
    checks.expect(
        sorted(stored) == sorted(acknowledged),
        f"audit holds {len(stored)} rows for {len(acknowledged)} acknowledged inserts",
    )


class ServedMix:
    """Closed-loop wire clients against ``start_server_thread(database)``.

    Each client sends its next statement when the reply arrives.  Every
    :meth:`step` runs the next slice of each client's stream and times it on
    its own, so a burst of interference spoils one slice's percentiles and
    not the run's.
    """

    def __init__(self, dataset: Dataset, streams: Sequence[Sequence[Op]], slices: int) -> None:
        self.dataset, self.streams = dataset, streams
        self.size = len(streams[0]) // slices
        self.logs = [ClientLog() for _ in streams]
        self.slices: List[ServedTimings] = []
        self.clients: List[WireClient] = []
        self.handle = start_server_thread(dataset.database)
        try:
            for _ in streams:
                self.clients.append(WireClient(*self.handle.address))
        except BaseException:
            self.close()
            raise

    def step(self) -> ServedTimings:
        gc.collect()
        start = len(self.slices) * self.size
        barrier = threading.Barrier(len(self.streams) + 1)
        done = [len(log.latencies_ms) for log in self.logs]

        def drive(client: WireClient, ops: Sequence[Op], log: ClientLog) -> None:
            try:
                barrier.wait()
                run_stream(client.run, ops, log)
            except Exception as error:  # noqa: BLE001 - reported through Checks
                log.error = error

        threads = [
            threading.Thread(
                target=drive, args=(client, stream[start : start + self.size], log),
                name="ledger-client",
            )
            for client, stream, log in zip(self.clients, self.streams, self.logs)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        begin = time.perf_counter()
        for thread in threads:
            thread.join()
        wall_seconds = time.perf_counter() - begin
        latencies = [
            sample for log, first in zip(self.logs, done) for sample in log.latencies_ms[first:]
        ]
        self.slices.append(ServedTimings(latencies, wall_seconds))
        return self.slices[-1]

    def close(self) -> None:
        # Clients before the server: stop() waits for open connections.
        for client in self.clients:
            client.close()
        # Let the server see the disconnects: stop() cancels handlers that
        # are still closing, and asyncio logs each as an error.
        registry = self.dataset.database.metrics_registry
        deadline = time.monotonic() + 2.0
        while (
            registry.provider_snapshot("server")["active_connections"]
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        self.handle.stop()

    def verify(self, checks: Checks) -> None:
        sent = [stream[: self.size * len(self.slices)] for stream in self.streams]
        verify_streams(self.dataset, sent, self.logs, checks)


def embedded_mix(dataset: Dataset, stream: Sequence[Op]) -> ServedTimings:
    """The same statements without the wire; served minus embedded is its cost."""
    log = ClientLog()
    connection = dataset.connection
    begin = time.perf_counter()
    run_stream(lambda op: connection.execute(op.sql, op.params).fetchall(), stream, log)
    return ServedTimings(log.latencies_ms, time.perf_counter() - begin)


def make_streams(dataset: Dataset, seed: int, count: int) -> List[List[Op]]:
    keys = order_keys(dataset)
    return [statement_stream(seed, client, count, keys) for client in range(SERVED_CLIENTS)]


# ---------------------------------------------------------------------------
# Peak memory
# ---------------------------------------------------------------------------


def peak_sweep_mb(dataset: Dataset) -> float:
    """``tracemalloc`` peak over one extra, untimed sweep."""
    tracemalloc.start()
    try:
        sweep(dataset.connection, dataset.queries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6
