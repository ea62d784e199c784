"""The :class:`Database`: one catalog, one store, one plan cache, one monitor.

A ``Database`` is the stateful heart of the DB-API surface
(:func:`repro.api.connect`).  It owns

* the **catalog** — schema plus statistics, mutated by ``CREATE TABLE`` /
  ``ANALYZE`` / loads and versioned so the plan cache can invalidate;
* the **store** — per-table data.  Tables created through SQL live as
  columnar :class:`~repro.engine.vectorized.columns.ColumnTable`\\ s (the
  vectorized engine scans them zero-copy); data handed to
  :func:`~repro.api.connect` as row dicts is kept as given;
* the **plan cache** — memoized parse→bind→optimize work keyed on
  normalized SQL + parameter signature (see :mod:`repro.api.plan_cache`);
* the **adaptive monitor** — every execution's observed per-operator
  cardinalities feed a :class:`~repro.adaptive.monitor.RuntimeMonitor`,
  and :meth:`Database.refresh_cached_plans` turns those observations into
  statistics deltas applied *incrementally* to each cached plan's own
  optimizer — the paper's incremental re-optimization, kept alive across
  cached (re-)executions.

Statements are executed by :meth:`Database.execute`; connections and cursors
(:mod:`repro.api.connection`, :mod:`repro.api.cursor`) are thin views over
it.

Since the concurrent serving tier (:mod:`repro.server`) a Database is safe
to share across threads:

* SQL-managed tables live behind
  :class:`~repro.storage.versioning.VersionedTable` — copy-on-write
  versioned snapshots.  Every statement resolves one consistent snapshot of
  every table up front (:meth:`Database._snapshot_store`), writers append
  under a per-table write lock and publish atomically;
* the plan cache and the runtime monitor carry their own locks, so
  concurrent sessions warm each other's plans while
  :meth:`refresh_cached_plans` / :meth:`stats` stay iteration-safe;
* DDL and statistics mutations serialize on one database-wide lock;
* executions tagged with a *session* id keep their observed cardinalities
  scoped per session (see :class:`~repro.adaptive.monitor.RuntimeMonitor`).

Tables handed to :func:`~repro.api.connect` as plain row lists keep their
legacy in-place behaviour (appends are a single atomic ``list.extend``);
full snapshot semantics start once a table is adopted into the physical
store (CREATE INDEX does this, and all SQL-created tables start there).
"""

from __future__ import annotations

import csv
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.adaptive.monitor import RuntimeMonitor
from repro.api.plan_cache import (
    DEFAULT_PLAN_CACHE_CAPACITY,
    CachedPlan,
    PlanCache,
    normalize_statement,
    parameter_signature,
)
from repro.catalog.catalog import Catalog
from repro.common.errors import ExecutionError, SchemaError, SqlError
from repro.engine import (
    DEFAULT_ENGINE,
    make_executor,
    validate_engine,
    validate_executor,
)
from repro.engine.executor import ExecutionResult
from repro.engine.vectorized.columns import ColumnTable
from repro.obs.events import EventLog, describe_delta, plan_shape
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    DEFAULT_TRACE_CAPACITY,
    Span,
    Trace,
    Tracer,
    gc_collections,
    install_fanout_sink,
    remove_fanout_sink,
    span,
)
from repro.optimizer.declarative import DeclarativeOptimizer, OptimizationResult
from repro.relational.predicates import ParameterRef
from repro.relational.query import Query
from repro.relational.scalar import ScalarType
from repro.relational.schema import DataType, Schema
from repro.sql.ast import (
    AnalyzeStatement,
    CopyStatement,
    CreateIndexStatement,
    CreateTableStatement,
    DropIndexStatement,
    ExplainStatement,
    InsertStatement,
    SelectStatement,
)
from repro.storage.buffers import column_kinds, column_values, gather_values
from repro.storage.table import StoredTable
from repro.storage.versioning import VersionedTable
from repro.sql.binder import Binder, query_parameter_count, value_matches_type
from repro.sql.parser import Parser, split_statements, statement_has_parameters
from repro.sql.render import explain_footer, explain_header, render_plan

Row = Dict[str, object]


@dataclass
class StatementResult:
    """Outcome of executing one statement through :meth:`Database.execute`.

    ``statement`` is one of ``select`` / ``explain`` / ``explain analyze`` /
    ``create table`` / ``insert`` / ``copy`` / ``analyze``.  ``rowcount``
    follows DB-API conventions: rows returned for SELECT, rows affected for
    INSERT/COPY, -1 otherwise.

    A SELECT's rows are held as ``tuples`` — one tuple per row, ordered like
    ``columns`` — which is what cursors hand out.  :attr:`rows` is a dict
    view of them (``dict(zip(columns, row))`` per row), built on first
    access.
    """

    statement: str
    columns: List[str] = field(default_factory=list)
    tuples: List[Tuple[object, ...]] = field(default_factory=list)
    rowcount: int = -1
    query: Optional[Query] = None
    optimization: Optional[OptimizationResult] = None
    execution: Optional[ExecutionResult] = None
    plan_text: Optional[str] = None
    parameter_count: int = 0
    from_cache: bool = False
    #: id of the trace this statement produced (None with tracing disabled);
    #: look it up through :meth:`Database.traces`.
    trace_id: Optional[str] = None
    _rows: Optional[List[Row]] = field(default=None, init=False, repr=False, compare=False)

    @property
    def rows(self) -> List[Row]:
        """The result rows as dicts keyed by column name (a view of ``tuples``)."""
        if self._rows is None:
            columns = self.columns
            self._rows = [dict(zip(columns, row)) for row in self.tuples]
        return self._rows

    @property
    def plan(self):
        return self.optimization.plan if self.optimization is not None else None

    @property
    def row_count(self) -> int:
        return len(self.tuples)

    def __str__(self) -> str:
        if self.plan_text is not None:
            return self.plan_text
        header = "\t".join(self.columns)
        lines = [header] if header else []
        for row in self.tuples:
            lines.append("\t".join(str(value) for value in row))
        return "\n".join(lines)


def output_columns(query: Query) -> List[str]:
    """The result column names a bound query produces, in SELECT order.

    Plain columns are qualified (``alias.column``); computed expressions
    appear under their ``AS`` alias.
    """
    if query.has_aggregation:
        columns = [str(column) for column in query.group_by]
        columns += [str(aggregate) for aggregate in query.aggregates]
        return columns
    return query.output_names


def shape_result(query: Query, output: ColumnTable, columns: List[str]) -> List[Tuple[object, ...]]:
    """Order, limit and project the executor's output columns into row tuples.

    ORDER BY stable-sorts a row permutation, one item at a time from the
    last, on ``(value is None, value)`` — NULLs last ascending, first
    descending — so it may use columns outside the SELECT list (for
    non-aggregated queries the output carries every referenced qualified
    column).  LIMIT slices the permutation, projection picks columns, and
    the rows are built once, by ``zip``.  A column the output lacks reads as
    NULL.
    """
    row_count = output.row_count
    order: Optional[Sequence[int]] = None
    for item in reversed(query.order_by):
        values = output.column(str(item.column))
        if values is None:
            continue  # all-NULL keys: a stable sort leaves the order as it is
        keys = [(value is None, value) for value in column_values(values)]
        if order is None:
            order = list(range(row_count))
        order.sort(key=keys.__getitem__, reverse=item.descending)
    if query.limit is not None:
        if order is None:
            order = range(min(query.limit, row_count))
        else:
            del order[query.limit :]
    picked: List[Sequence[object]] = []
    for name in columns:
        values = output.column(name)
        if values is None:
            picked.append([None] * row_count)
        else:
            picked.append(column_values(values) if order is None else gather_values(values, order))
    if not picked:
        return [()] * (row_count if order is None else len(order))
    return list(zip(*picked))


_SELECT_KINDS = ("select", "explain", "explain analyze")

#: csv text → stored value, per column type ('' loads as NULL).
_CSV_CONVERTERS = {
    DataType.INTEGER: int,
    DataType.FLOAT: float,
    DataType.DATE: int,
    DataType.STRING: str,
}


class Database:
    """One database instance: catalog + stored tables + plan cache + monitor."""

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        data: Optional[Mapping[str, Sequence[Row]]] = None,
        *,
        engine: str = DEFAULT_ENGINE,
        batch_size: Optional[int] = None,
        workers: Optional[int] = None,
        executor: Optional[str] = None,
        pruning=None,
        cost_parameters=None,
        enumeration=None,
        plan_cache_size: int = DEFAULT_PLAN_CACHE_CAPACITY,
        cumulative_monitor: bool = True,
        trace: bool = False,
        slow_query_ms: Optional[float] = None,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
    ) -> None:
        try:
            validate_engine(engine)
            if executor is not None:
                validate_executor(executor)
        except ExecutionError as error:
            raise SqlError(str(error)) from error
        if workers is not None and workers < 1:
            raise SqlError(f"workers must be >= 1, got {workers}")
        self.catalog = catalog if catalog is not None else Catalog(Schema())
        self.engine = engine
        self.batch_size = batch_size
        self.workers = workers
        self.executor = executor
        self.pruning = pruning
        self.cost_parameters = cost_parameters
        self.enumeration = enumeration
        self.plan_cache = PlanCache(plan_cache_size)
        self.monitor = RuntimeMonitor(cumulative=cumulative_monitor)
        self._store: Dict[str, object] = dict(data) if data is not None else {}
        self._statement_counter = 0
        self._closed = False
        # -- observability: tracer + metrics registry + event log --------
        # A slow-query threshold implies tracing (each slow-query entry
        # embeds its statement's trace).
        self.slow_query_ms = slow_query_ms
        self.tracer = Tracer(
            enabled=bool(trace) or slow_query_ms is not None, capacity=trace_capacity
        )
        self.metrics_registry = MetricsRegistry()
        self.event_log = EventLog()
        self._register_metrics()
        #: serializes DDL, statistics mutations and store-dict changes.
        self._ddl_lock = threading.RLock()
        #: guards the cheap counters (statement names/numbers, session ids).
        self._counter_lock = threading.Lock()
        #: serializes incremental re-optimization passes over cached plans.
        self._refresh_lock = threading.Lock()
        #: striped single-flight locks for planning: concurrent cache misses
        #: on the same statement wait for the first planner instead of all
        #: running the optimizer (the thundering-herd case when N pooled
        #: clients issue the same statement at once).
        self._planning_stripes = tuple(threading.Lock() for _ in range(16))
        self._session_counter = 0
        # Tables handed over as data but lacking statistics get them computed
        # up front, so EXPLAIN/optimization works without an explicit ANALYZE.
        for name in self._store:
            if self.catalog.schema.has_table(name) and not self.catalog.has_stats(name):
                self._analyze(name)

    def _register_metrics(self) -> None:
        """Create the hot-path instruments and absorb existing stat sources.

        Counters/histograms are updated as statements run; *providers* wrap
        the pre-existing stats sources (plan cache, monitor, parallel-engine
        counters, store row counts) so :meth:`stats` and the Prometheus
        export read one registry without those sources moving their
        bookkeeping.
        """
        registry = self.metrics_registry
        self._statements_total = registry.counter(
            "repro_statements_total", "Statements executed, by statement kind.", label="statement"
        )
        self._executions_total = registry.counter(
            "repro_executions_total", "Plan executions (SELECT and EXPLAIN ANALYZE runs)."
        )
        self._statement_seconds = registry.histogram(
            "repro_statement_seconds",
            "Statement wall-clock latency in seconds, by statement shape.",
            label="shape",
        )
        self._slow_queries_total = registry.counter(
            "repro_slow_queries_total", "Statements exceeding the slow-query threshold."
        )
        self._reoptimizations_total = registry.counter(
            "repro_reoptimizations_total",
            "Cached plans re-optimized from monitor deltas by refresh_cached_plans().",
        )
        self._plan_flips_total = registry.counter(
            "repro_plan_flips_total",
            "Re-optimizations that changed the physical plan shape.",
        )
        self._aggregate_kernel_total = registry.counter(
            "repro_aggregate_kernel_total",
            "Hash aggregates computed by the typed kernels, or generically and why.",
            label=("path", "reason"),
        )
        from repro.engine.parallel.stats import parallel_stats

        # list(self._store) is an atomic copy under the GIL (same rationale
        # as _snapshot_store), so providers never iterate a resizing dict.
        registry.register_provider(
            "tables",
            lambda: {name: self.stored_row_count(name) for name in sorted(list(self._store))},
        )
        registry.register_provider("plan_cache", self.plan_cache.stats)
        registry.register_provider("catalog", lambda: {"version": self.catalog.version})
        registry.register_provider(
            "monitor",
            lambda: {
                "expressions": len(self.monitor.expressions()),
                "observations": self.monitor.observation_count(),
                "sessions": len(self.monitor.session_names()),
            },
        )
        registry.register_provider("parallel", parallel_stats)
        registry.register_provider(
            "table_versions",
            lambda: {
                name: version
                for name in sorted(list(self._store))
                if (version := self.table_version(name)) is not None
            },
        )

    # -- connections -----------------------------------------------------

    def connect(
        self,
        engine: Optional[str] = None,
        batch_size: Optional[int] = None,
        workers: Optional[int] = None,
        executor: Optional[str] = None,
    ):
        """Open a :class:`~repro.api.connection.Connection` over this database."""
        from repro.api.connection import Connection

        return Connection(
            self, engine=engine, batch_size=batch_size, workers=workers, executor=executor
        )

    def close(self) -> None:
        self._closed = True
        self.plan_cache.clear()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- store access ----------------------------------------------------

    @property
    def table_names(self) -> List[str]:
        # list(dict) is a single C-level call: an atomic copy under the GIL,
        # safe against a concurrent CREATE TABLE resizing the store dict.
        return list(self._store)

    def _resolve(self, stored: object) -> object:
        """What the engines scan for one store entry: snapshots resolved."""
        if isinstance(stored, VersionedTable):
            return stored.snapshot()
        return stored

    def _snapshot_store(self) -> Dict[str, object]:
        """One consistent scan view of every table, resolved up front.

        Each :class:`VersionedTable` contributes its latest published
        version via a single atomic reference read; the returned dict never
        changes underneath the statement that took it, which is what gives a
        whole statement one table+index version per table even while writers
        keep publishing.
        """
        # Copy the store entries first: list(dict.items()) is one C-level
        # call (atomic under the GIL), whereas the comprehension below runs
        # Python code per entry — iterating the live dict there would raise
        # 'dictionary changed size during iteration' against a concurrent
        # CREATE TABLE / first INSERT inserting a new store key.
        entries = list(self._store.items())
        return {name: self._resolve(stored) for name, stored in entries}

    def table_version(self, name: str) -> Optional[int]:
        """The published version of a table, or None for legacy row stores."""
        stored = self._store.get(name)
        if isinstance(stored, VersionedTable):
            return stored.version
        return None

    def _analyze(self, name: str) -> None:
        """Rebuild one table's statistics from its stored data, read column
        by column (no row dicts) when the table is columnar."""
        stored = self._resolve(self._store[name])
        if isinstance(stored, ColumnTable):
            self.catalog.analyze_columns(name, stored.columns, stored.row_count)
        else:
            self.catalog.analyze_table(name, list(stored))

    def stored_row_count(self, name: str) -> int:
        stored = self._resolve(self._store.get(name))
        if stored is None:
            return 0
        if isinstance(stored, ColumnTable):
            return stored.row_count
        return len(stored)

    @property
    def store(self) -> Mapping[str, object]:
        """A snapshot view of the store (rows or ColumnTables, by table)."""
        return self._snapshot_store()

    @property
    def has_data(self) -> bool:
        return bool(self._store)

    # -- the statement pipeline ------------------------------------------

    def execute(
        self,
        sql: str,
        parameters: Optional[Sequence[object]] = None,
        *,
        engine: Optional[str] = None,
        batch_size: Optional[int] = None,
        workers: Optional[int] = None,
        executor: Optional[str] = None,
        session: Optional[str] = None,
    ) -> StatementResult:
        """Run one statement (SELECT / EXPLAIN / DDL / DML) end-to-end.

        *session* tags the execution's observed cardinalities with the
        calling session (connection / wire client), keeping concurrent
        sessions' adaptive feedback apart even when they share a cached plan.
        """
        self._check_open()
        params: Tuple[object, ...] = tuple(parameters) if parameters is not None else ()
        kind, normalized = normalize_statement(sql)
        trace = self.tracer.begin(sql, session=session)
        started = time.perf_counter()
        try:
            if kind in _SELECT_KINDS:
                result = self._execute_select_kind(
                    sql, kind, normalized, params, engine, batch_size, workers, executor,
                    session, trace=trace,
                )
            else:
                with span(trace, "execute", statement=kind):
                    result = self._execute_other(sql, params)
        except Exception as error:
            snapshot = None
            if trace is not None:
                trace.finish(status="error", error=str(error))
                snapshot = self.tracer.finish(trace)
                try:
                    error.trace_id = trace.trace_id  # type: ignore[attr-defined]
                except AttributeError:
                    pass  # slotted exception types cannot carry the id
            self._note_latency(normalized, time.perf_counter() - started, snapshot)
            raise
        elapsed = time.perf_counter() - started
        self._statements_total.inc(label=result.statement)
        snapshot = None
        if trace is not None:
            trace.finish()
            result.trace_id = trace.trace_id
            snapshot = self.tracer.finish(trace)
        self._note_latency(normalized, elapsed, snapshot)
        return result

    @staticmethod
    def _statement_shape(normalized: str) -> str:
        """The latency histogram's label: normalized SQL, bounded in length."""
        return normalized if len(normalized) <= 120 else normalized[:117] + "..."

    def _note_latency(
        self, normalized: str, seconds: float, trace_snapshot: Optional[Dict[str, Any]]
    ) -> None:
        """Record one statement's latency; log it when over the slow threshold."""
        self._statement_seconds.observe(seconds, label=self._statement_shape(normalized))
        threshold = self.slow_query_ms
        if threshold is not None and seconds * 1000.0 >= threshold:
            self._slow_queries_total.inc()
            self.event_log.record(
                "slow_query",
                statement=normalized,
                elapsed_ms=seconds * 1000.0,
                threshold_ms=threshold,
                trace_id=trace_snapshot["trace_id"] if trace_snapshot else None,
                trace=trace_snapshot,
            )

    def execute_script(
        self, sql: str, parameters: Optional[Sequence[object]] = None
    ) -> List[StatementResult]:
        """Run a ``;``-separated script, one statement at a time.

        *parameters* (if given) are passed to every statement that contains
        placeholders; parameter-free statements run as-is, so one value set
        can drive a mixed DDL/query script.
        """
        results = []
        for text in split_statements(sql):
            takes_params = statement_has_parameters(text)
            results.append(self.execute(text, parameters if takes_params else None))
        return results

    def prepare(self, sql: str, parameters: Optional[Sequence[object]] = None) -> CachedPlan:
        """Parse, bind and optimize *sql*, warming (or hitting) the plan cache.

        *parameters* only contributes the type signature under which the plan
        is cached; no execution happens.
        """
        self._check_open()
        params: Tuple[object, ...] = tuple(parameters) if parameters is not None else ()
        kind, normalized = normalize_statement(sql)
        if kind not in _SELECT_KINDS:
            raise SqlError("only SELECT (or EXPLAIN) statements can be prepared")
        entry, _ = self._cached_plan(sql, normalized, params)
        return entry

    # -- adaptive feedback ------------------------------------------------

    def refresh_cached_plans(self, session: Optional[str] = None) -> int:
        """Feed monitor observations to every cached plan, incrementally.

        Each cache entry owns the declarative optimizer that produced its
        plan; the monitor's observed cardinalities become statistics deltas
        (scoped to the entry's own relations — and, with *session*, to that
        session's own observations) and the entry's plan is re-derived
        through ``reoptimize`` — the paper's incremental pass, not a
        from-scratch re-optimization.  Returns how many plans changed cost.

        Safe to call while other threads execute statements: the cache hands
        back a stable copy of its entries, and refresh passes serialize on
        one lock so two concurrent refreshes cannot interleave ``reoptimize``
        calls on the same entry's optimizer.  (Before those locks existed, a
        concurrent ``store``/eviction made the entry iteration raise
        ``RuntimeError: OrderedDict mutated during iteration``.)
        """
        self._check_open()
        refreshed = 0
        with self._refresh_lock:
            for entry in self.plan_cache.cached_plans():
                deltas = self.monitor.produce_deltas(entry.optimizer, session=session)
                if not deltas:
                    continue
                before_cost = entry.optimization.cost
                before_shape = plan_shape(entry.optimization.plan)
                entry.optimization = entry.optimizer.reoptimize(deltas)
                after_cost = entry.optimization.cost
                after_shape = plan_shape(entry.optimization.plan)
                flipped = after_shape != before_shape
                self._reoptimizations_total.inc()
                if flipped:
                    self._plan_flips_total.inc()
                self.event_log.record(
                    "reoptimization",
                    query=entry.query.name,
                    session=session,
                    cost_before=before_cost,
                    cost_after=after_cost,
                    cost_changed=after_cost != before_cost,
                    plan_flipped=flipped,
                    plan_before=before_shape,
                    plan_after=after_shape,
                    deltas=[describe_delta(delta) for delta in deltas],
                    **entry.optimization.metrics.work(),
                )
                if after_cost != before_cost:
                    refreshed += 1
        return refreshed

    # -- introspection ----------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Counters for tables, the plan cache, statements and the monitor.

        Since the observability layer this is a thin view over the metrics
        registry: the legacy key set is preserved exactly, but every value is
        read from a registry instrument or provider, so ``stats()``, the
        ``metrics`` wire frame and the Prometheus export can never disagree.
        Safe under concurrent execution — instruments copy under the registry
        lock and providers snapshot atomically.
        """
        registry = self.metrics_registry
        statements = {
            name: int(count)
            for name, count in self._statements_total.values().items()
            if name is not None
        }
        return {
            "tables": registry.provider_snapshot("tables"),
            "catalog_version": self.catalog.version,
            "plan_cache": registry.provider_snapshot("plan_cache"),
            "statements": statements,
            "executions": int(self._executions_total.total()),
            "monitor": registry.provider_snapshot("monitor"),
            # Process-wide parallel-executor counters (morsels dispatched,
            # bytes exported to workers, fallback events by reason).
            "parallel": registry.provider_snapshot("parallel"),
        }

    def metrics(self) -> Dict[str, object]:
        """A JSON-friendly snapshot of every registry instrument + provider."""
        return self.metrics_registry.to_dict()

    def prometheus_metrics(self) -> str:
        """The registry in the Prometheus text exposition format."""
        return self.metrics_registry.to_prometheus()

    def traces(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """The most recent finished traces (oldest first) as plain dicts."""
        return self.tracer.traces(limit)

    def events(
        self, kind: Optional[str] = None, limit: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """Observability events (re-optimizations, slow queries), oldest first."""
        return self.event_log.events(kind=kind, limit=limit)

    # ------------------------------------------------------------------
    # SELECT / EXPLAIN
    # ------------------------------------------------------------------

    def _cached_plan(
        self,
        sql: str,
        normalized: str,
        params: Tuple[object, ...],
        trace: Optional[Trace] = None,
    ) -> Tuple[CachedPlan, bool]:
        """The cached (or freshly planned) entry for one statement + hit flag.

        Planning is single-flight per statement: a miss takes the key's
        stripe lock and re-checks the cache before optimizing, so when many
        pooled connections miss on the same statement at once exactly one
        runs the optimizer and the rest pick up its stored entry.
        """
        key = (normalized, parameter_signature(params))
        # The fast-path lookup does not count misses: an execution counts as
        # exactly one hit or one miss, decided under the stripe lock (a
        # thread that misses here but finds the single-flight winner's entry
        # below is a hit, not a miss-then-hit).
        with span(trace, "plan-cache-lookup") as lookup_span:
            entry = self.plan_cache.lookup(
                key, self.catalog.version, self.catalog.table_version, count_miss=False
            )
            if lookup_span is not None:
                lookup_span.attributes["hit"] = entry is not None
        if entry is not None:
            return entry, True
        stripe = self._planning_stripes[hash(key) % len(self._planning_stripes)]
        # The plan-wait span covers only the single-flight wait, so a trace
        # shows time lost to another session planning the same statement.
        with span(trace, "plan-wait"):
            stripe.acquire()
        try:
            return self._plan_statement(sql, key, trace=trace)
        finally:
            stripe.release()

    def _plan_statement(
        self, sql: str, key, trace: Optional[Trace] = None
    ) -> Tuple[CachedPlan, bool]:
        """Plan + cache one statement (caller holds the key's stripe lock)."""
        entry = self.plan_cache.lookup(
            key, self.catalog.version, self.catalog.table_version
        )
        if entry is not None:
            # Another thread planned this statement while we waited.
            return entry, True
        # Version stamps are read *before* the catalog state they guard is
        # consumed (the schema version before binding, each table's
        # statistics version before optimization reads its statistics).  DDL
        # does not take the planning stripe lock, so a CREATE/DROP INDEX or
        # ANALYZE committing mid-plan must make this entry *stale* — stamping
        # versions read after planning would certify a plan built against the
        # old catalog as current, and it would never be invalidated.
        catalog_version = self.catalog.version
        with span(trace, "parse"):
            statement = Parser(sql).parse_statement()
            if isinstance(statement, ExplainStatement):
                statement = statement.select
            assert isinstance(statement, SelectStatement)
        with span(trace, "bind"):
            query = Binder(self.catalog, source=sql).bind(statement, self._next_name())
        # Statistics-version stamps for exactly the referenced tables:
        # appends/ANALYZE elsewhere leave this entry live.
        table_versions = tuple(
            (name, self.catalog.table_version(name))
            for name in sorted({ref.table for ref in query.relations})
        )
        optimizer = DeclarativeOptimizer(
            query,
            self.catalog,
            pruning=self.pruning,
            cost_parameters=self.cost_parameters,
            enumeration=self.enumeration,
        )
        with span(trace, "optimize") as optimize_span:
            optimization = optimizer.optimize()
            if optimize_span is not None:
                optimize_span.attributes["cost"] = round(optimization.cost, 3)
        entry = CachedPlan(
            query=query,
            optimization=optimization,
            optimizer=optimizer,
            parameter_count=query_parameter_count(query),
            catalog_version=catalog_version,
            table_versions=table_versions,
        )
        self.plan_cache.store(key, entry)
        return entry, False

    def _execute_select_kind(
        self,
        sql: str,
        kind: str,
        normalized: str,
        params: Tuple[object, ...],
        engine: Optional[str],
        batch_size: Optional[int],
        workers: Optional[int] = None,
        executor: Optional[str] = None,
        session: Optional[str] = None,
        trace: Optional[Trace] = None,
    ) -> StatementResult:
        entry, cached = self._cached_plan(sql, normalized, params, trace=trace)
        self._check_arity(entry.parameter_count, params)
        self._check_parameter_types(entry.query, params)
        query, optimization = entry.query, entry.optimization
        if kind == "explain":
            text = explain_header(query, optimization) + render_plan(
                optimization.plan, query=query
            )
            return StatementResult(
                "explain",
                query=query,
                optimization=optimization,
                plan_text=text,
                parameter_count=entry.parameter_count,
                from_cache=cached,
            )
        collections_before = gc_collections() if kind == "explain analyze" else ()
        execution = self._run_plan(
            query, optimization.plan, params, engine, batch_size, workers, executor,
            trace=trace,
        )
        self.monitor.record_execution(execution, session=session)
        self._executions_total.inc()
        if kind == "explain analyze":
            full_collections = gc_collections()[-1] - collections_before[-1]
            text = (
                explain_header(query, optimization)
                + render_plan(optimization.plan, execution, query=query)
                + explain_footer(execution, full_collections)
            )
            return StatementResult(
                "explain analyze",
                query=query,
                optimization=optimization,
                execution=execution,
                plan_text=text,
                parameter_count=entry.parameter_count,
                from_cache=cached,
            )
        columns = output_columns(query)
        rows = shape_result(query, execution.output, columns)
        return StatementResult(
            "select",
            columns=columns,
            tuples=rows,
            rowcount=len(rows),
            query=query,
            optimization=optimization,
            execution=execution,
            parameter_count=entry.parameter_count,
            from_cache=cached,
        )

    def _run_plan(
        self,
        query: Query,
        plan,
        params: Tuple[object, ...],
        engine: Optional[str],
        batch_size: Optional[int],
        workers: Optional[int] = None,
        executor: Optional[str] = None,
        trace: Optional[Trace] = None,
    ) -> ExecutionResult:
        engine = engine if engine is not None else self.engine
        batch_size = batch_size if batch_size is not None else self.batch_size
        workers = workers if workers is not None else self.workers
        executor = executor if executor is not None else self.executor
        # One consistent snapshot of every table for the whole statement:
        # concurrent writers keep publishing new versions, this statement
        # never sees them mid-flight.
        store = self._snapshot_store()
        try:
            executor = make_executor(
                engine,
                query,
                store,
                batch_size=batch_size,
                workers=workers,
                parameters=params or None,
                executor=executor,
            )
        except ExecutionError as error:  # e.g. an invalid batch_size
            raise SqlError(str(error)) from error
        if trace is None:
            execution = executor.execute(plan)
            self._count_aggregate_paths(execution)
            return execution
        # The fan-out sink collects the parallel executors' per-morsel and
        # shm export/attach timings on this thread; they become children of
        # the execute span alongside the per-operator spans.
        fanout_events: List[Dict[str, Any]] = []
        install_fanout_sink(fanout_events)
        try:
            with trace.span("execute", engine=engine) as execute_span:
                execution = executor.execute(plan)
        finally:
            remove_fanout_sink()
        self._count_aggregate_paths(execution)
        if execution.workers is not None:
            execute_span.attributes["workers"] = execution.workers
        if execution.executor is not None:
            execute_span.attributes["executor"] = execution.executor
        self._attach_operator_spans(trace, execute_span, plan, execution, fanout_events)
        return execution

    def _count_aggregate_paths(self, execution: ExecutionResult) -> None:
        for path in execution.aggregate_paths.values():
            label = ("kernel", "") if path == "kernel" else ("generic", path)
            self._aggregate_kernel_total.inc(label=label)

    def _attach_operator_spans(
        self,
        trace: Trace,
        parent: Span,
        plan,
        execution: ExecutionResult,
        fanout_events: List[Dict[str, Any]],
    ) -> None:
        """Per-operator + fan-out child spans for one traced execution.

        Operator spans carry the same estimated vs observed row counts that
        ``EXPLAIN ANALYZE`` renders (``est_rows`` formatted with ``:.0f``,
        ``actual_rows`` the observed count or ``"?"``), keyed by the plan's
        stable pre-order operator labels, so a trace and the rendered plan
        agree byte-for-byte.
        """
        for event in fanout_events:
            trace.add_span(
                event["name"],
                event["start"],
                event["end"],
                attributes=event["attributes"],
                parent=parent,
            )
        clock = parent.start
        for operator_key, node in zip(plan.operator_keys(), plan.iter_nodes()):
            observed = execution.operator_cardinalities.get(operator_key)
            attributes: Dict[str, Any] = {
                "operator": operator_key,
                "est_rows": f"{node.cardinality:.0f}",
                "actual_rows": str(observed) if observed is not None else "?",
            }
            worker_seconds = execution.operator_worker_seconds.get(operator_key)
            if worker_seconds is not None:
                attributes["worker_seconds"] = worker_seconds
            aggregate_path = execution.aggregate_paths.get(operator_key)
            if aggregate_path is not None:
                attributes["kernel"] = aggregate_path == "kernel"
                if aggregate_path != "kernel":
                    attributes["reason"] = aggregate_path
            seconds = execution.operator_timings.get(operator_key, 0.0)
            trace.add_span(
                "operator", clock, clock + seconds, attributes=attributes, parent=parent
            )

    def _check_arity(self, expected: int, params: Tuple[object, ...]) -> None:
        if len(params) != expected:
            raise SqlError(
                f"prepared statement expects {expected} "
                f"parameter{'s' if expected != 1 else ''}, got {len(params)}"
            )

    def _check_parameter_types(self, query: Query, params: Tuple[object, ...]) -> None:
        """Admission-check parameter values against their inferred types.

        The binder types each slot from the expressions it appears in
        (``Query.parameter_types``); this catches mistyped parameters with an
        explicit SqlError instead of letting a raw TypeError escape from the
        engine's comparison loop.  Numeric slots accept int and float
        (comparisons mix them fine); string slots require str; NULL never
        compares, so it is rejected up front.
        """
        if not params:
            return
        for index, expected in sorted(query.parameter_types.items()):
            if index > len(params):
                continue  # arity is checked separately
            resolved = params[index - 1]
            if resolved is None:
                raise SqlError(
                    f"parameter ${index} is NULL: a NULL comparison matches "
                    "no rows and is not supported"
                )
            if expected is ScalarType.STRING:
                comparable = isinstance(resolved, str)
            else:
                comparable = isinstance(resolved, (int, float)) and not isinstance(
                    resolved, bool
                )
            if not comparable:
                raise SqlError(
                    f"type mismatch for parameter ${index}: expected "
                    f"{expected.value}, got {resolved!r}"
                )

    def _next_name(self) -> str:
        with self._counter_lock:
            self._statement_counter += 1
            return f"sql-{self._statement_counter}"

    def _register_session(self) -> str:
        """A fresh session id for one connection (local or wire)."""
        with self._counter_lock:
            self._session_counter += 1
            return f"session-{self._session_counter}"

    def _check_open(self) -> None:
        if self._closed:
            raise SqlError("database is closed")

    # -- bind/optimize helpers (no execution) ---------------------------------

    def bind_select(self, sql: str, name: Optional[str] = None) -> Query:
        """Parse and bind one SELECT into a :class:`Query`, without planning.

        *name* names the bound query (defaulting to the database's statement
        counter); the plan cache is bypassed entirely.
        """
        self._check_open()
        statement = Parser(sql).parse_statement()
        if isinstance(statement, ExplainStatement):
            statement = statement.select
        if not isinstance(statement, SelectStatement):
            raise SqlError("only SELECT (or EXPLAIN) statements can be bound")
        return Binder(self.catalog, source=sql).bind(statement, name or self._next_name())

    def optimize_select(
        self, sql: str, name: Optional[str] = None
    ) -> Tuple[Query, DeclarativeOptimizer, OptimizationResult]:
        """Bind and optimize one SELECT, returning its live optimizer.

        Unlike :meth:`prepare` this always plans fresh and hands back the
        optimizer itself, so callers (the legacy :class:`~repro.sql.session.
        Session`, notebooks) can drive ``reoptimize`` directly.
        """
        query = self.bind_select(sql, name)
        optimizer = DeclarativeOptimizer(
            query,
            self.catalog,
            pruning=self.pruning,
            cost_parameters=self.cost_parameters,
            enumeration=self.enumeration,
        )
        return query, optimizer, optimizer.optimize()

    # ------------------------------------------------------------------
    # DDL / DML
    # ------------------------------------------------------------------

    def _execute_other(self, sql: str, params: Tuple[object, ...]) -> StatementResult:
        statement = Parser(sql).parse_statement()
        binder = Binder(self.catalog, source=sql)
        if isinstance(statement, CreateTableStatement):
            self._check_arity(0, params)
            return self._execute_create(binder, statement)
        if isinstance(statement, CreateIndexStatement):
            self._check_arity(0, params)
            return self._execute_create_index(binder, statement)
        if isinstance(statement, DropIndexStatement):
            self._check_arity(0, params)
            return self._execute_drop_index(binder, statement)
        if isinstance(statement, InsertStatement):
            return self._execute_insert(binder, statement, params)
        if isinstance(statement, CopyStatement):
            self._check_arity(0, params)
            return self._execute_copy(binder, statement)
        if isinstance(statement, AnalyzeStatement):
            self._check_arity(0, params)
            return self._execute_analyze(binder, statement)
        # A SELECT/EXPLAIN can't reach here (kind dispatch), so this is a
        # statement the parser knows but the database does not.
        raise SqlError(f"unsupported statement {type(statement).__name__}")

    def _execute_create(self, binder: Binder, statement: CreateTableStatement) -> StatementResult:
        bound = binder.bind_create_table(statement)
        with self._ddl_lock:
            self.catalog.create_table(bound.table, bound.indexes)
            stored = StoredTable.for_table(bound.table)
            for index in bound.indexes:
                stored.create_index(index)
            self._store[bound.table.name] = VersionedTable(stored)
        return StatementResult("create table")

    def _versioned_table(self, name: str) -> Optional[VersionedTable]:
        """The versioned, index-bearing store behind *name*, adopting legacy data.

        Tables handed to :func:`repro.api.connect` as row dicts or bare
        ColumnTables are adopted into a :class:`VersionedTable` over a
        :class:`StoredTable` (with every catalog index on the table built
        physically) the first time an index has to exist for real.  Returns
        None for tables with no stored data at all (analytic catalogs), whose
        indexes stay metadata-only.  Callers must hold the DDL lock.
        """
        stored = self._store.get(name)
        if stored is None or isinstance(stored, VersionedTable):
            return stored
        if isinstance(stored, StoredTable):
            versioned = self._store[name] = VersionedTable(stored)
            return versioned
        if isinstance(stored, ColumnTable):
            adopted = StoredTable.from_column_table(stored)
        else:
            table = self.catalog.schema.table(name)
            kinds = column_kinds(
                table.column_names, [column.data_type for column in table.columns]
            )
            adopted = StoredTable.from_column_table(
                # Typed buffers where the declared types allow; a column whose
                # adopted values don't fit demotes itself back to a list.
                ColumnTable.from_rows(
                    list(stored), columns=table.column_names, kinds=kinds
                )
            )
        for index in self.catalog.indexes_on(name):
            adopted.create_index(index)
        versioned = self._store[name] = VersionedTable(adopted)
        return versioned

    def _execute_create_index(
        self, binder: Binder, statement: CreateIndexStatement
    ) -> StatementResult:
        index = binder.bind_create_index(statement)
        with self._ddl_lock:
            # Adopt the store first so only pre-existing catalog indexes are
            # built during conversion; then register + build the new one.
            versioned = self._versioned_table(index.table)
            if versioned is not None and index.unique:
                # Validate before the catalog mutates: a failed unique build
                # must leave neither metadata nor a published physical index
                # (the copy-on-write draft is discarded on failure).
                try:
                    versioned.create_index(index)
                except SchemaError as error:
                    raise SqlError(str(error)) from error
                self.catalog.create_index(index)
                return StatementResult("create index")
            self.catalog.create_index(index)
            if versioned is not None:
                versioned.create_index(index)
        return StatementResult("create index")

    def _execute_drop_index(
        self, binder: Binder, statement: DropIndexStatement
    ) -> StatementResult:
        index = binder.bind_drop_index(statement)
        with self._ddl_lock:
            self.catalog.drop_index(index.name)
            stored = self._store.get(index.table)
            if isinstance(stored, VersionedTable):
                stored.drop_index(index.name)
            elif isinstance(stored, StoredTable):
                stored.drop_index(index.name)
        return StatementResult("drop index")

    def _execute_insert(
        self, binder: Binder, statement: InsertStatement, params: Tuple[object, ...]
    ) -> StatementResult:
        bound = binder.bind_insert(statement)
        self._check_arity(bound.parameter_count, params)
        rows: List[Row] = []
        for bound_row in bound.rows:
            values: Row = {}
            for name, value in zip(bound.columns, bound_row):
                if isinstance(value, ParameterRef):
                    resolved = params[value.index - 1]
                    data_type = bound.table.column(name).data_type
                    if not value_matches_type(resolved, data_type):
                        raise SqlError(
                            f"type mismatch for parameter ${value.index} bound to "
                            f"column {name!r}: expected {data_type.value}, "
                            f"got {resolved!r}"
                        )
                    value = resolved
                values[name] = value
            rows.append({name: values.get(name) for name in bound.table.column_names})
        added = self._append_rows(bound.table.name, rows)
        with self._ddl_lock:
            self.catalog.bump_row_count(bound.table.name, added)
        return StatementResult("insert", rowcount=added)

    def _execute_copy(self, binder: Binder, statement: CopyStatement) -> StatementResult:
        bound = binder.bind_copy(statement)
        table = bound.table
        null_token = bound.null_token
        try:
            with open(bound.path, newline="", encoding="utf-8") as handle:
                reader = csv.reader(handle, delimiter=bound.delimiter)
                header = next(reader, None)
                if header is None:
                    raise SqlError(
                        f"COPY {table.name}: {bound.path!r} is empty "
                        "(expected a header row naming the columns)"
                    )
                header = [name.strip() for name in header]
                converters = []
                for name in header:
                    if not table.has_column(name):
                        raise SqlError(
                            f"COPY {table.name}: CSV column {name!r} does not "
                            f"exist in the table (columns: "
                            f"{', '.join(table.column_names)})"
                        )
                    converters.append(_CSV_CONVERTERS[table.column(name).data_type])
                rows: List[Row] = []
                for line_number, record in enumerate(reader, start=2):
                    if not record:
                        continue  # blank line
                    if len(record) != len(header):
                        raise SqlError(
                            f"COPY {table.name}: row at line {line_number} has "
                            f"{len(record)} values, expected {len(header)}"
                        )
                    values: Row = {}
                    for name, convert, text in zip(header, converters, record):
                        # With an explicit NULL token only that exact text is
                        # NULL (empty strings round-trip); without one the
                        # legacy rule applies: empty field loads as NULL.
                        if text == null_token if null_token is not None else text == "":
                            values[name] = None
                            continue
                        try:
                            values[name] = convert(text)
                        except ValueError:
                            raise SqlError(
                                f"COPY {table.name}: line {line_number}, column "
                                f"{name!r}: cannot convert {text!r} to "
                                f"{table.column(name).data_type.value}"
                            ) from None
                    rows.append({name: values.get(name) for name in table.column_names})
        except OSError as error:
            raise SqlError(f"COPY {table.name}: cannot read {bound.path!r}: {error}") from error
        added = self._append_rows(table.name, rows)
        # Bulk loads refresh the table's statistics (row count + histograms)
        # from the full stored contents; the catalog version bump invalidates
        # any plan cached against the pre-load statistics.
        with self._ddl_lock:
            self._analyze(table.name)
        return StatementResult("copy", rowcount=added)

    def _execute_analyze(self, binder: Binder, statement: AnalyzeStatement) -> StatementResult:
        bound = binder.bind_analyze(statement)
        if bound.table is not None:
            targets = [bound.table.name]
            if bound.table.name not in self._store:
                raise SqlError(
                    f"ANALYZE {bound.table.name}: no stored data for this table "
                    "(load it with INSERT or COPY first)"
                )
        else:
            # Snapshot the table list atomically before the Python-level
            # filter (same rationale as _snapshot_store).
            targets = [
                name for name in list(self._store) if self.catalog.schema.has_table(name)
            ]
        with self._ddl_lock:
            for name in targets:
                self._analyze(name)
        return StatementResult("analyze", rowcount=len(targets))

    def _append_rows(self, name: str, rows: List[Row]) -> int:
        with self._ddl_lock:
            stored = self._store.get(name)
            if stored is None:
                table = self.catalog.schema.table(name)
                created = StoredTable.for_table(table)
                for index in self.catalog.indexes_on(name):
                    created.create_index(index)
                stored = self._store[name] = VersionedTable(created)
        if isinstance(stored, VersionedTable):
            try:
                # Copy-on-write append under the table's own write lock;
                # readers keep scanning the previous published version.
                return stored.append_rows(rows)
            except SchemaError as error:  # unique-index violation
                raise SqlError(str(error)) from error
        if isinstance(stored, ColumnTable):
            try:
                return stored.append_rows(rows)
            except SchemaError as error:  # unique-index violation
                raise SqlError(str(error)) from error
        if isinstance(stored, list):
            stored.extend(rows)
            return len(rows)
        raise SqlError(
            f"table {name!r} holds read-only data "
            "(pass a mutable list, or load through SQL)"
        )
