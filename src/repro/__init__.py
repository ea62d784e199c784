"""repro — a reproduction of "Enabling Incremental Query Re-Optimization".

The package implements a declarative, rule-based query optimizer whose state
(plan search space, plan costs, pruning bounds) is maintained incrementally,
so that re-optimization after a statistics change only recomputes the affected
portion of the search space.  It also ships the substrates that the paper's
evaluation relies on: a cost model and catalog, Volcano- and System-R-style
baseline optimizers, two in-memory execution engines (row and vectorized
columnar), TPC-H-style and Linear Road-style workloads, and an adaptive query
processing loop.

The public entry point is DB-API-flavored::

    import repro

    conn = repro.connect()
    cur = conn.cursor()
    cur.execute("CREATE TABLE t (a INTEGER, b FLOAT, PRIMARY KEY (a))")
    cur.executemany("INSERT INTO t VALUES (?, ?)", [(1, 0.5), (2, 1.5)])
    cur.execute("ANALYZE t")
    print(cur.execute("SELECT a FROM t WHERE b > $1", (0.9,)).fetchall())

``Database`` owns the catalog, stored columnar tables, the LRU plan cache
and the adaptive monitor; ``Connection``/``Cursor`` are the PEP 249-style
client surface.  A database is safe to share across threads (copy-on-write
table snapshots, a lock-protected plan cache) and can be served over TCP —
``repro-serve`` / :mod:`repro.server` on the server side,
:func:`repro.client.connect` on the client side.  The research internals
(optimizers, engines, workloads) remain importable for experiments.
"""

from repro.api import (
    CachedPlan,
    Connection,
    Cursor,
    Database,
    PlanCache,
    StatementResult,
    connect,
)
from repro.common.errors import (
    AdaptationError,
    CatalogError,
    ExecutionError,
    OptimizationError,
    QueryError,
    ReproError,
    SchemaError,
    SqlBindingError,
    SqlError,
    SqlSyntaxError,
)
from repro.engine import PlanExecutor, VectorizedExecutor, make_executor
from repro.optimizer import (
    DeclarativeOptimizer,
    OptimizationResult,
    PruningConfig,
    SystemROptimizer,
    VolcanoOptimizer,
)
from repro.relational import (
    ComparisonOp,
    Expression,
    ParameterRef,
    PhysicalPlan,
    Query,
    QueryBuilder,
)
from repro.sql import Session, SqlResult
from repro.workloads import q3s, q5, q5s, q8join, q8joins, q10, tpch_catalog

__version__ = "1.6.0"

__all__ = [
    # DB-API surface
    "connect",
    "Database",
    "Connection",
    "Cursor",
    "StatementResult",
    "PlanCache",
    "CachedPlan",
    # errors
    "ReproError",
    "SchemaError",
    "CatalogError",
    "QueryError",
    "OptimizationError",
    "ExecutionError",
    "AdaptationError",
    "SqlError",
    "SqlSyntaxError",
    "SqlBindingError",
    # optimizers
    "DeclarativeOptimizer",
    "OptimizationResult",
    "PruningConfig",
    "SystemROptimizer",
    "VolcanoOptimizer",
    # relational substrate
    "ComparisonOp",
    "Expression",
    "ParameterRef",
    "PhysicalPlan",
    "Query",
    "QueryBuilder",
    # engines
    "PlanExecutor",
    "VectorizedExecutor",
    "make_executor",
    # legacy facade
    "Session",
    "SqlResult",
    # workloads
    "q3s",
    "q5",
    "q5s",
    "q10",
    "q8join",
    "q8joins",
    "tpch_catalog",
    "__version__",
]
