"""Set-up: generate the CSVs, load them, verify every query against sqlite3.

Everything between the first dbgen call and the first timed operation is
``setup_s``.  The same generated files are loaded into the repro database
and into the sqlite3 oracle, so the reference is timed on byte-identical
inputs while it verifies.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import repro
from benchmarks.ledger.spec import Workload
from benchmarks.tpch import dbgen, oracle, runner

Rows = List[Tuple[object, ...]]

AUDIT_DDL = "CREATE TABLE audit (client INTEGER, seq INTEGER, flag INTEGER)"


@dataclass
class Checks:
    """Operations attempted and failed; a miss never raises, it is counted."""

    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)
        return bool(ok)

    def passed(self, count: int) -> None:
        """Count operations whose own completion is the check (timed loops)."""
        self.attempted += count


@dataclass
class Dataset:
    """One loaded workload: the database, its queries and what set-up measured."""

    directory: str
    connection: repro.Connection
    queries: Dict[str, str]
    setup_seconds: float
    copy_seconds: float
    rows_loaded: int
    sqlite_ms: Dict[str, float]

    @property
    def database(self) -> repro.Database:
        return self.connection.database

    def close(self) -> None:
        self.connection.close()
        self.database.close()
        shutil.rmtree(self.directory, ignore_errors=True)


def set_up(
    workload: Workload, scale: float, seed: int, directory: str, checks: Checks
) -> Dataset:
    """dbgen → schema → COPY/ANALYZE → oracle verification, timed as a whole."""
    started = time.perf_counter()
    report = dbgen.generate(directory, scale_factor=scale, skew=workload.skew, seed=seed)
    copy_started = time.perf_counter()
    connection = runner.load_connection(directory)
    copy_seconds = time.perf_counter() - copy_started
    if workload.stale_statistics:
        runner.assume_uniform_statistics(connection.database)
    connection.execute(AUDIT_DDL)
    queries, _ = runner.load_queries()
    sqlite_ms: Dict[str, float] = {}
    with oracle.SqliteOracle(directory) as reference:
        for name, sql in queries.items():
            rows = connection.execute(sql).fetchall()
            begin = time.perf_counter()
            expected = reference.run(sql)
            sqlite_ms[name] = (time.perf_counter() - begin) * 1e3
            outcome = oracle.compare_results(expected, rows, oracle.query_is_ordered(sql))
            checks.expect(
                outcome.matches, f"{name} differs from sqlite3: {outcome.differences[:2]}"
            )
    return Dataset(
        directory=directory,
        connection=connection,
        queries=queries,
        setup_seconds=time.perf_counter() - started,
        copy_seconds=copy_seconds,
        rows_loaded=sum(report.row_counts.values()),
        sqlite_ms=sqlite_ms,
    )


def input_digest(directory: str, queries: Dict[str, str], statements: List[str]) -> str:
    """sha256 over the CSV bytes, the query texts and the served statement stream.

    dbgen, the query files and the oracle live outside the ledger's
    directory; this pin is what notices when one of them changes the work.
    """
    digest = hashlib.sha256()
    for table in dbgen.TABLES:
        with open(os.path.join(directory, f"{table}.csv"), "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
    for name in sorted(queries):
        digest.update(name.encode())
        digest.update(queries[name].encode())
    for statement in statements:
        digest.update(statement.encode())
    return digest.hexdigest()
