"""Declarative part of the ledger: workloads, repetition counts, metric names.

``BENCHMARK.json`` at the repository root is the single place that lists the
metrics with their units, directions and bounds; this module reads it and
adds what the contract's fixed key set has no room for — each workload's
data regime and which per-layer counts must repeat exactly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
#: scratch space for generated CSVs; inside the checkout, git-ignored,
#: removed by every run that creates it.
WORK_DIR = os.path.join(LEDGER_DIR, ".work")
PINS_PATH = os.path.join(LEDGER_DIR, "pins.json")

DEFAULT_SEED = 19
#: the scale every workload uses under ``--smoke`` (tests).
SMOKE_SCALE = 0.002


@dataclass(frozen=True)
class Workload:
    """One data regime; every workload runs the same four stages on it."""

    scale: float
    skew: float = 0.0
    #: overwrite the loaded statistics with the uniform assumption, so the
    #: optimizer plans under estimates the skewed data contradicts.
    stale_statistics: bool = False


WORKLOADS: Dict[str, Workload] = {
    "tpch_analytic": Workload(scale=0.008),
    "reopt_feedback": Workload(scale=0.01, skew=1.0, stale_statistics=True),
    "served_mix": Workload(scale=0.004),
    "tpch_parallel": Workload(scale=0.015),
}

#: fan-out-eligible subset: scans and aggregates over lineitem/orders that
#: the morsel executors actually split.
PARALLEL_QUERIES = ("q01", "q03", "q06", "q10", "q12", "q14")
PARALLEL_WORKERS = 2
SERVED_CLIENTS = 2


@dataclass(frozen=True)
class Repetitions:
    """Fixed counts, so a seed always does the same work.

    One *round* is one feedback round, one sweep per executor and one slice
    of the served mix, in that order: every metric's samples are spread
    over the whole run, so a burst of interference cannot cover all of one
    metric's samples.
    """

    setups: int
    rounds: int
    #: statements each client sends per slice (per-slice p99 = 10 beyond it)
    slice_statements: int
    traced_rounds: int

    @property
    def statements_per_client(self) -> int:
        return self.rounds * self.slice_statements

    @classmethod
    def for_seconds(cls, seconds: float, smoke: bool = False) -> "Repetitions":
        """Counts scaled linearly from the ``run_seconds`` the ledger records."""
        if smoke:
            return cls(setups=1, rounds=2, slice_statements=50, traced_rounds=1)
        factor = seconds / benchmark_json()["run_seconds"]
        return cls(
            setups=3,
            rounds=max(3, round(5 * factor)),
            slice_statements=500,
            traced_rounds=max(2, round(3 * factor)),
        )


#: per-layer counts that must repeat exactly for a given seed (the ✱ ones).
EXACT_COUNTS = frozenset(
    {
        "optimizer.search_space_or",
        "optimizer.search_space_and",
        "optimizer.update_ratio_or",
        "optimizer.update_ratio_and",
        "adaptive.deltas_per_refresh",
        "adaptive.plan_flips",
        "engine.parallel.morsels_dispatched",
        "engine.parallel.shm_bytes_exported",
        "engine.parallel.pickled_bytes_exported",
        "engine.parallel.fallbacks",
    }
)


def benchmark_json() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def metric_table(section: str) -> List[dict]:
    """``end_to_end`` or ``per_layer`` entries of ``BENCHMARK.json``."""
    return benchmark_json()[section]
