"""Append-only event log for the adaptivity loop + slow-query entries.

Two event kinds matter operationally:

* ``reoptimization`` — one entry per cached plan that
  ``Database.refresh_cached_plans()`` re-optimized: which query, which
  operator's est-vs-observed delta triggered it, the old and new plan
  shapes, the cost before/after, and the work the incremental pass did
  (``events`` by kind, ``cost_evals_live``/``cost_evals_dead``, ``wall_ms``).
  This makes the paper's feedback loop
  (observed cardinalities → incremental re-optimization → plan flip)
  visible without hand-running ``EXPLAIN ANALYZE``.
* ``slow_query`` — statements whose wall-clock latency exceeded the
  configured threshold; each entry embeds the statement's full trace when
  tracing captured one.

Events are plain dicts in a bounded ``deque`` behind a lock; readers get
snapshots, never live references.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

from repro.relational.plan import PhysicalPlan

DEFAULT_EVENT_CAPACITY = 512


class EventLog:
    """A bounded, thread-safe, append-only log of observability events."""

    def __init__(self, capacity: int = DEFAULT_EVENT_CAPACITY) -> None:
        self._events: deque = deque(maxlen=max(1, capacity))
        self._lock = threading.Lock()
        self._seq = 0

    def record(self, kind: str, **fields: Any) -> Dict[str, Any]:
        with self._lock:
            self._seq += 1
            event = {"seq": self._seq, "kind": kind, "time": time.time(), **fields}
            self._events.append(event)
        return event

    def events(self, kind: Optional[str] = None, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """The most recent events, oldest first, optionally filtered by kind."""
        with self._lock:
            snapshot = list(self._events)
        if kind is not None:
            snapshot = [event for event in snapshot if event["kind"] == kind]
        if limit is not None and limit >= 0:
            snapshot = snapshot[-limit:]
        return snapshot

    def count(self, kind: Optional[str] = None) -> int:
        with self._lock:
            if kind is None:
                return len(self._events)
            return sum(1 for event in self._events if event["kind"] == kind)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()


def plan_shape(plan: PhysicalPlan) -> str:
    """Operator tree + access paths, without costs.

    Two executions use the same physical strategy iff their shapes are
    equal; this is the flip detector shared with the TPC-H skew sweep
    (``benchmarks.tpch.runner.plan_shape`` delegates here).
    """
    lines: List[str] = []

    def visit(node: PhysicalPlan, depth: int) -> None:
        index_name = node.detail("index")
        access = f" using {index_name}" if index_name is not None else ""
        lines.append(f"{'  ' * depth}{node.operator.value} {node.expression}{access}")
        for child in node.children:
            visit(child, depth + 1)

    visit(plan, 0)
    return "\n".join(lines)


def describe_delta(delta: Any) -> Dict[str, Any]:
    """A JSON-friendly view of a :class:`repro.cost.overrides.StatisticsDelta`."""
    return {
        "kind": delta.kind.value,
        "expression": str(delta.expression),
        "old_factor": delta.old_factor,
        "new_factor": delta.new_factor,
    }
