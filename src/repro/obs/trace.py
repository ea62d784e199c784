"""Query-lifecycle tracing: spans, traces and a bounded trace ring buffer.

Every statement executed with tracing enabled gets a :class:`Trace` — a tree
of :class:`Span` timings covering parse → bind → plan-cache lookup →
optimize → execute, with per-operator child spans carrying the estimated vs
observed row counts the paper's re-optimizer consumes, and (under the
parallel executors) per-morsel fan-out and shared-memory export/attach
timings.

The disabled path is near-free by construction: ``Tracer.begin`` returns
``None`` when tracing is off, and the :func:`span` helper degrades to
``contextlib.nullcontext`` — no allocation, no clock reads.  The parallel
executors report fan-out timings through a thread-local *sink*
(:func:`fanout_span`) that costs a single ``getattr`` when no trace is
active, so the engine hot path carries no tracing branches of its own.

Finished traces are stored as plain dicts in a ``deque(maxlen=capacity)``
ring buffer, so concurrent scrapers always see immutable snapshots.
"""

from __future__ import annotations

import gc
import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from typing import Any, ContextManager, Dict, Iterator, List, Optional, Tuple

DEFAULT_TRACE_CAPACITY = 256

_TRACE_IDS = itertools.count(1)
_FANOUT_LOCAL = threading.local()


def gc_collections() -> Tuple[int, ...]:
    """Cyclic-GC collections run so far in this process, per generation
    (youngest first; the last one counts the full collections)."""
    return tuple(generation["collections"] for generation in gc.get_stats())


class Span:
    """One timed step inside a trace; may carry attributes and children."""

    __slots__ = ("name", "start", "end", "attributes", "children")

    def __init__(
        self,
        name: str,
        start: Optional[float] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.start = time.perf_counter() if start is None else start
        self.end: Optional[float] = None
        self.attributes: Dict[str, Any] = dict(attributes) if attributes else {}
        self.children: List["Span"] = []

    @property
    def seconds(self) -> float:
        end = self.end if self.end is not None else time.perf_counter()
        return max(0.0, end - self.start)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seconds": self.seconds,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }


class Trace:
    """A statement's span tree plus identity/status metadata.

    A trace is built on the statement's own thread (spans nest through a
    stack), then frozen into a dict by :meth:`to_dict` when it is handed to
    the ring buffer.  :meth:`finish` stamps the root ``statement`` span with
    ``gc_collections``: the collections per generation that ran while the
    statement did (process-wide, so a concurrent statement's count too).
    """

    __slots__ = (
        "trace_id",
        "statement",
        "session",
        "started_at",
        "status",
        "error",
        "root",
        "_stack",
        "_gc_start",
    )

    def __init__(self, statement: str, session: Optional[str] = None) -> None:
        self.trace_id = f"trace-{next(_TRACE_IDS):06d}"
        self.statement = statement
        self.session = session
        self.started_at = time.time()
        self.status = "ok"
        self.error: Optional[str] = None
        self.root = Span("statement")
        self._stack: List[Span] = [self.root]
        self._gc_start = gc_collections()

    @property
    def current(self) -> Span:
        return self._stack[-1]

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a child span of the currently active span."""
        child = Span(name, attributes=attributes)
        self._stack[-1].children.append(child)
        self._stack.append(child)
        try:
            yield child
        finally:
            child.end = time.perf_counter()
            self._stack.pop()

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        attributes: Optional[Dict[str, Any]] = None,
        parent: Optional[Span] = None,
    ) -> Span:
        """Attach an already-timed span (post-hoc operator/fan-out events)."""
        child = Span(name, start=start, attributes=attributes)
        child.end = end
        (parent if parent is not None else self._stack[-1]).children.append(child)
        return child

    def finish(self, status: str = "ok", error: Optional[str] = None) -> None:
        self.root.end = time.perf_counter()
        self.root.attributes["gc_collections"] = [
            now - then for now, then in zip(gc_collections(), self._gc_start)
        ]
        self.status = status
        self.error = error

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "statement": self.statement,
            "session": self.session,
            "started_at": self.started_at,
            "status": self.status,
            "error": self.error,
            "elapsed_ms": self.root.seconds * 1000.0,
            "spans": self.root.to_dict(),
        }


class Tracer:
    """Hands out traces and keeps the last *capacity* of them.

    ``begin`` returns ``None`` when disabled, so callers pay one attribute
    read on the hot path.  Finished traces are stored as dicts — scraping
    ``traces()`` from another thread never observes a trace mid-mutation.
    """

    def __init__(self, enabled: bool = False, capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        self.enabled = enabled
        self._ring: deque = deque(maxlen=max(1, capacity))
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or 0

    def begin(self, statement: str, session: Optional[str] = None) -> Optional[Trace]:
        if not self.enabled:
            return None
        return Trace(statement, session=session)

    def finish(self, trace: Optional[Trace]) -> Optional[Dict[str, Any]]:
        if trace is None:
            return None
        if trace.root.end is None:
            trace.finish()
        snapshot = trace.to_dict()
        with self._lock:
            self._ring.append(snapshot)
        return snapshot

    def traces(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """The most recent traces, oldest first."""
        with self._lock:
            snapshot = list(self._ring)
        if limit is not None and limit >= 0:
            snapshot = snapshot[-limit:]
        return snapshot

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()


def span(trace: Optional[Trace], name: str, **attributes: Any) -> ContextManager[Optional[Span]]:
    """``trace.span(...)`` when tracing, a no-op context manager otherwise."""
    if trace is None:
        return nullcontext(None)
    return trace.span(name, **attributes)


# ---------------------------------------------------------------------------
# Fan-out sink: how the parallel executors report morsel/shm timings without
# holding a reference to the statement's trace.
# ---------------------------------------------------------------------------


def install_fanout_sink(sink: List[Dict[str, Any]]) -> None:
    """Route this thread's :func:`fanout_span` events into *sink*."""
    _FANOUT_LOCAL.sink = sink


def remove_fanout_sink() -> None:
    _FANOUT_LOCAL.sink = None


@contextmanager
def fanout_span(name: str, **attributes: Any) -> Iterator[Optional[Dict[str, Any]]]:
    """Time a fan-out step (morsel dispatch, shm export/attach).

    Yields the attribute dict so callers can fill in values only known
    afterwards (e.g. exported byte counts).  When no sink is installed —
    tracing disabled, or execution outside a traced statement — this is a
    single ``getattr`` plus a no-op yield.
    """
    sink = getattr(_FANOUT_LOCAL, "sink", None)
    if sink is None:
        yield None
        return
    attrs = dict(attributes)
    start = time.perf_counter()
    try:
        yield attrs
    finally:
        sink.append(
            {"name": name, "start": start, "end": time.perf_counter(), "attributes": attrs}
        )
