"""A process-wide metrics registry: counters, gauges, histograms, providers.

The registry is the single home for runtime telemetry that used to live in
scattered ad-hoc dicts (``Database.stats()["plan_cache"]``,
``stats()["parallel"]``, the monitor's operator clocks).  Instruments are
updated on the hot path; *providers* are zero-cost callables snapshotted only
at scrape time, which is how pre-existing stats sources (plan cache,
parallel-engine counters, catalog versions) are absorbed without moving
their bookkeeping.

Exports: :meth:`MetricsRegistry.to_dict` (JSON-friendly) and
:meth:`MetricsRegistry.to_prometheus` (text exposition format, parseable
back through :func:`parse_prometheus` — the round-trip is pinned by a test).

Thread-safety: one registry-wide lock guards every instrument mutation and
snapshot, so a scraper iterating a snapshot never races a writer
(``dict changed size during iteration`` is structurally impossible — writers
mutate under the lock, readers only see copies).
"""

from __future__ import annotations

import math
import re
import threading
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

#: a label name / a series' label value — or a tuple of them (several dimensions).
Label = Union[str, Tuple[str, ...], None]

#: per-metric cap on distinct label values; overflow collapses into one bucket
#: so an unbounded statement-shape space cannot grow the registry without bound.
MAX_LABEL_VALUES = 128
OVERFLOW_LABEL = "~overflow"

#: histogram quantile reservoir size (recent-window percentiles).
RESERVOIR_SIZE = 512

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_LINE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def sanitize_metric_name(name: str) -> str:
    cleaned = _NAME_SANITIZER.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape_label_value(value: str) -> str:
    return value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")


class _Instrument:
    """Shared plumbing: name/help, the label dimension(s), the lock.

    ``label`` names one dimension; a tuple of names declares several, and a
    series is then addressed by the tuple of its values (``""`` = unset).
    """

    kind = "untyped"

    def __init__(self, name: str, help_text: str, label: Label, lock: threading.RLock):
        self.name = sanitize_metric_name(name)
        self.help = help_text
        self.label = label
        self._lock = lock

    def _bucket(self, values: Dict[Label, Any], label: Label) -> Label:
        """Resolve the storage key for *label*, applying the cardinality cap."""
        if label is None:
            return None
        if label in values or len(values) < MAX_LABEL_VALUES:
            return label
        return OVERFLOW_LABEL


class Counter(_Instrument):
    kind = "counter"

    def __init__(self, name: str, help_text: str, label: Label, lock: threading.RLock):
        super().__init__(name, help_text, label, lock)
        self._values: Dict[Optional[str], float] = {}

    def inc(self, amount: float = 1.0, label: Label = None) -> None:
        with self._lock:
            key = self._bucket(self._values, label)
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, label: Label = None) -> float:
        with self._lock:
            return self._values.get(label, 0.0)

    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())

    def values(self) -> Dict[Optional[str], float]:
        with self._lock:
            return dict(self._values)


class Gauge(_Instrument):
    kind = "gauge"

    def __init__(self, name: str, help_text: str, label: Label, lock: threading.RLock):
        super().__init__(name, help_text, label, lock)
        self._values: Dict[Optional[str], float] = {}

    def set(self, value: float, label: Label = None) -> None:
        with self._lock:
            self._values[self._bucket(self._values, label)] = value

    def inc(self, amount: float = 1.0, label: Label = None) -> None:
        with self._lock:
            key = self._bucket(self._values, label)
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, label: Label = None) -> None:
        self.inc(-amount, label=label)

    def value(self, label: Label = None) -> float:
        with self._lock:
            return self._values.get(label, 0.0)

    def values(self) -> Dict[Optional[str], float]:
        with self._lock:
            return dict(self._values)


class Histogram(_Instrument):
    """Monotonic count/sum plus a bounded reservoir for recent percentiles."""

    kind = "histogram"
    quantiles = (0.5, 0.95, 0.99)

    def __init__(self, name: str, help_text: str, label: Label, lock: threading.RLock):
        super().__init__(name, help_text, label, lock)
        self._series: Dict[Optional[str], Dict[str, Any]] = {}

    def observe(self, value: float, label: Label = None) -> None:
        with self._lock:
            key = self._bucket(self._series, label)
            series = self._series.get(key)
            if series is None:
                series = {"count": 0, "sum": 0.0, "reservoir": deque(maxlen=RESERVOIR_SIZE)}
                self._series[key] = series
            series["count"] += 1
            series["sum"] += value
            series["reservoir"].append(value)

    @staticmethod
    def _percentile(sorted_values: List[float], quantile: float) -> float:
        if not sorted_values:
            return 0.0
        rank = max(0, math.ceil(quantile * len(sorted_values)) - 1)
        return sorted_values[rank]

    def snapshot(self) -> Dict[Optional[str], Dict[str, float]]:
        with self._lock:
            frozen = {
                key: (series["count"], series["sum"], sorted(series["reservoir"]))
                for key, series in self._series.items()
            }
        return {
            key: {
                "count": count,
                "sum": total,
                **{
                    f"p{int(quantile * 100)}": self._percentile(values, quantile)
                    for quantile in self.quantiles
                },
            }
            for key, (count, total, values) in frozen.items()
        }


class MetricsRegistry:
    """Named instruments + snapshot providers behind one lock."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._instruments: Dict[str, _Instrument] = {}
        self._providers: Dict[str, Callable[[], Any]] = {}

    # -- construction (idempotent by name) ------------------------------

    def _get_or_create(self, cls, name: str, help_text: str, label: Label):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}, "
                        f"not {cls.kind}"
                    )
                return existing
            instrument = cls(name, help_text, label, self._lock)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help_text: str = "", label: Label = None) -> Counter:
        return self._get_or_create(Counter, name, help_text, label)

    def gauge(self, name: str, help_text: str = "", label: Label = None) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, label)

    def histogram(self, name: str, help_text: str = "", label: Label = None) -> Histogram:
        return self._get_or_create(Histogram, name, help_text, label)

    def register_provider(self, name: str, fn: Callable[[], Any]) -> None:
        """Register a zero-cost snapshot source, scraped only at export time."""
        with self._lock:
            self._providers[name] = fn

    def provider_snapshot(self, name: str) -> Any:
        with self._lock:
            fn = self._providers.get(name)
        return fn() if fn is not None else None

    # -- export ----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            instruments = list(self._instruments.values())
            providers = list(self._providers.items())
        out: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}, "providers": {}}
        for instrument in instruments:
            if isinstance(instrument, Histogram):
                values: Dict[str, Any] = {
                    _series_key(key): series for key, series in instrument.snapshot().items()
                }
                section = "histograms"
            else:
                values = {
                    _series_key(key): value for key, value in instrument.values().items()
                }
                section = "counters" if isinstance(instrument, Counter) else "gauges"
            out[section][instrument.name] = {
                "help": instrument.help,
                "label": instrument.label,
                "values": values,
            }
        for name, fn in providers:
            out["providers"][name] = fn()
        return out

    def to_prometheus(self) -> str:
        """Render the registry in the Prometheus text exposition format."""
        snapshot = self.to_dict()
        lines: List[str] = []

        def sample(name: str, labels: Dict[str, str], value: float) -> None:
            if labels:
                body = ",".join(
                    f'{key}="{escape_label_value(str(val))}"' for key, val in labels.items()
                )
                lines.append(f"{name}{{{body}}} {_format_value(value)}")
            else:
                lines.append(f"{name} {_format_value(value)}")

        for name, entry in snapshot["counters"].items():
            lines.append(f"# HELP {name} {entry['help']}")
            lines.append(f"# TYPE {name} counter")
            for key, value in sorted(entry["values"].items()):
                labels = _series_labels(entry["label"], key)
                sample(name, labels, value)
        for name, entry in snapshot["gauges"].items():
            lines.append(f"# HELP {name} {entry['help']}")
            lines.append(f"# TYPE {name} gauge")
            for key, value in sorted(entry["values"].items()):
                labels = _series_labels(entry["label"], key)
                sample(name, labels, value)
        for name, entry in snapshot["histograms"].items():
            lines.append(f"# HELP {name} {entry['help']}")
            lines.append(f"# TYPE {name} summary")
            for key, series in sorted(entry["values"].items()):
                labels = _series_labels(entry["label"], key)
                for quantile in Histogram.quantiles:
                    sample(name, {**labels, "quantile": str(quantile)}, series[f"p{int(quantile * 100)}"])
                sample(f"{name}_sum", labels, series["sum"])
                sample(f"{name}_count", labels, series["count"])
        for provider, value in snapshot["providers"].items():
            for path, leaf in _flatten_numeric(value):
                name = sanitize_metric_name(
                    "repro_" + provider + (("_" + path) if path else "")
                )
                lines.append(f"# TYPE {name} gauge")
                sample(name, {}, float(leaf))
        return "\n".join(lines) + "\n"


def _series_key(key: Any) -> str:
    """A series' label value(s) as one JSON-friendly string."""
    if key is None:
        return ""
    return ",".join(key).rstrip(",") if isinstance(key, tuple) else key  # trailing unset values drop


def _series_labels(names: Any, key: str) -> Dict[str, str]:
    """Exposition labels of one series from :func:`_series_key`'s string."""
    if not names or key == "":
        return {}
    if isinstance(names, str):
        return {names: key}
    return {name: value for name, value in zip(names, key.split(",")) if value}


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


def _flatten_numeric(value: Any, prefix: str = "") -> List[Tuple[str, float]]:
    """Numeric leaves of a nested provider snapshot, as (path, value) pairs."""
    if isinstance(value, bool):
        return [(prefix, float(value))]
    if isinstance(value, (int, float)):
        return [(prefix, float(value))]
    if isinstance(value, dict):
        leaves: List[Tuple[str, float]] = []
        for key in value:
            path = f"{prefix}_{key}" if prefix else str(key)
            leaves.extend(_flatten_numeric(value[key], path))
        return leaves
    return []


def parse_prometheus(text: str) -> Dict[str, Any]:
    """Parse Prometheus text exposition back into families + samples.

    Returns ``{"families": {name: type}, "samples": [(name, labels, value)]}``.
    This is the other half of the export round-trip test; it is not a general
    Prometheus client, but it understands everything ``to_prometheus`` emits
    (HELP/TYPE lines, escaped label values, integer and float samples).
    """
    families: Dict[str, str] = {}
    samples: List[Tuple[str, Dict[str, str], float]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, family_type = rest.partition(" ")
            families[name] = family_type.strip()
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"unparseable exposition line: {raw!r}")
        name, label_body, value_text = match.groups()
        labels: Dict[str, str] = {}
        if label_body:
            for label_match in _LABEL_PAIR.finditer(label_body):
                labels[label_match.group(1)] = _unescape_label_value(label_match.group(2))
        samples.append((name, labels, float(value_text)))
    return {"families": families, "samples": samples}
