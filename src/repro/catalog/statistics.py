"""Column- and table-level statistics stored in the catalog."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Mapping, Optional, Sequence, Union

from repro.common.errors import CatalogError
from repro.catalog.histogram import EquiDepthHistogram

Number = Union[int, float]


@dataclass(frozen=True)
class ColumnStats:
    """Statistics for one column of a base table."""

    distinct_count: float
    min_value: Optional[Number] = None
    max_value: Optional[Number] = None
    null_fraction: float = 0.0
    histogram: Optional[EquiDepthHistogram] = None

    def __post_init__(self) -> None:
        if self.distinct_count < 0:
            raise CatalogError("distinct_count must be non-negative")
        if not 0.0 <= self.null_fraction <= 1.0:
            raise CatalogError("null_fraction must be within [0, 1]")

    @classmethod
    def from_values(cls, values: Sequence[Number], bucket_count: int = 16) -> "ColumnStats":
        if not values:
            return cls(distinct_count=0.0)
        histogram = EquiDepthHistogram.from_values(values, bucket_count)
        return cls(
            distinct_count=float(len(set(values))),
            min_value=min(values),
            max_value=max(values),
            histogram=histogram,
        )

    def scaled(self, factor: float) -> "ColumnStats":
        """Return stats for a filtered/joined output with *factor* of the rows."""
        factor = max(0.0, min(1.0, factor))
        return replace(self, distinct_count=max(1.0, self.distinct_count * factor))


@dataclass
class TableStats:
    """Statistics for a base table: row count plus per-column statistics."""

    row_count: float
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.row_count < 0:
            raise CatalogError("row_count must be non-negative")

    def column(self, name: str) -> ColumnStats:
        try:
            return self.columns[name]
        except KeyError:
            raise CatalogError(f"no statistics for column {name!r}") from None

    def has_column(self, name: str) -> bool:
        return name in self.columns

    def distinct(self, column: str, default: Optional[float] = None) -> float:
        """Number of distinct values, defaulting to row_count when unknown."""
        if column in self.columns:
            return max(1.0, self.columns[column].distinct_count)
        if default is not None:
            return default
        return max(1.0, self.row_count)

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Mapping[str, object]],
        columns: Optional[Iterable[str]] = None,
        bucket_count: int = 16,
    ) -> "TableStats":
        """Compute statistics from in-memory rows (dicts keyed by column name)."""
        if not rows:
            return cls(row_count=0.0)
        names = list(columns) if columns is not None else list(rows[0].keys())
        pivoted = {name: [row.get(name) for row in rows] for name in names}
        return cls.from_columns(pivoted, len(rows), bucket_count=bucket_count)

    @classmethod
    def from_columns(
        cls,
        columns: Mapping[str, Iterable[object]],
        row_count: int,
        column_names: Optional[Iterable[str]] = None,
        bucket_count: int = 16,
    ) -> "TableStats":
        """Compute statistics from column arrays (name → values, any sequence).

        *column_names* picks the columns to describe (default: every column);
        a named column missing from *columns* reads as all NULL.  Numeric
        values get min/max/histogram statistics; a column without any gets a
        distinct count alone.
        """
        if not row_count:
            return cls(row_count=0.0)
        names = list(column_names) if column_names is not None else list(columns)
        column_stats: Dict[str, ColumnStats] = {}
        for name in names:
            values = columns.get(name)
            if values is None:
                column_stats[name] = ColumnStats(distinct_count=1.0)
                continue
            numbers = [value for value in values if isinstance(value, (int, float))]
            if numbers:
                column_stats[name] = ColumnStats.from_values(numbers, bucket_count)
            else:
                column_stats[name] = ColumnStats(distinct_count=float(len(set(values))))
        return cls(row_count=float(row_count), columns=column_stats)
