"""Relational schema objects: data types, columns, tables, indexes.

The schema describes the *structure* of the database.  Statistics about the
contents (cardinalities, histograms) live in :mod:`repro.catalog`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.errors import SchemaError


class DataType(Enum):
    """Column data types supported by the engine and the cost model."""

    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    DATE = "date"

    @property
    def width_bytes(self) -> int:
        """Approximate on-disk width used by the I/O cost model: 32 bytes for
        a string, 8 for every other type.  (An identity test, not a lookup:
        the cost model asks for every column of every relation it sizes.)"""
        return 32 if self is DataType.STRING else 8


@dataclass(frozen=True)
class Column:
    """A named, typed column of a table."""

    name: str
    data_type: DataType = DataType.INTEGER

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}:{self.data_type.value}"


#: Physical index kinds: a hash index serves equality lookups and join
#: probes; an ordered index additionally serves ranges and sorted delivery.
INDEX_KINDS = ("hash", "ordered")


@dataclass(frozen=True)
class Index:
    """A secondary (or primary) index over a single column of a table.

    ``kind`` names the physical structure backing the index: ``"ordered"``
    (sorted key/row-id arrays — points, ranges and key-order iteration) or
    ``"hash"`` (buckets — equality only).
    """

    name: str
    table: str
    column: str
    unique: bool = False
    clustered: bool = False
    kind: str = "ordered"

    def __post_init__(self) -> None:
        if self.kind not in INDEX_KINDS:
            raise SchemaError(
                f"unknown index kind {self.kind!r} for index {self.name!r} "
                f"(expected one of {', '.join(INDEX_KINDS)})"
            )


@dataclass
class Table:
    """A base relation: ordered columns plus optional key information."""

    name: str
    columns: List[Column] = field(default_factory=list)
    primary_key: Optional[str] = None

    def __post_init__(self) -> None:
        names = [column.name for column in self.columns]
        if len(names) != len(set(names)):
            raise SchemaError(f"duplicate column names in table {self.name!r}")
        if self.primary_key is not None and self.primary_key not in names:
            raise SchemaError(f"primary key {self.primary_key!r} is not a column of {self.name!r}")

    @property
    def column_names(self) -> List[str]:
        return [column.name for column in self.columns]

    def column(self, name: str) -> Column:
        for column in self.columns:
            if column.name == name:
                return column
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        return any(column.name == name for column in self.columns)

    @property
    def row_width_bytes(self) -> int:
        """Approximate width of one row, used to convert rows to pages."""
        return sum(column.data_type.width_bytes for column in self.columns)


class Schema:
    """A collection of tables and indexes, addressable by name."""

    def __init__(
        self,
        tables: Iterable[Table] = (),
        indexes: Iterable[Index] = (),
    ) -> None:
        self._tables: Dict[str, Table] = {}
        self._indexes: Dict[str, Index] = {}
        for table in tables:
            self.add_table(table)
        for index in indexes:
            self.add_index(index)

    # -- tables ---------------------------------------------------------

    def add_table(self, table: Table) -> None:
        if table.name in self._tables:
            raise SchemaError(f"table {table.name!r} already defined")
        self._tables[table.name] = table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    @property
    def tables(self) -> List[Table]:
        return list(self._tables.values())

    @property
    def table_names(self) -> List[str]:
        return list(self._tables)

    # -- indexes --------------------------------------------------------

    def add_index(self, index: Index) -> None:
        if index.name in self._indexes:
            raise SchemaError(f"index {index.name!r} already defined")
        table = self.table(index.table)
        if not table.has_column(index.column):
            raise SchemaError(
                f"index {index.name!r} refers to unknown column "
                f"{index.table}.{index.column}"
            )
        self._indexes[index.name] = index

    def index(self, name: str) -> Index:
        try:
            return self._indexes[name]
        except KeyError:
            raise SchemaError(f"unknown index {name!r}") from None

    def has_index(self, name: str) -> bool:
        return name in self._indexes

    def drop_index(self, name: str) -> Index:
        """Remove (and return) the named index."""
        index = self.index(name)
        del self._indexes[name]
        return index

    def indexes_on(self, table: str) -> List[Index]:
        return [index for index in self._indexes.values() if index.table == table]

    def indexes_on_column(self, table: str, column: str) -> List[Index]:
        return [
            index
            for index in self._indexes.values()
            if index.table == table and index.column == column
        ]

    def index_on_column(self, table: str, column: str) -> Optional[Index]:
        for index in self._indexes.values():
            if index.table == table and index.column == column:
                return index
        return None

    @property
    def indexes(self) -> List[Index]:
        return list(self._indexes.values())

    # -- convenience ----------------------------------------------------

    def resolve_column(self, table: str, column: str) -> Tuple[Table, Column]:
        tbl = self.table(table)
        return tbl, tbl.column(column)
