"""Shared plumbing for the procedural baseline optimizers.

The baselines reuse the same enumeration function (``Fn_split``), summaries
and cost model as the declarative optimizer — only search strategy and pruning
differ, matching the paper's experimental setup ("wherever possible we used
common code across the implementations").
"""

from __future__ import annotations

from typing import Optional

from repro.catalog.catalog import Catalog
from repro.cost.cost_model import CostModel, CostParameters
from repro.cost.overrides import StatisticsDelta, StatisticsOverlay
from repro.optimizer.search_space import EnumerationOptions, SearchSpaceEnumerator
from repro.optimizer.tables import OrKey
from repro.relational.expressions import Expression
from repro.relational.properties import ANY_PROPERTY
from repro.relational.query import Query


class ProceduralOptimizerBase:
    """Common state and helpers for Volcano- and System-R-style optimizers."""

    name = "procedural"

    def __init__(
        self,
        query: Query,
        catalog: Catalog,
        cost_parameters: Optional[CostParameters] = None,
        enumeration: Optional[EnumerationOptions] = None,
        overlay: Optional[StatisticsOverlay] = None,
    ) -> None:
        self.query = query
        self.catalog = catalog
        self.cost_model = CostModel(query, catalog, parameters=cost_parameters, overlay=overlay)
        self.enumerator = SearchSpaceEnumerator(query, catalog, enumeration)
        self.root_key = OrKey(query.root_expression, ANY_PROPERTY)

    # -- statistics updates (shared with the declarative optimizer API) -----

    def update_join_selectivity(self, expression: Expression, factor: float) -> StatisticsDelta:
        return self.cost_model.overlay.set_selectivity_factor(expression, factor)

    def update_scan_cost(self, alias: str, factor: float) -> StatisticsDelta:
        return self.cost_model.overlay.set_scan_cost_factor(alias, factor)

    def update_table_cardinality(self, alias: str, factor: float) -> StatisticsDelta:
        return self.cost_model.overlay.set_table_cardinality_factor(alias, factor)

    def invalidate_statistics(self) -> None:
        """Drop cached summaries so the next optimization sees fresh estimates."""
        self.cost_model.summaries.invalidate_all()
