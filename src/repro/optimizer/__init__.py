"""Query optimizers: the declarative incremental optimizer and baselines.

Public entry points:

* :class:`DeclarativeOptimizer` — the paper's contribution: rule-based
  optimizer whose state is incrementally maintainable; supports
  :meth:`~DeclarativeOptimizer.optimize` and
  :meth:`~DeclarativeOptimizer.reoptimize`.
* :class:`VolcanoOptimizer` / :class:`SystemROptimizer` — procedural
  baselines sharing the same cost model and enumeration functions.
* :class:`PruningConfig` — which of the paper's pruning techniques (aggregate
  selection, tuple source suppression, reference counting, recursive
  bounding) are active; presets match the paper's experiment legends.
"""

from repro.optimizer.baselines import SystemROptimizer, VolcanoOptimizer
from repro.optimizer.declarative import DeclarativeOptimizer, OptimizationResult
from repro.optimizer.metrics import OptimizationMetrics
from repro.optimizer.pruning import BoundsManager
from repro.optimizer.search_space import EnumerationOptions, SearchSpaceEnumerator
from repro.optimizer.tables import (
    AndKey,
    OrKey,
    PruningConfig,
    SearchSpaceEntry,
)

__all__ = [
    "DeclarativeOptimizer",
    "OptimizationResult",
    "OptimizationMetrics",
    "SystemROptimizer",
    "VolcanoOptimizer",
    "BoundsManager",
    "EnumerationOptions",
    "SearchSpaceEnumerator",
    "AndKey",
    "OrKey",
    "PruningConfig",
    "SearchSpaceEntry",
]
