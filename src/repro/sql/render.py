"""Plan rendering shared by the DB-API layer and the legacy Session facade.

``EXPLAIN`` output is produced here: one operator per line with estimated
cost/cardinality, and — when an :class:`~repro.engine.executor.ExecutionResult`
is supplied (``EXPLAIN ANALYZE``) — the observed row count next to each
estimate, which is exactly the estimated-vs-observed delta the paper's
re-optimizer consumes.
"""

from __future__ import annotations

from typing import List, Optional

from repro.engine.executor import ExecutionResult
from repro.optimizer.declarative import OptimizationResult
from repro.relational.plan import PhysicalPlan
from repro.relational.query import Query


def render_plan(
    plan: PhysicalPlan,
    execution: Optional[ExecutionResult] = None,
    query: Optional[Query] = None,
) -> str:
    """Render a physical plan, one operator per line.

    With *execution*, each line shows the observed row count next to the
    estimate (``EXPLAIN ANALYZE`` style).  With *query*, each scan line shows
    the pretty-printed predicate tree pushed down to it (``filter: ...``).
    """
    lines: List[str] = []
    operator_keys = iter(plan.operator_keys())

    def visit(node: PhysicalPlan, depth: int) -> None:
        operator_key = next(operator_keys)
        prop = "" if node.output_property.is_any else f" [{node.output_property}]"
        index_name = node.detail("index")
        access = f" using {index_name}" if index_name is not None else ""
        line = (
            f"{'  ' * depth}{node.operator.value} {node.expression}{prop}{access}"
            f"  (cost={node.total_cost:.3f}, est_rows={node.cardinality:.0f}"
        )
        if execution is not None:
            observed = execution.operator_cardinalities.get(operator_key)
            line += f", actual_rows={observed if observed is not None else '?'}"
        line += ")"
        if query is not None and node.operator.is_scan:
            predicates = query.filters_for(node.expression.sole_alias)
            if predicates:
                rendered = " AND ".join(
                    f"({predicate})" if len(predicates) > 1 else str(predicate)
                    for predicate in predicates
                )
                line += f"  filter: {rendered}"
        lines.append(line)
        for child in node.children:
            visit(child, depth + 1)

    visit(plan, 0)
    return "\n".join(lines)


def explain_header(query: Query, optimization: OptimizationResult) -> str:
    """The one-line summary above an EXPLAIN plan (cost, order by, limit)."""
    extras = []
    if query.order_by:
        extras.append("order by " + ", ".join(str(item) for item in query.order_by))
    if query.limit is not None:
        extras.append(f"limit {query.limit}")
    suffix = f"  ({'; '.join(extras)})" if extras else ""
    return f"{query.name}: estimated cost {optimization.cost:.3f}{suffix}\n"


def explain_footer(execution: ExecutionResult, full_collections: int = 0) -> str:
    """The timing/engine line below an EXPLAIN ANALYZE plan.

    *full_collections* — full cyclic-GC collections that ran during the
    execution — is shown next to the time when not zero: a pause inside it
    that no operator caused.
    """
    footer = f"\nexecution time: {execution.elapsed_seconds * 1000:.2f} ms"
    if full_collections:
        footer += f" (gc: {full_collections} full collections)"
    footer += f", output rows: {execution.row_count}, engine: {execution.engine}"
    if execution.workers is not None:
        footer += f", workers={execution.workers}"
    if execution.executor is not None:
        footer += f", executor={execution.executor}"
    # Operator lines are the same on every engine; how the vectorized
    # engines computed the (one) hash aggregate is an engine fact, so it
    # lives here: the typed kernels, or the generic path and why.
    for path in execution.aggregate_paths.values():
        footer += f", aggregate={'kernel' if path == 'kernel' else f'generic({path})'}"
    return footer
