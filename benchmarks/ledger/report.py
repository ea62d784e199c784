"""Printing metric tables, the JSON report, and ``--compare``."""

from __future__ import annotations

import json
import os
import platform
from typing import Dict, List

from benchmarks.ledger.spec import EXACT_COUNTS, metric_table


def environment() -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def with_units(section: str, values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """Attach ``BENCHMARK.json``'s units; the key sets must agree exactly."""
    declared = {entry["name"]: entry["unit"] for entry in metric_table(section)}
    if set(declared) != set(values):
        missing = sorted(set(declared) - set(values))
        extra = sorted(set(values) - set(declared))
        raise RuntimeError(f"{section}: not measured {missing}, not declared {extra}")
    return {name: {"value": values[name], "unit": declared[name]} for name in declared}


def format_metrics(title: str, metrics: Dict[str, Dict[str, object]]) -> str:
    width = max(len(name) for name in metrics)
    lines = [title]
    for name, entry in metrics.items():
        lines.append(f"  {name:<{width}}  {entry['value']:>14.4f} {entry['unit']}")
    return "\n".join(lines)


def write_report(path: str, report: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def compare(path_a: str, path_b: str) -> int:
    """Do two reports agree within the bounds?  Returns the exit status.

    End-to-end metrics may differ by at most their bound (as a share of
    A's value, either direction); starred counts must be equal; the other
    per-layer metrics are printed side by side and never fail.
    """
    with open(path_a) as handle:
        report_a = json.load(handle)
    with open(path_b) as handle:
        report_b = json.load(handle)
    bounds = {entry["name"]: entry for entry in metric_table("end_to_end")}
    disagreements: List[str] = []
    for workload in sorted(set(report_a["workloads"]) | set(report_b["workloads"])):
        side_a = report_a["workloads"].get(workload)
        side_b = report_b["workloads"].get(workload)
        if side_a is None or side_b is None:
            disagreements.append(f"{workload}: present in one report only")
            continue
        if side_a["digest"] != side_b["digest"]:
            disagreements.append(f"{workload}: input digests differ (seed, scale or drift)")
        for side, label in ((side_a, "A"), (side_b, "B")):
            if side["failed"]:
                disagreements.append(f"{workload}: {side['failed']} failed operations in {label}")
        print(f"== {workload}")
        print(f"  {'metric':<44} {'A':>14} {'B':>14}  {'B vs A':>8}")
        for section in ("end_to_end", "per_layer"):
            values_a, values_b = side_a.get(section, {}), side_b.get(section, {})
            for name in values_a:
                if name not in values_b:
                    disagreements.append(f"{workload}: {name} missing from B")
                    continue
                a, b = values_a[name]["value"], values_b[name]["value"]
                change = (b - a) / a if a else 0.0
                verdict = ""
                if section == "end_to_end":
                    bound = bounds[name]["bound"]
                    worse = change > 0 if bounds[name]["better"] == "lower" else change < 0
                    if abs(change) > bound:
                        verdict = f"  {'WORSE' if worse else 'BETTER'} beyond {bound:.0%}"
                        disagreements.append(f"{workload}: {name} {a:.4f} -> {b:.4f} ({change:+.1%})")
                elif name in EXACT_COUNTS and a != b:
                    verdict = "  COUNT DIFFERS"
                    disagreements.append(f"{workload}: {name} must repeat exactly: {a} != {b}")
                print(f"  {name:<44} {a:>14.4f} {b:>14.4f}  {change:>+8.1%}{verdict}")
    if disagreements:
        print("\nDISAGREE:")
        for line in disagreements:
            print(f"  {line}")
        return 1
    print("\nagree within bounds")
    return 0
