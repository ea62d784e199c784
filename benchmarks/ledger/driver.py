"""Command line of the perf ledger.

Three ways in:

* ``--workload NAME --seed N --seconds S --trace 0|1`` — one pass over one
  workload; the last line of standard output is the result object the
  benchmark contract asks for (end-to-end metrics untraced, per-layer
  metrics traced).
* no ``--workload`` — all four workloads, both passes, every metric printed
  by name with its unit and one JSON report written.
* ``--compare A.json B.json`` — do two reports agree within the bounds?
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from contextlib import closing
from typing import Dict, List, Optional

from benchmarks.ledger import hygiene, layers, report, stages
from benchmarks.ledger.dataset import Checks, Dataset, input_digest, set_up
from benchmarks.ledger.spec import (
    DEFAULT_SEED,
    LEDGER_DIR,
    PINS_PATH,
    SMOKE_SCALE,
    WORK_DIR,
    WORKLOADS,
    Repetitions,
    benchmark_json,
)
from benchmarks.tpch import oracle

#: statements per client the input digest covers, whatever ``--seconds`` is.
DIGEST_STATEMENTS = 256
DEFAULT_REPORT = os.path.join(LEDGER_DIR, "reports", "latest.json")
#: ``--trace`` → the section of ``BENCHMARK.json`` the pass reports.
SECTIONS = {False: "end_to_end", True: "per_layer"}


def end_to_end_pass(
    dataset: Dataset,
    setup_seconds: List[float],
    streams: List[List[stages.Op]],
    reps: Repetitions,
    checks: Checks,
) -> Dict[str, float]:
    """Every end-to-end metric, tracing off."""
    feedback = stages.FeedbackTimings()
    with closing(stages.ParallelSweeps(dataset, checks)) as parallel, closing(
        stages.ServedMix(dataset, streams, reps.rounds)
    ) as served:
        for index in range(reps.rounds):
            # Set-up already ran every query once; no separate warm-up round.
            feedback.add(stages.feedback_round(dataset, checks, check_scratch=index == 0))
            parallel.step()
            served.step()
    served.verify(checks)
    slices = served.slices
    return {
        "setup_s": statistics.median(setup_seconds),
        "sweep_ms": stages.sum_of_medians(feedback.before_ms),
        "query_geomean_ms": stages.geomean_of_medians(feedback.before_ms),
        "sweep_peak_mb": stages.peak_sweep_mb(dataset),
        "plan_cold_ms": statistics.median(feedback.plan_cold_ms),
        "reopt_ms": statistics.median(feedback.reopt_ms),
        "post_reopt_sweep_ms": stages.sum_of_medians(feedback.after_ms),
        # Medians over the separately timed slices of the mix.
        "stmt_p50_ms": statistics.median(part.percentile(0.5) for part in slices),
        "stmt_p95_ms": statistics.median(part.percentile(0.95) for part in slices),
        "stmts_per_s": statistics.median(part.per_second for part in slices),
        "thread_sweep_ms": stages.sum_of_medians(parallel.query_ms["thread"]),
        "process_sweep_ms": stages.sum_of_medians(parallel.query_ms["process"]),
    }


def check_pin(name: str, seed: int, digest: str, checks: Checks) -> None:
    """The recorded inputs must not drift; another seed must change them."""
    with open(PINS_PATH) as handle:
        pin = json.load(handle)[name]
    if seed == DEFAULT_SEED:
        checks.expect(digest == pin, f"workload drift: {name} inputs hash to {digest}, pin is {pin}")
    else:
        checks.expect(digest != pin, f"seed {seed} produced the inputs of seed {DEFAULT_SEED}")


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: Optional[float] = None,
    smoke: bool = False,
    pinned: bool = True,
) -> dict:
    """One pass over one workload; tears everything down before returning.

    *pinned* compares the inputs with ``pins.json``; it only applies at the
    recorded scale.
    """
    workload = WORKLOADS[name]
    reps = Repetitions.for_seconds(seconds, smoke)
    pinned = pinned and scale is None and not smoke
    if scale is None:
        scale = SMOKE_SCALE if smoke else workload.scale
    checks = Checks()
    work = os.path.join(WORK_DIR, str(os.getpid()))
    dataset: Optional[Dataset] = None
    try:
        setup_seconds: List[float] = []
        # Set-up is repeated so that its time is a median; the traced pass
        # does not report it and sets up once.
        for index in range(1 if trace else reps.setups):
            if dataset is not None:
                dataset.close()
            dataset = set_up(workload, scale, seed, os.path.join(work, f"data{index}"), checks)
            setup_seconds.append(dataset.setup_seconds)
        streams = stages.make_streams(dataset, seed, reps.statements_per_client)
        digest = input_digest(
            dataset.directory,
            dataset.queries,
            stages.stream_text([stream[:DIGEST_STATEMENTS] for stream in streams]),
        )
        if pinned:
            check_pin(name, seed, digest, checks)
        if trace:
            values = layers.traced_pass(dataset, reps, streams, checks)
        else:
            values = end_to_end_pass(dataset, setup_seconds, streams, reps, checks)
    finally:
        if dataset is not None:
            dataset.close()
        hygiene.tear_down()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass  # another run is using it
    for leak in hygiene.leaks():
        checks.expect(False, f"left running: {leak}")
    return {
        "digest": digest,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "messages": checks.messages[:20],
        "metrics": report.with_units(SECTIONS[trace], values),
    }


def result_line(outcome: dict) -> str:
    return json.dumps(
        {
            "correct": outcome["failed"] == 0,
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": outcome["metrics"],
        }
    )


def parse_arguments(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=benchmark_json()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, help="one scale factor for every workload")
    parser.add_argument("--smoke", action="store_true", help="SF 0.002, two rounds (tests)")
    parser.add_argument("--report", help=f"JSON report path (all workloads: {DEFAULT_REPORT})")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--write-pins", action="store_true", help="record the input digests")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    arguments = parse_arguments(argv)
    if arguments.compare:
        return report.compare(*arguments.compare)
    hygiene.install_signal_handlers()
    names = [arguments.workload] if arguments.workload else list(WORKLOADS)
    passes = [bool(arguments.trace)] if arguments.workload else [False, True]
    document = {
        "environment": report.environment(),
        "seed": arguments.seed,
        "seconds": arguments.seconds,
        "scale": arguments.scale,
        "smoke": arguments.smoke,
        "skipped": [] if oracle.duckdb_available() else ["reference.duckdb"],
        "workloads": {},
    }
    outcome: dict = {}
    try:
        for name in names:
            merged: dict = {"attempted": 0, "failed": 0, "messages": []}
            for trace in passes:
                outcome = run_workload(
                    name,
                    arguments.seed,
                    arguments.seconds,
                    trace,
                    arguments.scale,
                    arguments.smoke,
                    pinned=not arguments.write_pins,
                )
                section = SECTIONS[trace]
                print(report.format_metrics(f"== {name} ({section})", outcome["metrics"]))
                for message in outcome["messages"]:
                    print(f"  FAILED: {message}", file=sys.stderr)
                merged["digest"] = outcome["digest"]
                merged[section] = outcome["metrics"]
                merged["attempted"] += outcome["attempted"]
                merged["failed"] += outcome["failed"]
                merged["messages"] += outcome["messages"]
            merged["failed_share"] = merged["failed"] / merged["attempted"]
            document["workloads"][name] = merged
    except hygiene.Interrupted as signal_name:
        print(f"interrupted by {signal_name}; torn down", file=sys.stderr)
        return 130
    if arguments.write_pins:
        with open(PINS_PATH) as handle:
            pins = json.load(handle)
        pins.update((name, entry["digest"]) for name, entry in document["workloads"].items())
        report.write_report(PINS_PATH, pins)
    report_path = arguments.report or (None if arguments.workload else DEFAULT_REPORT)
    if report_path:
        report.write_report(report_path, document)
        print(f"report: {report_path}")
    if arguments.workload:
        print(result_line(outcome))
    return 1 if any(entry["failed"] for entry in document["workloads"].values()) else 0
