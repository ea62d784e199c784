"""The ledger's own tests, on the ``--smoke`` size.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger/tests``; the
tier-1 suite does not collect them.  Every run is a subprocess of the real
command line, because what is under test includes the exit status and what
the process leaves behind.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from benchmarks.ledger.spec import EXACT_COUNTS, REPO_ROOT, WORKLOADS, benchmark_json

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
COMMAND = [sys.executable, "-m", "benchmarks.ledger"]


def run_ledger(*arguments: str, prelude: str = "") -> subprocess.CompletedProcess:
    """Run the command line (optionally after *prelude* patches) in its own session."""
    if prelude:
        script = (
            "import sys\n"
            f"sys.path[:0] = [{os.path.join(REPO_ROOT, 'src')!r}, {REPO_ROOT!r}]\n"
            f"{prelude}\n"
            "from benchmarks.ledger.driver import main\n"
            "if __name__ == '__main__':\n"
            f"    sys.exit(main({list(arguments)!r}))\n"
        )
        command = [sys.executable, "-c", script]
    else:
        command = COMMAND + list(arguments)
    return subprocess.run(
        command, cwd=REPO_ROOT, capture_output=True, text=True, timeout=300, start_new_session=True
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-1])


def session_members(session: int) -> list:
    """Pids whose session id is *session* (the child started its own)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == session:
            members.append(int(entry))
    return members


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced smoke runs of one workload with the same seed."""
    runs = [run_ledger("--workload", "reopt_feedback", "--smoke", "--trace", "1") for _ in range(2)]
    for completed in runs:
        assert completed.returncode == 0, completed.stderr
    return [result_of(completed) for completed in runs]


def test_benchmark_json_is_well_formed():
    document = benchmark_json()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert document["paths"] == ["benchmarks/ledger"]
    assert [entry["name"] for entry in document["workloads"]] == list(WORKLOADS)
    names = [entry["name"] for entry in document["end_to_end"] + document["per_layer"]]
    assert len(names) == len(set(names))
    for entry in document["end_to_end"] + document["per_layer"]:
        assert NAME.fullmatch(entry["name"]), entry
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    assert all(0 < entry["bound"] <= 0.25 for entry in document["end_to_end"])
    assert {"setup_s"} <= {entry["name"] for entry in document["end_to_end"]}
    assert EXACT_COUNTS <= {entry["name"] for entry in document["per_layer"]}


def test_untraced_run_reports_every_end_to_end_metric():
    completed = run_ledger("--workload", "served_mix", "--smoke", "--trace", "0")
    assert completed.returncode == 0, completed.stderr
    result = result_of(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {entry["name"]: entry["unit"] for entry in benchmark_json()["end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == declared
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(traced_runs):
    declared = {entry["name"]: entry["unit"] for entry in benchmark_json()["per_layer"]}
    for result in traced_runs:
        assert result["correct"]
        assert {name: entry["unit"] for name, entry in result["metrics"].items()} == declared
    assert traced_runs[0]["metrics"]["optimizer.scratch_equals_incremental"]["value"] == 1.0


def test_exact_counts_repeat(traced_runs):
    first, second = (run["metrics"] for run in traced_runs)
    for name in sorted(EXACT_COUNTS):
        assert first[name]["value"] == second[name]["value"], name


def test_a_wrong_row_is_counted_and_fails_the_run():
    prelude = (
        "from benchmarks.tpch import oracle\n"
        "real = oracle.SqliteOracle.run\n"
        "def wrong(self, sql):\n"
        "    rows = real(self, sql)\n"
        "    return rows[:-1] if 'l_returnflag' in sql else rows\n"
        "oracle.SqliteOracle.run = wrong\n"
    )
    completed = run_ledger(
        "--workload", "tpch_analytic", "--smoke", "--trace", "0", prelude=prelude
    )
    assert completed.returncode != 0
    result = result_of(completed)
    assert not result["correct"] and result["failed"] > 0
    assert "differs from sqlite3" in completed.stderr


def test_parallel_run_leaves_nothing_behind(tmp_path):
    before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    report = tmp_path / "report.json"
    process = subprocess.Popen(
        COMMAND + ["--workload", "tpch_parallel", "--smoke", "--trace", "1", "--report", str(report)],
        cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    _, errors = process.communicate(timeout=300)
    assert process.returncode == 0, errors
    # The child led its own session: anything it left behind is still in it.
    assert session_members(process.pid) == []
    after = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    assert after <= before
    assert not os.path.exists(os.path.join(REPO_ROOT, "benchmarks", "ledger", ".work"))
    document = json.loads(report.read_text())
    assert document["workloads"]["tpch_parallel"]["failed"] == 0
    assert {"nproc", "python", "numpy", "platform"} <= set(document["environment"])


def test_drifted_inputs_fail_the_pin():
    from benchmarks.ledger.dataset import Checks
    from benchmarks.ledger.driver import check_pin
    from benchmarks.ledger.spec import DEFAULT_SEED, PINS_PATH

    with open(PINS_PATH) as handle:
        pin = json.load(handle)["tpch_analytic"]
    checks = Checks()
    check_pin("tpch_analytic", DEFAULT_SEED, pin, checks)
    check_pin("tpch_analytic", DEFAULT_SEED + 1, "0" * 64, checks)
    assert checks.failed == 0
    check_pin("tpch_analytic", DEFAULT_SEED, "0" * 64, checks)
    check_pin("tpch_analytic", DEFAULT_SEED + 1, pin, checks)
    assert checks.failed == 2 and "workload drift" in checks.messages[0]


def test_compare_applies_bounds_and_exact_counts(tmp_path):
    report = tmp_path / "a.json"
    completed = run_ledger(
        "--workload", "served_mix", "--smoke", "--trace", "0", "--report", str(report)
    )
    assert completed.returncode == 0, completed.stderr
    same = run_ledger("--compare", str(report), str(report))
    assert same.returncode == 0, same.stdout
    document = json.loads(report.read_text())
    document["workloads"]["served_mix"]["end_to_end"]["sweep_ms"]["value"] *= 1.5
    slower = tmp_path / "b.json"
    slower.write_text(json.dumps(document))
    worse = run_ledger("--compare", str(report), str(slower))
    assert worse.returncode == 1
    assert "sweep_ms" in worse.stdout and "WORSE" in worse.stdout


def test_another_seed_changes_the_inputs(tmp_path):
    digests = []
    for seed in ("19", "20"):
        report = tmp_path / f"seed{seed}.json"
        completed = run_ledger(
            "--workload", "served_mix", "--smoke", "--seed", seed, "--report", str(report)
        )
        assert completed.returncode == 0, completed.stderr
        digests.append(json.loads(report.read_text())["workloads"]["served_mix"]["digest"])
    assert digests[0] != digests[1]
