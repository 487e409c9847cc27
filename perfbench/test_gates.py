"""Tests of the benchmark's correctness gates: a corrupted output must count
as a failed task.

    python3 -m pytest perfbench/test_gates.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Task, Workload  # noqa: E402

REF = workloads.reference()


def write_scan(out: Path, grid: list[list[float]], onsets: dict[float, str] | None = None) -> None:
    lines = ["flux_theta,g,value"] + [f"{a:.17g},{b:.17g},{v:.17g}" for a, b, v in grid]
    (out / "grid_0123.csv").write_text("\n".join(lines) + "\n")
    thetas = sorted({row[0] for row in grid})
    if onsets is None:
        onsets = {t: f"{workloads.RING_L * math.sin(t):.17g}" for t in thetas}
    rows = ["flux_theta,onset_g"] + [f"{t:.17g},{onsets[t]}" for t in thetas]
    (out / "onset_0123.csv").write_text("\n".join(rows) + "\n")


def test_scan_gate_accepts_reference(tmp_path):
    write_scan(tmp_path, REF["ring_scan_grid"])
    assert workloads.check_scan(tmp_path, REF["ring_scan_grid"]) == []


@pytest.mark.parametrize("value", [0.01, math.nan])
def test_scan_gate_rejects_one_changed_point(tmp_path, value):
    grid = [list(row) for row in REF["ring_scan_grid"]]
    grid[17][2] = value
    write_scan(tmp_path, grid)
    assert workloads.check_scan(tmp_path, REF["ring_scan_grid"])


def test_scan_gate_rejects_far_or_missing_onset(tmp_path):
    thetas = sorted({row[0] for row in REF["ring_scan_grid"]})
    onsets = {t: f"{1.2 * workloads.RING_L * math.sin(t):.17g}" for t in thetas}
    onsets[thetas[0]] = "no onset"
    write_scan(tmp_path, REF["ring_scan_grid"], onsets)
    assert len(workloads.check_scan(tmp_path, REF["ring_scan_grid"])) == len(thetas)


def write_criterion(out: Path, window, violations=()) -> None:
    doc = {"window": window, "violations": [{"index": i, "reE": 0.0, "imE": 0.1} for i in violations]}
    (out / "criterion.json").write_text(json.dumps(doc))


def test_criterion_gate(tmp_path):
    write_criterion(tmp_path, [[-1.5, -1.0]])
    assert workloads.check_criterion(tmp_path) == []
    write_criterion(tmp_path, [[-1.5, -1.0 + 1e-9]])
    assert workloads.check_criterion(tmp_path)
    write_criterion(tmp_path, [[-1.5, -1.0]], violations=[3])
    assert workloads.check_criterion(tmp_path)
    write_criterion(tmp_path, [[-1.5, -1.0], [0.5, 1.0]])
    assert workloads.check_criterion(tmp_path)


def write_nonbloch(out: Path, intervals, det: float) -> None:
    doc = {"broken_g_intervals": intervals, "max_normalized_boundary_det": det}
    (out / "nonbloch.json").write_text(json.dumps(doc))


def test_nonbloch_gate(tmp_path):
    want = REF["ring_theory_broken_g_intervals"]["100"]
    write_nonbloch(tmp_path, want, 1e-11)
    assert workloads.check_nonbloch(tmp_path, want) == []
    write_nonbloch(tmp_path, [[want[0][0] + workloads.G_CELL, want[0][1]]], 1e-11)
    assert workloads.check_nonbloch(tmp_path, want) == []  # one cell is allowed
    write_nonbloch(tmp_path, [[want[0][0] + 2 * workloads.G_CELL, want[0][1]]], 1e-11)
    assert workloads.check_nonbloch(tmp_path, want)
    write_nonbloch(tmp_path, want, 1e-5)
    assert workloads.check_nonbloch(tmp_path, want)


@pytest.mark.parametrize("error, ok", [("0.025", True), ("0.2", False), ("nan", False)])
def test_effective_gate(tmp_path, error, ok):
    rows = ["theta,phi,g_c_predicted,g_c_printed_form,g_c_observed,relative_error"]
    rows += [f"{t!r},1.57,0.2,4.4,0.19,{error}" for t in workloads.EFFECTIVE_THETAS]
    (tmp_path / "thresholds.csv").write_text("\n".join(rows) + "\n")
    assert (workloads.check_effective(tmp_path) == []) is ok


def test_probe_gate(tmp_path):
    mags = [0.5] * workloads.N_PROBES
    (tmp_path / "probes.json").write_text(json.dumps({"normalized_magnitude": mags}))
    assert workloads.check_probes(tmp_path) == []
    mags[42] = 1e-4
    (tmp_path / "probes.json").write_text(json.dumps({"normalized_magnitude": mags}))
    assert workloads.check_probes(tmp_path)


def test_runner_counts_corrupted_output_as_failed(tmp_path):
    """The real obc task at L = 100, once as is and once with the window
    edge shifted after the program wrote it."""
    run.import_program()
    task = workloads.obc_criterion(tmp_path, seed=0).tasks[0]
    assert task.name == "criterion_L100_g0.3"

    def corrupted(out: Path) -> int:
        code = task.run(out)
        doc = json.loads((out / "criterion.json").read_text())
        doc["window"][0][1] += 1e-6
        (out / "criterion.json").write_text(json.dumps(doc))
        return code

    def crashing(out: Path) -> int:
        raise KeyError("boom")

    tasks = (task, Task("corrupted", corrupted, task.check), Task("exit2", lambda out: 2, task.check),
             Task("crash", crashing, task.check))
    runner = run.Runner(Workload("gate_test", tasks, task), seed=0, work=tmp_path / "work")
    runner.one_pass()
    assert (runner.attempted, runner.failed) == (4, 3)
