"""Benchmark workloads: inputs made from a seed, the tasks of one pass, and
the correctness gate of every task.

A task runs one call into ptlattice and leaves its outputs in a directory;
its gate reads them back and returns the list of problems it found (empty
when the output is correct).  ptlattice is imported lazily, inside the task
functions, so that the benchmark can time the import as part of set-up.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE = Path(__file__).resolve().parent / "reference.json"

RING_L = 100
SCAN_THETAS = 4  # criterion 4's flux axis, 0.2/L .. 1.0/L, at 4 points
SCAN_GS = 60  # criterion 4's coupling axis, 0 .. 1.5
SCAN_THREADS = 2
OBC_SIZES = (100, 400)
OBC_GS = (0.3, 1.0)
OBC_WINDOW = ((-1.5, -1.0),)  # band of 2cos k + cos 2k: critical values -1.5, -1
THEORY_THETA, THEORY_G = 0.3, 0.8
THEORY_SIZES = (100, 400)
THEORY_GAMMAS = 2000
THEORY_G_RANGE = (0.0, 1.5)
G_CELL = (THEORY_G_RANGE[1] - THEORY_G_RANGE[0]) / 500  # unitary_scan's g grid
EFFECTIVE_THETAS = (0.2 / RING_L, 0.6 / RING_L, 1.0 / RING_L)
N_PROBES = 100


@dataclass(frozen=True)
class Task:
    """One call into the program and the gate that checks what it wrote."""

    name: str
    run: Callable[[Path], int]  # writes into the directory, returns an exit code
    check: Callable[[Path], list[str]]  # problems found in the directory


@dataclass(frozen=True)
class Workload:
    name: str
    tasks: tuple[Task, ...]
    warmup: Task  # untimed, part of set-up


def flux_ring(L: int, theta: float, g: float, phi: float = math.pi / 2) -> dict:
    """Ring with flux theta per bond and gain/loss g e^{+-i phi} on sites 1, L."""
    return {
        "L": L,
        "boundary": "periodic",
        "hoppings": [{"range": 1, "re": 1.0, "im": 0.0}],
        "flux_theta": theta,
        "perturbations": [
            {"i": 1, "j": 1, "re": g * math.cos(phi), "im": g * math.sin(phi)},
            {"i": L, "j": L, "re": g * math.cos(phi), "im": -g * math.sin(phi)},
        ],
    }


def nnn_chain(L: int, g: float, t2: float = 0.5) -> dict:
    """Open chain with t1 = 1, second-neighbour t2 and gain/loss +-ig at the ends."""
    return {
        "L": L,
        "boundary": "open",
        "hoppings": [
            {"range": 1, "re": 1.0, "im": 0.0},
            {"range": 2, "re": t2, "im": 0.0},
        ],
        "flux_theta": 0.0,
        "perturbations": [
            {"i": 1, "j": 1, "re": 0.0, "im": g},
            {"i": L, "j": L, "re": 0.0, "im": -g},
        ],
    }


def scan_config(thetas: int = SCAN_THETAS, gs: int = SCAN_GS) -> dict:
    L = RING_L
    return {
        "base_model": flux_ring(L, 0.2 / L, 1.0),
        "axis1": {"parameter": "flux_theta", "min": 0.2 / L, "max": 1.0 / L, "steps": thetas},
        "axis2": {"parameter": "g", "min": 0.0, "max": 1.5, "steps": gs},
        "metric": "PCom",
    }


def reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return str(path)


def _cli(subcommand: str, config: str, *extra: str) -> Callable[[Path], int]:
    def run(out: Path) -> int:
        from ptlattice import cli

        return cli.main([subcommand, "--config", config, "--out", str(out), *extra])

    return run


def _one(out: Path, pattern: str) -> Path:
    found = sorted(out.glob(pattern))
    if len(found) != 1:
        raise FileNotFoundError(f"expected one {pattern} in {out}, found {len(found)}")
    return found[0]


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


# --- ring_scan -------------------------------------------------------------


def read_grid(out: Path) -> list[list[float]]:
    """(theta, g, P_com) rows of the scan's grid CSV."""
    rows = _rows(_one(out, "grid_*.csv"))
    return [[float(r["flux_theta"]), float(r["g"]), float(r["value"])] for r in rows]


def check_grid(out: Path, expected: list[list[float]] | None = None) -> list[str]:
    """No NaN point, and the grid equal to the reference bit for bit."""
    problems = []
    values = read_grid(out)
    n_nan = sum(math.isnan(v[2]) for v in values)
    if n_nan:
        problems.append(f"{n_nan} NaN grid points")
    if expected is not None and values != expected:
        diff = sum(a != b for a, b in zip(values, expected)) + abs(len(values) - len(expected))
        problems.append(f"grid differs from the reference at {diff} points")
    return problems


def check_scan(out: Path, expected: list[list[float]]) -> list[str]:
    """check_grid, and every onset within 10 % of L sin(theta) (criterion 4's
    bound)."""
    problems = check_grid(out, expected)
    for r in _rows(_one(out, "onset_*.csv")):
        theta = float(r["flux_theta"])
        predicted = RING_L * math.sin(theta)
        if r["onset_g"] == "no onset":
            problems.append(f"no onset at theta={theta:.6g}")
        elif abs(float(r["onset_g"]) - predicted) > 0.10 * predicted:
            problems.append(f"onset {r['onset_g']} at theta={theta:.6g} off L sin(theta)")
    return problems


def ring_scan(configs: Path, seed: int) -> Workload:
    """The seed has nothing to vary: the pass is one scan over a fixed grid,
    which is what lets the gate compare it with a recorded reference."""
    full = _write(configs / "scan.json", scan_config())
    small = _write(configs / "scan_warmup.json", scan_config(2, 2))
    expected = reference()["ring_scan_grid"]
    threads = ("--threads", str(SCAN_THREADS))
    return Workload(
        name="ring_scan",
        tasks=(Task("scan", _cli("scan", full, *threads), lambda out: check_scan(out, expected)),),
        warmup=Task("scan_warmup", _cli("scan", small, *threads), check_grid),
    )


# --- obc_criterion ---------------------------------------------------------


def check_criterion(out: Path) -> list[str]:
    """Zero violations and the window [(-1.5, -1.0)] to within 1e-10."""
    report = json.loads((out / "criterion.json").read_text())
    problems = []
    if report["violations"]:
        problems.append(f"{len(report['violations'])} window violations")
    window = report["window"]
    if len(window) != len(OBC_WINDOW) or any(
        abs(a - b) > 1e-10 for got, want in zip(window, OBC_WINDOW) for a, b in zip(got, want)
    ):
        problems.append(f"window {window} != {list(OBC_WINDOW)}")
    return problems


def obc_criterion(configs: Path, seed: int) -> Workload:
    tasks = []
    for L in OBC_SIZES:
        for g in OBC_GS:
            name = f"criterion_L{L}_g{g}"
            path = _write(configs / f"{name}.json", nnn_chain(L, g))
            tasks.append(Task(name, _cli("criterion", path), check_criterion))
    return Workload(
        name="obc_criterion",
        tasks=tuple(tasks),
        warmup=tasks[0],
    )


# --- ring_theory -----------------------------------------------------------


def check_nonbloch(out: Path, want: list[list[float]]) -> list[str]:
    """Boundary determinant below 1e-6 on the spectrum, and the broken
    intervals within one g cell of the reference."""
    doc = json.loads((out / "nonbloch.json").read_text())
    problems = []
    if not doc["max_normalized_boundary_det"] < 1e-6:
        problems.append(f"boundary determinant {doc['max_normalized_boundary_det']:.3e} on spectrum")
    got = doc["broken_g_intervals"]
    if len(got) != len(want) or any(
        abs(a - b) > G_CELL + 1e-12 for x, y in zip(got, want) for a, b in zip(x, y)
    ):
        problems.append(f"broken intervals {got} != reference {want}")
    return problems


def check_effective(out: Path) -> list[str]:
    """Every relative error of the two-level threshold below 0.10."""
    rows = _rows(out / "thresholds.csv")
    bad = [r["theta"] for r in rows if not float(r["relative_error"]) < 0.10]
    problems = [f"threshold error >= 0.10 at theta={t}" for t in bad]
    if len(rows) != len(EFFECTIVE_THETAS):
        problems.append(f"{len(rows)} threshold rows, expected {len(EFFECTIVE_THETAS)}")
    return problems


def check_probes(out: Path) -> list[str]:
    """Every off-spectrum probe has normalized boundary determinant > 1e-3."""
    mags = json.loads((out / "probes.json").read_text())["normalized_magnitude"]
    problems = [f"probe {i}: determinant {m:.3e} <= 1e-3" for i, m in enumerate(mags) if not m > 1e-3]
    if len(mags) != N_PROBES:
        problems.append(f"{len(mags)} probes, expected {N_PROBES}")
    return problems


def probe_energies(model: dict, seed: int) -> list[complex]:
    """N_PROBES energies in [-2.5, 2.5] x [-1, 1], each at least 0.05 from
    the spectrum (criterion 6's probe rule)."""
    import numpy as np
    from ptlattice import ModelSpec, build_hamiltonian

    spectrum = np.linalg.eigvals(build_hamiltonian(ModelSpec.from_json_dict(model)))
    rng = random.Random(seed)
    out: list[complex] = []
    while len(out) < N_PROBES:
        E = complex(rng.uniform(-2.5, 2.5), rng.uniform(-1.0, 1.0))
        if np.min(np.abs(spectrum - E)) >= 0.05:
            out.append(E)
    return out


def _probe_run(model: dict, energies: list[complex]) -> Callable[[Path], int]:
    def run(out: Path) -> int:
        import ptlattice

        spec = ptlattice.ModelSpec.from_json_dict(model)
        mags = [
            ptlattice.boundary_determinant(
                spec, ptlattice.characteristic_roots(spec.hoppings, E)
            ).normalized_magnitude
            for E in energies
        ]
        _write(out / "probes.json", {"normalized_magnitude": mags})
        return 0

    return run


def nonbloch_config(L: int) -> dict:
    return {
        "model": flux_ring(L, THEORY_THETA, THEORY_G),
        "gamma_resolution": THEORY_GAMMAS,
        "g_range": list(THEORY_G_RANGE),
    }


def ring_theory(configs: Path, seed: int) -> Workload:
    intervals = reference()["ring_theory_broken_g_intervals"]
    tasks = []
    for L in THEORY_SIZES:
        path = _write(configs / f"nonbloch_L{L}.json", nonbloch_config(L))
        check = functools.partial(check_nonbloch, want=intervals[str(L)])
        tasks.append(Task(f"nonbloch_L{L}", _cli("nonbloch", path), check))
    model = flux_ring(RING_L, THEORY_THETA, THEORY_G)
    eff = _write(configs / "effective.json", {"model": model, "thetas": list(EFFECTIVE_THETAS)})
    tasks.append(Task("effective", _cli("effective", eff), check_effective))
    energies = probe_energies(model, seed)
    _write(configs / "probes.json", {"re": [e.real for e in energies], "im": [e.imag for e in energies]})
    tasks.append(Task("probes", _probe_run(model, energies), check_probes))
    return Workload(
        name="ring_theory",
        tasks=tuple(tasks),
        warmup=tasks[0],
    )


WORKLOADS: dict[str, Callable[[Path, int], Workload]] = {
    "ring_scan": ring_scan,
    "obc_criterion": obc_criterion,
    "ring_theory": ring_theory,
}
