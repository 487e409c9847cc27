"""Two-parameter phase-diagram sweeps with caching and parallel execution.

A sweep instantiates the base model at every grid point of two parameter
axes, diagonalizes it, and records a scalar metric (complex-eigenvalue
fraction, max |Im E|, or a broken/unbroken indicator).  Results are cached
per point on disk, keyed by a hash of the configuration, so interrupted
sweeps resume; grids are deterministic regardless of worker count.  BLAS
runs on one thread for the length of a sweep, so the worker pool is the
only parallelism.
"""

from __future__ import annotations

import cmath
import enum
import hashlib
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace as dc_replace
from pathlib import Path

import numpy as np

from .analysis import classify_spectrum, continuous_complex_indices
from .eigen import EigensolverError, _single_threaded_blas, solve
from .lattice import Boundary, HoppingSet, ModelSpec, PerturbationTerm

__all__ = [
    "Metric",
    "AxisSpec",
    "SweepConfig",
    "PhaseGrid",
    "apply_parameter",
    "config_hash",
    "run_sweep",
    "threshold_extract",
    "uncertain_onsets",
    "write_grid_csv",
    "write_grid_sidecar",
    "PARAMETER_PATHS",
]

PARAMETER_PATHS = ("flux_theta", "g", "phi", "t2")


class Metric(enum.Enum):
    PCOM = "PCom"
    MAX_IM_E = "MaxImE"
    THRESHOLD_COMPARE = "ThresholdCompare"


@dataclass(frozen=True)
class AxisSpec:
    parameter: str
    min: float
    max: float
    steps: int

    def __post_init__(self):
        if self.parameter not in PARAMETER_PATHS:
            raise ValueError(
                f"unknown parameter path {self.parameter!r}; "
                f"expected one of {PARAMETER_PATHS}"
            )
        if self.steps < 2:
            raise ValueError("axis needs at least 2 steps")

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.steps)

    def to_json_dict(self) -> dict:
        return {
            "parameter": self.parameter,
            "min": self.min,
            "max": self.max,
            "steps": self.steps,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "AxisSpec":
        return cls(
            parameter=str(d["parameter"]),
            min=float(d["min"]),
            max=float(d["max"]),
            steps=int(d["steps"]),
        )


@dataclass(frozen=True)
class SweepConfig:
    base_model: ModelSpec
    axis1: AxisSpec
    axis2: AxisSpec
    metric: Metric

    def to_json_dict(self) -> dict:
        return {
            "base_model": self.base_model.to_json_dict(),
            "axis1": self.axis1.to_json_dict(),
            "axis2": self.axis2.to_json_dict(),
            "metric": self.metric.value,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SweepConfig":
        return cls(
            base_model=ModelSpec.from_json_dict(d["base_model"]),
            axis1=AxisSpec.from_json_dict(d["axis1"]),
            axis2=AxisSpec.from_json_dict(d["axis2"]),
            metric=Metric(d["metric"]),
        )


@dataclass(frozen=True)
class PhaseGrid:
    axis1: AxisSpec
    axis2: AxisSpec
    metric: Metric
    values: np.ndarray  # shape (axis1.steps, axis2.steps)
    provenance: dict
    diagnostics: tuple[str, ...] = ()


def apply_parameter(spec: ModelSpec, path: str, value: float) -> ModelSpec:
    """Return spec with one named parameter replaced.

    Paths: ``flux_theta``; ``g`` (perturbation magnitude, phases kept);
    ``phi`` (perturbation phase, sign pattern of the existing phases kept);
    ``t2`` (range-2 hopping amplitude; zero removes the term).
    """
    if path == "flux_theta":
        return dc_replace(spec, flux_theta=float(value))
    if path == "g":
        if any(p.amplitude == 0 for p in spec.perturbations):
            raise ValueError("cannot scale a zero perturbation amplitude")
        perts = tuple(
            PerturbationTerm(
                p.site_i, p.site_j, value * p.amplitude / abs(p.amplitude)
            )
            for p in spec.perturbations
        )
        return dc_replace(spec, perturbations=perts)
    if path == "phi":
        perts = tuple(
            PerturbationTerm(
                p.site_i,
                p.site_j,
                abs(p.amplitude)
                * cmath.exp(1j * value * (1 if cmath.phase(p.amplitude) >= 0 else -1)),
            )
            for p in spec.perturbations
        )
        return dc_replace(spec, perturbations=perts)
    if path == "t2":
        terms = [(n, t) for n, t in spec.hoppings.items() if n != 2]
        if value != 0:
            terms.append((2, complex(value)))
        return dc_replace(spec, hoppings=HoppingSet(terms=tuple(sorted(terms))))
    raise ValueError(f"unknown parameter path {path!r}")


def config_hash(config: SweepConfig) -> str:
    canonical = json.dumps(config.to_json_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _point_metric(config: SweepConfig, v1: float, v2: float) -> float:
    spec = apply_parameter(config.base_model, config.axis1.parameter, v1)
    spec = apply_parameter(spec, config.axis2.parameter, v2)
    spectrum, scale = solve(spec)
    if config.metric is Metric.MAX_IM_E:
        return float(np.max(np.abs(spectrum.eigenvalues.imag)))
    if spec.boundary is Boundary.OPEN:
        n_com = len(continuous_complex_indices(spec, spectrum, scale))
    else:
        n_com = classify_spectrum(spectrum, scale).n_com
    p_com = n_com / spec.L
    if config.metric is Metric.THRESHOLD_COMPARE:
        return 1.0 if p_com > 0 else 0.0
    return p_com


def _cache_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / f"sweep_{key}.csv"


def _load_cache(path: Path) -> dict[tuple[int, int], float]:
    """Points cached in newline-terminated ``i,j,value`` lines; a later line
    overrides an earlier one for the same point.  A torn last line is cut
    off the file, so its point is recomputed and appends start afresh.
    Complete lines that do not parse are skipped, so their points are
    recomputed too."""
    cached: dict[tuple[int, int], float] = {}
    if path.exists():
        data = path.read_bytes()
        complete = data.rfind(b"\n") + 1
        if complete < len(data):
            os.truncate(path, complete)
        for line in data[:complete].decode(errors="replace").splitlines():
            try:
                i, j, val = line.split(",")
                cached[(int(i), int(j))] = float(val)
            except ValueError:
                continue
    return cached


def run_sweep(
    config: SweepConfig,
    threads: int | None = None,
    cache_dir: str | Path | None = None,
) -> PhaseGrid:
    """Fill the metric grid, in parallel, resuming from the cache if present.

    Eigensolver failures at single points are recorded as NaN with a
    diagnostic message instead of aborting the sweep; ``provenance``
    lists their ``[i, j]`` grid indices under ``nan_points`` (cached NaN
    points included).  The pool has ``threads`` workers (the executor
    default when None), and BLAS is pinned to one thread while it runs.
    ``provenance`` records both: ``workers`` (0 when every point came from
    the cache) and ``blas_threads`` (1, or None when no OpenBLAS control
    was found).
    """
    key = config_hash(config)
    v1s, v2s = config.axis1.values, config.axis2.values
    cached: dict[tuple[int, int], float] = {}
    cache_file = None
    if cache_dir is not None:
        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        cache_file = _cache_path(cache_dir, key)
        cached = _load_cache(cache_file)

    todo = [
        (i, j)
        for i in range(len(v1s))
        for j in range(len(v2s))
        if (i, j) not in cached
    ]
    diagnostics: list[str] = []
    lock = threading.Lock()

    def worker(ij: tuple[int, int]) -> tuple[int, int, float]:
        i, j = ij
        try:
            val = _point_metric(config, float(v1s[i]), float(v2s[j]))
        except EigensolverError as exc:
            val = math.nan
            with lock:
                diagnostics.append(f"point ({i},{j}): {exc}")
        return i, j, val

    results = dict(cached)
    workers = 0
    blas_threads = None
    if todo:
        # ThreadPoolExecutor's own default when threads is None
        workers = threads if threads is not None else min(32, (os.cpu_count() or 1) + 4)
        with _single_threaded_blas() as blas_threads, ThreadPoolExecutor(workers) as pool:
            for i, j, val in pool.map(worker, todo):
                results[(i, j)] = val
                if cache_file is not None:
                    with lock, cache_file.open("a") as fh:
                        fh.write(f"{i},{j},{val:.17g}\n")

    grid = np.full((len(v1s), len(v2s)), math.nan)
    for i, j in np.ndindex(grid.shape):
        grid[i, j] = results[(i, j)]
    from . import __version__

    return PhaseGrid(
        axis1=config.axis1,
        axis2=config.axis2,
        metric=config.metric,
        values=grid,
        provenance={
            "config_hash": key,
            "version": __version__,
            "workers": workers,
            "blas_threads": blas_threads,
            "nan_points": np.argwhere(np.isnan(grid)).tolist(),
        },
        diagnostics=tuple(diagnostics),
    )


def threshold_extract(grid: PhaseGrid) -> list[tuple[float, float | None]]:
    """Per axis1 value, the axis2 onset of a positive metric.

    The onset is placed midway between the last zero and first positive grid
    points (the linear interpolant of a step).  None marks columns with no
    positive point.  A NaN (failed) point is not positive; see
    :func:`uncertain_onsets`.
    """
    v1s, v2s = grid.axis1.values, grid.axis2.values
    out: list[tuple[float, float | None]] = []
    for i, v1 in enumerate(v1s):
        row = grid.values[i]
        positive = np.flatnonzero(row > 0)
        if len(positive) == 0:
            out.append((float(v1), None))
            continue
        j = int(positive[0])
        onset = float(v2s[j]) if j == 0 else float(0.5 * (v2s[j - 1] + v2s[j]))
        out.append((float(v1), onset))
    return out


def uncertain_onsets(grid: PhaseGrid) -> list[float]:
    """Axis-1 values whose onset from :func:`threshold_extract` lies after
    a NaN point (or that have no onset and a NaN point): the failed point
    may hide an earlier onset."""
    out = []
    for v1, row in zip(grid.axis1.values, grid.values):
        failed = np.flatnonzero(np.isnan(row))
        positive = np.flatnonzero(row > 0)
        if len(failed) and (len(positive) == 0 or failed[0] < positive[0]):
            out.append(float(v1))
    return out


def write_grid_csv(grid: PhaseGrid, path: str | Path) -> None:
    v1s, v2s = grid.axis1.values, grid.axis2.values
    with Path(path).open("w") as fh:
        fh.write(f"{grid.axis1.parameter},{grid.axis2.parameter},value\n")
        for i, v1 in enumerate(v1s):
            for j, v2 in enumerate(v2s):
                fh.write(f"{v1:.17g},{v2:.17g},{grid.values[i, j]:.17g}\n")


def write_grid_sidecar(grid: PhaseGrid, path: str | Path, extra: dict | None = None) -> None:
    doc = {
        "axis1": grid.axis1.to_json_dict(),
        "axis2": grid.axis2.to_json_dict(),
        "metric": grid.metric.value,
        "provenance": grid.provenance,
        "diagnostics": list(grid.diagnostics),
    }
    if extra:
        doc.update(extra)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
