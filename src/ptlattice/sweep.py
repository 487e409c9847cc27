"""Two-parameter phase-diagram sweeps with caching and parallel execution.

A sweep instantiates the base model at every grid point of two parameter
axes and records a scalar metric (complex-eigenvalue fraction, max |Im E|,
or a broken/unbroken indicator).  Results are cached per point on disk,
keyed by a hash of the configuration, so interrupted sweeps resume; grids
are deterministic regardless of worker count.

Two paths fill a grid.  On a flux ring (a base model that
``nonbloch._ring_parameters`` accepts) with the metric PCom or
ThresholdCompare, both axes among ``flux_theta``, ``g`` and ``phi`` and
|g/t| within the count's bound, every point is counted, not solved: n_com
is L less the exact number of real levels from
``ring_equation._real_state_counts``, one call for every ring of the grid,
as the axes keep L.  That path builds no matrix and starts no
pool.  Every other sweep (MaxImE, a ``t2`` axis, open chains, rings with
other terms) diagonalizes each point: BLAS runs on one thread for the length
of the sweep, so the worker pool is the only parallelism, and points are
solved in stacks of ceil(501/L) consecutive points, one LAPACK call each:
numpy releases the GIL for such a call only when stack size * L exceeds
500, and without that the pool threads would take turns.  Every solve is
values-only: the one reader of a spectrum beyond its classification, the
open-chain continuum rule, reads eigenvalues only.  Config values are read
by ``lattice._field``, so errors name ``axis1.min``.
"""

from __future__ import annotations

import cmath
import enum
import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace as dc_replace
from pathlib import Path

import numpy as np

from .analysis import _continuum, classify_spectrum
from .eigen import EigensolverError, _single_threaded_blas, solve_stack
from .lattice import Boundary, HoppingSet, ModelSpec, PerturbationTerm, _field, _integer, _number
from .nonbloch import _ring_parameters
from .ring_equation import _R_MAX, _real_state_counts

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
    "PARAMETER_PATHS",
]

PARAMETER_PATHS = ("flux_theta", "g", "phi", "t2")
_RING_PATHS = PARAMETER_PATHS[:3]  # the parameters that keep a flux ring a flux ring


class Metric(enum.Enum):
    PCOM = "PCom"
    MAX_IM_E = "MaxImE"
    THRESHOLD_COMPARE = "ThresholdCompare"


def _parameter_path(value) -> str:
    """value, when it is one of PARAMETER_PATHS."""
    if value not in PARAMETER_PATHS:
        raise ValueError(f"must be one of {PARAMETER_PATHS}, got {value!r}")
    return value


@dataclass(frozen=True)
class AxisSpec:
    parameter: str
    min: float
    max: float
    steps: int

    def __post_init__(self):
        _field(vars(self), "parameter", _parameter_path)
        if self.steps < 2:
            raise ValueError("axis needs at least 2 steps")
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ValueError(f"axis {self.parameter!r} needs finite min and max")

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
    def from_json_dict(cls, d: dict, path: str = "axis") -> "AxisSpec":
        """The axis in d, whose JSON path ``path`` prefixes error messages."""
        return cls(
            parameter=_field(d, f"{path}.parameter", _parameter_path),
            min=_field(d, f"{path}.min", _number),
            max=_field(d, f"{path}.max", _number),
            steps=_field(d, f"{path}.steps", _integer),
        )


@dataclass(frozen=True)
class SweepConfig:
    base_model: ModelSpec
    axis1: AxisSpec
    axis2: AxisSpec
    metric: Metric

    def __post_init__(self):
        if self.axis1.parameter == self.axis2.parameter:
            raise ValueError(
                f"axis1 and axis2 both sweep {self.axis1.parameter!r}; "
                "they must name different parameters"
            )

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
            base_model=ModelSpec.from_json_dict(_field(d, "base_model"), "base_model"),
            axis1=AxisSpec.from_json_dict(_field(d, "axis1"), "axis1"),
            axis2=AxisSpec.from_json_dict(_field(d, "axis2"), "axis2"),
            metric=_field(d, "metric", Metric),
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
    ``phi`` (perturbation phase, with the sign of each term's imaginary
    part; a real amplitude takes + on the left half of the chain and - on
    the right, so a phi = 0 ring keeps its ends conjugate);
    ``t2`` (range-2 hopping amplitude; zero removes the term).  ``g`` and
    ``phi`` on a model with no perturbation raise ValueError.
    """
    if path == "flux_theta":
        return dc_replace(spec, flux_theta=float(value))
    if path in ("g", "phi") and not spec.perturbations:
        raise ValueError(f"parameter {path!r} needs a model with a perturbation, got none")
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
        # a real amplitude (Im a = +-0) takes the sign of L + 1 - 2i, which is
        # >= 0 exactly on the left half, i <= (L + 1) / 2
        signs = (
            math.copysign(1.0, p.amplitude.imag or spec.L + 1 - 2 * p.site_i)
            for p in spec.perturbations
        )
        perts = tuple(
            PerturbationTerm(p.site_i, p.site_j, abs(p.amplitude) * cmath.exp(1j * value * s))
            for p, s in zip(spec.perturbations, signs)
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


def _stack_size(config: SweepConfig) -> int:
    """Points per LAPACK call: the smallest k with k * L > 500 (numpy's
    linalg releases the GIL only for a loop longer than 500, so a smaller
    stack would hold it and serialize the pool; larger stacks only cost
    memory)."""
    return 500 // config.base_model.L + 1


def _point_specs(config: SweepConfig, points):
    """The base model at each (v1, v2) point, one at a time; the axis-1
    model is built once per run of consecutive points with the same v1."""
    row_v1 = row = None
    for v1, v2 in points:
        if v1 != row_v1:
            row_v1, row = v1, apply_parameter(config.base_model, config.axis1.parameter, v1)
        yield apply_parameter(row, config.axis2.parameter, v2)


def _classified_value(metric: Metric, n_com: int, L: int) -> float:
    """PCom, n_com / L, or ThresholdCompare, 1 where PCom is positive, else 0."""
    p_com = n_com / L
    return (1.0 if p_com > 0 else 0.0) if metric is Metric.THRESHOLD_COMPARE else p_com


def _chunk_metrics(
    config: SweepConfig, points: list[tuple[float, float]]
) -> list[tuple[float, int]]:
    """(metric, near_cut) of each (v1, v2) point of one chunk, solved
    values-only in one stack.  MaxImE is max |Im E|, with near_cut 0 (it
    does not classify).  PCom counts the complex states, on an open chain
    only those of the continuum; ThresholdCompare is 1 where PCom is
    positive, else 0."""
    specs = list(_point_specs(config, points))
    continuum = config.metric is not Metric.MAX_IM_E and config.base_model.boundary is Boundary.OPEN
    metrics = []
    for spec, (spectrum, scale) in zip(specs, solve_stack(specs, vectors=False)):
        if config.metric is Metric.MAX_IM_E:
            metrics.append((float(np.max(np.abs(spectrum.eigenvalues.imag))), 0))
            continue
        cls = classify_spectrum(spectrum, scale)
        n_com = cls.n_com
        if continuum:
            n_com = len(_continuum(spec, spectrum, cls.complex_indices))
        metrics.append((_classified_value(config.metric, n_com, spec.L), cls.near_cut))
    return metrics


def _counts_rings(config: SweepConfig) -> bool:
    """Whether :func:`run_sweep` counts the grid instead of solving it: a
    classifying metric, both axes among _RING_PATHS, a base model that
    ``nonbloch._ring_parameters`` accepts and no g/t above the count's
    bound ``ring_equation._R_MAX``."""
    axes = (config.axis1, config.axis2)
    if config.metric is Metric.MAX_IM_E or not {a.parameter for a in axes} <= set(_RING_PATHS):
        return False
    try:
        ring, g = _ring_parameters(config.base_model)
    except ValueError:
        return False
    top = max((max(abs(a.min), abs(a.max)) for a in axes if a.parameter == "g"), default=g)
    # a point's g is rebuilt from these values and may lie a few ulps above them
    return top / ring.t <= _R_MAX * (1.0 - 1e-12)


def _ring_n_com(L: int, specs) -> list[tuple[int, bool]]:
    """(n_com, near) of each flux ring of size L in specs, an iterable read
    once: L less its exact number of real levels, and whether a near-double
    root set that number, all counted in one ``_real_state_counts`` call,
    each as its row of g/t and ``_Ring.cosines``."""
    rows = [(g / ring.t, *ring.cosines) for ring, g in map(_ring_parameters, specs)]
    counts, near = _real_state_counts(L, *np.array(rows).T)
    return [(L - count, at) for count, at in zip(counts.tolist(), near.tolist())]


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
    """Fill the metric grid, resuming from the cache if present.

    ``provenance["path"]`` names the path that fills the points not in the
    cache (see the module docstring): ``"count"``, the exact real-level
    count of a flux ring, or ``"dense"``, a values-only solve of each point
    on a pool of ``threads`` workers.  Eigensolver failures at single
    points are recorded as NaN with a diagnostic message instead of
    aborting the sweep; ``provenance`` lists their ``[i, j]`` grid indices
    under ``nan_points`` (cached NaN points included).  ``threads`` below 1
    raises ValueError before the cache is read; on the dense path the pool
    has that many workers (the executor default when None), and BLAS is
    pinned to one thread while it runs.  ``provenance`` records both:
    ``workers`` (0 when no point was solved: all came from the cache, or
    the count filled them) and ``blas_threads`` (1, or None when no
    OpenBLAS control was found or no pool ran).  It also records
    ``stack``, the points per LAPACK call of the dense path, and, for PCom
    and ThresholdCompare, ``near_cut_points``: the ``[i, j]`` of points
    filled in this run whose call is near the real/complex cut, with
    eigenvalues near the Im cut (``near_cut`` > 0) or a real-level count
    set by a near-double root.  Cached points are not filled again, so they
    are never listed there.
    """
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
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
    stack = _stack_size(config)
    # consecutive points by index, so chunks do not depend on the workers
    chunks = [todo[n : n + stack] for n in range(0, len(todo), stack)]
    diagnostics: list[str] = []

    def worker(
        chunk: list[tuple[int, int]]
    ) -> tuple[list[tuple[int, int, float, int]], list[str]]:
        """The chunk's (i, j, metric, near_cut) rows and its diagnostics."""
        try:
            solved = _chunk_metrics(config, [(float(v1s[i]), float(v2s[j])) for i, j in chunk])
        except EigensolverError as exc:
            if len(chunk) > 1:
                # one bad matrix fails its whole stack: solve each point
                # alone, so that only the failing points become NaN
                parts = [worker([ij]) for ij in chunk]
                return [r for rows, _ in parts for r in rows], [d for _, ds in parts for d in ds]
            i, j = chunk[0]
            return [(i, j, math.nan, 0)], [f"point ({i},{j}): {exc}"]
        return [(i, j, val, near) for (i, j), (val, near) in zip(chunk, solved)], []

    results = dict(cached)
    near_cut_points = []

    def record(rows: list[tuple[int, int, float, int]]) -> None:
        """Store the (i, j, metric, near) rows, list the near ones and
        append the rows to the cache."""
        for i, j, val, near in rows:
            results[(i, j)] = val
            if near:
                near_cut_points.append([i, j])
        if cache_file is not None:
            with cache_file.open("a") as fh:
                fh.writelines(_csv_line((i, j, val)) for i, j, val, _ in rows)

    workers = 0
    blas_threads = None
    counted = _counts_rings(config)
    if counted and todo:
        # the axes keep L; the specs are made one at a time, as the count reads them
        specs = _point_specs(config, ((float(v1s[i]), float(v2s[j])) for i, j in todo))
        record([
            (i, j, _classified_value(config.metric, n_com, config.base_model.L), near)
            for (i, j), (n_com, near) in zip(todo, _ring_n_com(config.base_model.L, specs))
        ])
    elif chunks:
        # ThreadPoolExecutor's own default when threads is None
        workers = threads if threads is not None else min(32, (os.cpu_count() or 1) + 4)
        with _single_threaded_blas() as blas_threads, ThreadPoolExecutor(workers) as pool:
            # map yields in chunk order, so diagnostics do not depend on timing
            for rows, notes in pool.map(worker, chunks):
                diagnostics.extend(notes)
                record(rows)

    grid = np.full((len(v1s), len(v2s)), math.nan)
    for i, j in np.ndindex(grid.shape):
        grid[i, j] = results[(i, j)]
    from . import __version__

    provenance = {
        "config_hash": key,
        "version": __version__,
        "path": "count" if counted else "dense",
        "workers": workers,
        "blas_threads": blas_threads,
        "stack": stack,
        "nan_points": np.argwhere(np.isnan(grid)).tolist(),
    }
    if config.metric is not Metric.MAX_IM_E:
        provenance["near_cut_points"] = near_cut_points
    return PhaseGrid(
        axis1=config.axis1,
        axis2=config.axis2,
        metric=config.metric,
        values=grid,
        provenance=provenance,
        diagnostics=tuple(diagnostics),
    )


def threshold_extract(grid: PhaseGrid) -> list[tuple[float, float | None]]:
    """Per axis1 value, the axis2 onset of a positive metric.

    The onset is placed midway between the last zero and first positive grid
    points, or on the first point when that is positive (:func:`_onset_at`).
    None marks columns with no positive point.  A NaN (failed) point is
    not positive; see :func:`uncertain_onsets`.
    """
    v1s, v2s = grid.axis1.values, grid.axis2.values
    out: list[tuple[float, float | None]] = []
    for i, v1 in enumerate(v1s):
        row = grid.values[i]
        positive = np.flatnonzero(row > 0)
        if len(positive) == 0:
            out.append((float(v1), None))
            continue
        out.append((float(v1), _onset_at(v2s, int(positive[0]))))
    return out


def _onset_at(values: np.ndarray, j: int) -> float:
    """The onset on the axis ``values`` whose first broken point is j:
    values[0] when j = 0, else midway between the last unbroken and the
    first broken point (the linear interpolant of a step)."""
    return float(values[0]) if j == 0 else float(0.5 * (values[j - 1] + values[j]))


def _first_onset(spec: ModelSpec, lo: float, hi: float, steps: int) -> float | None:
    """Onset of complex eigenvalues along g of the flux ring spec, placed as
    in :func:`threshold_extract`: at the first point of
    linspace(lo, hi, steps) with ``n_com`` > 0; None when no point has one.
    Only g moves, so the ring record is read once and every g/t counted in
    one ``ring_equation._real_state_counts`` call.  A model that
    ``nonbloch._ring_parameters`` rejects raises its ValueError."""
    ring, _ = _ring_parameters(spec)
    values = np.linspace(lo, hi, steps)
    counts, _ = _real_state_counts(ring.L, values / ring.t, *ring.cosines)
    broken = np.flatnonzero(counts < ring.L)
    return _onset_at(values, int(broken[0])) if len(broken) else None


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


def _csv_line(row) -> str:
    """One CSV line of the fields of row: floats as %.17g, which reads
    back bit for bit, anything else with str."""
    return ",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in row) + "\n"


def _write_table(path: str | Path, header, rows) -> None:
    """CSV file: the header names joined by commas, then one _csv_line per row."""
    with Path(path).open("w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(_csv_line(row) for row in rows)


def _write_json(path: str | Path, doc: dict) -> None:
    """JSON sidecar: keys sorted, two-space indent, a final newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_grid_csv(grid: PhaseGrid, path: str | Path) -> None:
    v1s, v2s = grid.axis1.values, grid.axis2.values
    rows = ((v1, v2, grid.values[i, j]) for i, v1 in enumerate(v1s) for j, v2 in enumerate(v2s))
    _write_table(path, (grid.axis1.parameter, grid.axis2.parameter, "value"), rows)


def _grid_fields(grid: PhaseGrid) -> dict:
    """The grid's axes, metric, provenance and diagnostics, as a sidecar writes them."""
    return {
        "axis1": grid.axis1.to_json_dict(),
        "axis2": grid.axis2.to_json_dict(),
        "metric": grid.metric.value,
        "provenance": grid.provenance,
        "diagnostics": list(grid.diagnostics),
    }
