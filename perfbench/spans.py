"""Spans around the calls into each ptlattice layer, recorded from outside.

The tracer replaces, in every loaded ``ptlattice`` module, each name bound
to a traced function with a wrapper that records a span: its name, start,
end and parent.  Parents come from a thread-local span stack; a span that
starts on an empty stack while a sweep runs (a sweep pool thread) takes the
sweep as its parent.  A span's self time is its duration minus the part of
it that its children cover.  ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

# (module, function) -> span name.  Hot per-element helpers (band_energy,
# localization_constant, apply_parameter, ...) are left out: a span per call
# would cost more than the helper itself.  Their time counts as the self
# time of the traced function that calls them.
TRACED = {
    ("lattice", "build_hamiltonian"): "lattice.build_hamiltonian",
    ("eigen", "eig"): "eigen.eig",
    ("analysis", "classify_spectrum"): "analysis.classify_spectrum",
    ("analysis", "detect_bound_states"): "analysis.detect_bound_states",
    ("analysis", "bound_states_by_scaling"): "analysis.bound_states_by_scaling",
    ("analysis", "continuous_complex_indices"): "analysis.continuous_complex_indices",
    ("bands", "pt_breaking_window"): "bands.pt_breaking_window",
    ("bands", "equal_energy_points"): "bands.equal_energy_points",
    ("bands", "criterion_check"): "bands.criterion_check",
    ("nonbloch", "unitary_scan"): "nonbloch.unitary_scan",
    ("nonbloch", "characteristic_roots"): "nonbloch.characteristic_roots",
    ("nonbloch", "boundary_determinant"): "nonbloch.boundary_determinant",
    ("effective", "threshold_pbc"): "effective.threshold_pbc",
    ("sweep", "run_sweep"): "sweep.run_sweep",
    ("sweep", "_point_metric"): "sweep.point",
    ("cli", "main"): "cli.main",
}

# Callers of eig that read only the eigenvalues, as (module, function).
DISCARDS_VECTORS = {
    ("ptlattice.sweep", "_point_metric"),
    ("ptlattice.cli", "_cmd_nonbloch"),
    ("ptlattice.cli", "_observed_onset"),
    ("ptlattice.analysis", "bound_states_by_scaling"),
    ("ptlattice.nonbloch", "characteristic_roots"),
}


def eig_flops(n: int) -> float:
    """Real flops of one eig call: 4 x 25 n^3 for the complex Schur form with
    eigenvectors (Golub & Van Loan, Matrix Computations, 4th ed., 7.5.6; a
    complex multiply-add is 4 real ones) plus 8 n^3 for the residual H @ V."""
    return 108.0 * n**3


@dataclass
class Span:
    name: str
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _annotate(name: str, span: Span, args: tuple, kwargs: dict, result, caller) -> None:
    """Counts taken at the layer boundary, from the arguments and result."""
    if name == "eigen.eig":
        span.attrs["n"] = int(args[0].shape[0])
        code = (caller.f_globals.get("__name__"), caller.f_code.co_name)
        span.attrs["discarded"] = code in DISCARDS_VECTORS
    elif name == "analysis.bound_states_by_scaling":
        candidates = args[2] if len(args) > 2 else kwargs["candidates"]
        span.attrs.update(L=args[0].L, candidates=len(candidates), flagged=len(result))
    elif name == "analysis.detect_bound_states":
        span.attrs["L"] = args[0].dimension
    elif name == "bands.criterion_check":
        span.attrs["L"] = args[0].L
    elif name == "nonbloch.unitary_scan":
        span.attrs["L"] = int(args[0]["L"])
    elif name == "nonbloch.boundary_determinant":
        span.attrs["ill_conditioned"] = bool(result.ill_conditioned)
    elif name == "sweep.run_sweep":
        values = result.values
        span.attrs.update(points=int(values.size), nan_points=int((values != values).sum()))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._adopter: Span | None = None
        self._saved: list[tuple[dict, str, Callable]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, stack[-1] if stack else tracer._adopter)
            stack.append(span)
            if name == "sweep.run_sweep":
                tracer._adopter = span
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if name == "sweep.run_sweep":
                    tracer._adopter = None
                tracer.spans.append(span)
            _annotate(name, span, args, kwargs, result, sys._getframe(1))
            return result

        return wrapper

    def install(self) -> list[str]:
        """Wrap every binding of every traced function; returns the traced
        names that the package does not define."""
        modules = [m for n, m in list(sys.modules.items()) if n == "ptlattice" or n.startswith("ptlattice.")]
        missing = []
        for (layer, func), name in TRACED.items():
            fn = getattr(sys.modules.get(f"ptlattice.{layer}"), func, None)
            if fn is None:
                missing.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._saved.append((vars(module), key, fn))
                        setattr(module, key, wrapper)
        return missing

    def uninstall(self) -> None:
        for namespace, key, fn in reversed(self._saved):
            namespace[key] = fn
        self._saved.clear()


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    return {
        id(s): (s.end - s.start) - _covered(children[id(s)], s.start, s.end) for s in spans
    }


# Per-layer metrics: name -> unit.  Reported for every workload; a layer
# that a workload does not run reads 0.
PER_LAYER_UNITS = {
    "lattice.build_hamiltonian.calls": "count",
    "lattice.build_hamiltonian.self_s": "s",
    "eigen.eig.calls": "count",
    "eigen.eig.self_s": "s",
    "eigen.eig.discarded_vectors": "count",
    "eigen.eig.computed_gflop_per_s": "GFLOP/s",
    "analysis.classify_spectrum.self_s": "s",
    "analysis.detect_bound_states.calls": "count",
    "analysis.detect_bound_states.self_s": "s",
    "analysis.bound_states_by_scaling.calls": "count",
    "analysis.bound_states_by_scaling.self_s": "s",
    "analysis.bound_states_by_scaling.candidates": "count",
    "analysis.bound_states_by_scaling.flagged": "count",
    "bands.pt_breaking_window.calls": "count",
    "bands.pt_breaking_window.self_s": "s",
    "bands.criterion_check.self_s": "s",
    "nonbloch.unitary_scan.self_s": "s",
    "nonbloch.characteristic_roots.calls": "count",
    "nonbloch.characteristic_roots.self_s": "s",
    "nonbloch.boundary_determinant.calls": "count",
    "nonbloch.boundary_determinant.self_s": "s",
    "nonbloch.boundary_determinant.ill_conditioned": "count",
    "effective.threshold_pbc.calls": "count",
    "effective.threshold_pbc.self_s": "s",
    "sweep.run_sweep.wall_s": "s",
    "sweep.points": "count",
    "sweep.nan_points": "count",
    "sweep.point_busy_s": "s",
    "cli.main.self_s": "s",
}


# Metrics of the whole traced run rather than of one pass.
RUN_UNITS = {
    "sweep.parallel_speedup": "ratio",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out = {}
    for metric in PER_LAYER_UNITS:
        layer, _, what = metric.rpartition(".")
        group = by_name.get(layer, [])
        if what == "calls":
            out[metric] = len(group)
        elif what == "self_s":
            out[metric] = sum(own[id(s)] for s in group)
        elif what in ("candidates", "flagged", "ill_conditioned"):
            out[metric] = sum(int(s.attrs.get(what, 0)) for s in group)
    eigs = by_name.get("eigen.eig", [])
    out["eigen.eig.discarded_vectors"] = sum(s.attrs.get("discarded", 0) for s in eigs)
    eig_self = out["eigen.eig.self_s"]
    flops = sum(eig_flops(s.attrs.get("n", 0)) for s in eigs)
    out["eigen.eig.computed_gflop_per_s"] = flops / eig_self / 1e9 if eig_self > 0 else 0.0
    sweeps = by_name.get("sweep.run_sweep", [])
    out["sweep.run_sweep.wall_s"] = sum(s.end - s.start for s in sweeps)
    out["sweep.points"] = sum(s.attrs.get("points", 0) for s in sweeps)
    out["sweep.nan_points"] = sum(s.attrs.get("nan_points", 0) for s in sweeps)
    out["sweep.point_busy_s"] = sum(s.end - s.start for s in by_name.get("sweep.point", []))
    return out


# ROADMAP item 1 baseline: (stage, span name, L, inclusive seconds per
# call).  L None matches any size; unitary_scan was timed at L = 40 and is
# set against every size this benchmark runs.
ROADMAP_STAGES = (
    ("eig with residual check", "eigen.eig", 100, 11.7e-3),
    ("eig with residual check", "eigen.eig", 400, 332e-3),
    ("detect_bound_states", "analysis.detect_bound_states", 100, 5.6e-3),
    ("detect_bound_states", "analysis.detect_bound_states", 400, 36e-3),
    ("size-doubling refinement", "analysis.bound_states_by_scaling", 100, 59e-3),
    ("size-doubling refinement", "analysis.bound_states_by_scaling", 400, 2.17),
    ("pt_breaking_window", "bands.pt_breaking_window", None, 64e-3),
    ("criterion_check", "bands.criterion_check", 100, 139e-3),
    ("criterion_check", "bands.criterion_check", 400, 2.08),
    ("unitary_scan (ROADMAP at L=40)", "nonbloch.unitary_scan", None, 663e-3),
)


def stage_table(spans: list[Span]) -> list[tuple[str, int | None, int, float, float]]:
    """(stage, L, calls, median inclusive seconds per call, ROADMAP seconds)
    for every ROADMAP stage seen in the spans."""
    rows = []
    for stage, name, L, baseline in ROADMAP_STAGES:
        sizes = defaultdict(list)
        for s in spans:
            if s.name == name:
                sizes[s.attrs.get("n", s.attrs.get("L"))].append(s.end - s.start)
        for size, durations in sorted(sizes.items(), key=lambda kv: kv[0] or 0):
            if L is None or size == L:
                rows.append((stage, size, len(durations), statistics.median(durations), baseline))
    return rows
