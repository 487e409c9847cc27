"""ptlattice benchmark: end-to-end time to solution, and a traced per-layer run.

    python3 perfbench/run.py --workload ring_scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One client runs the workload's tasks in a closed loop, in an order drawn
from the seed, until ``--seconds`` have passed; every task's output goes
through its correctness gate.  With ``--trace 0`` the result holds the
end-to-end metrics: the median time of at least three passes, the set-up
time (median of three set-ups, two of them in child processes) and the
peak resident memory.
With ``--trace 1`` untraced and traced passes alternate; the result holds
the per-layer metrics of the traced passes and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Earlier lines hold a
readable summary and a ``record`` line with the seed, every pass time and
the environment.  Nothing sets a BLAS thread variable: the inherited
settings are recorded, not changed.  The program is imported from
``src/`` of the checkout; the run fails without printing a result when it
is missing.  Scratch outputs go to ``.perfbench_out/`` and are removed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_out"
SETUPS = 3  # set-ups per run, the first in this process
MIN_PASSES = 3  # so that wall_s is a true median even when passes are long
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402


class BenchmarkError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def import_program() -> None:
    if not (SRC / "ptlattice" / "__init__.py").is_file():
        raise BenchmarkError(f"no ptlattice package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ptlattice

    if Path(ptlattice.__file__).resolve().parent != SRC / "ptlattice":
        raise BenchmarkError(f"imported ptlattice from {ptlattice.__file__}, not {SRC}")


def run_task(task: workloads.Task, out: Path) -> tuple[float, list[str]]:
    """Run one task into a fresh directory; (seconds, problems).  A nonzero
    exit code, an exception or a gate finding makes the task failed."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = task.run(out)
        except Exception:
            return time.perf_counter() - start, [f"{task.name} raised:\n{traceback.format_exc()}"]
        seconds = time.perf_counter() - start
        if code != 0:
            return seconds, [f"{task.name} exited with code {code}"]
        try:
            problems = task.check(out)
        except Exception:
            problems = [f"output unreadable:\n{traceback.format_exc()}"]
        return seconds, [f"{task.name}: {p}" for p in problems]
    finally:
        shutil.rmtree(out, ignore_errors=True)


class Runner:
    """Closed-loop passes over a workload's tasks, with failure counts."""

    def __init__(self, workload: workloads.Workload, seed: int, work: Path):
        self.workload = workload
        self.rng = random.Random(seed)
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.passes = 0

    def one_pass(self) -> float:
        order = list(self.workload.tasks)
        self.rng.shuffle(order)
        total = 0.0
        for task in order:
            seconds, problems = run_task(task, self.work / f"pass{self.passes}" / task.name)
            total += seconds
            self.attempted += 1
            if problems:
                self.failed += 1
                for p in problems:
                    print(f"FAILED {p}", file=sys.stderr)
        self.passes += 1
        return total


def set_up(name: str, seed: int, work: Path) -> tuple[workloads.Workload, float]:
    """Import the program, write the configs and finish the untimed warm-up
    task; returns the workload and the seconds all of that took."""
    start = time.perf_counter()
    import_program()
    configs = work / "configs"
    configs.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](configs, seed)
    _, problems = run_task(workload.warmup, work / "warmup")
    if problems:
        raise BenchmarkError("warm-up task failed: " + "; ".join(problems))
    return workload, time.perf_counter() - start


def child_set_up(name: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchmarkError(f"child set-up failed ({done.returncode}): {done.stderr[-2000:]}")
    return float(done.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure(runner: Runner, seconds: float) -> dict:
    """End-to-end run: untraced passes until the time is up, at least
    MIN_PASSES of them."""
    walls = []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        walls.append(runner.one_pass())
    return {"passes_s": walls, "wall_s": statistics.median(walls)}


def measure_traced(runner: Runner, seconds: float) -> dict:
    """Untraced and traced passes alternate until the time is up; the
    per-layer metrics are medians over the traced passes."""
    tracer = spans.Tracer()
    untraced, traced, per_pass, recorded = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(runner.one_pass())
        tracer.spans = []
        missing = tracer.install()
        try:
            traced.append(runner.one_pass())
        finally:
            tracer.uninstall()
        per_pass.append(spans.pass_metrics(tracer.spans))
        recorded.extend(tracer.spans)
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in spans.PER_LAYER_UNITS}
    metrics["sweep.parallel_speedup"] = sweep_speedup(runner.workload)
    wall_untraced, wall_traced = statistics.median(untraced), statistics.median(traced)
    metrics["trace.untraced_wall_s"] = wall_untraced
    metrics["trace.traced_wall_s"] = wall_traced
    metrics["trace.overhead_s"] = wall_traced - wall_untraced
    return {"untraced_s": untraced, "traced_s": traced, "metrics": metrics,
            "stages": spans.stage_table(recorded), "untraced_functions": missing}


def sweep_speedup(workload: workloads.Workload) -> float:
    """Serial over parallel run_sweep wall time on the scan's config, both
    untraced; equal to points x serial per-point time / parallel wall.
    0 for a workload without a sweep."""
    if workload.name != "ring_scan":
        return 0.0
    from ptlattice import SweepConfig, run_sweep

    config = SweepConfig.from_json_dict(workloads.scan_config())
    walls = {}
    for threads in (1, workloads.SCAN_THREADS):
        start = time.perf_counter()
        run_sweep(config, threads=threads)
        walls[threads] = time.perf_counter() - start
    return walls[1] / walls[workloads.SCAN_THREADS]


def run_one(args) -> int:
    work = SCRATCH / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload, first_setup = set_up(args.workload, args.seed, work)
        if args.setup_only:
            print(repr(first_setup))
            return 0
        runner = Runner(workload, args.seed, work)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": environment()}
        if args.trace:
            result = measure_traced(runner, args.seconds)
            metrics = result.pop("metrics")
            units = {**spans.PER_LAYER_UNITS, **spans.RUN_UNITS}
            print_stages(result.pop("stages"))
        else:
            setups = [first_setup] + [child_set_up(args.workload, args.seed) for _ in range(SETUPS - 1)]
            result = measure(runner, args.seconds)
            metrics = {"wall_s": result.pop("wall_s"), "setup_s": statistics.median(setups),
                       "peak_rss_mb": peak_rss_mb()}
            units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
            record["setups_s"] = setups
        record.update(result)
        failed_frac = runner.failed / runner.attempted
        for name, value in metrics.items():
            print(f"{args.workload} {name} = {value:.6g} {units[name]}")
        print(f"{args.workload} failed_frac = {failed_frac:.6g} "
              f"({runner.failed} of {runner.attempted} tasks, {runner.passes} passes)")
        print("record " + json.dumps(record))
        print(json.dumps({
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()


def print_stages(rows) -> None:
    print("ROADMAP item 1 stages, median inclusive time per call (traced):")
    for name, L, calls, seconds, baseline in rows:
        where = "" if L is None else f" L={L}"
        print(f"  {name}{where}: {seconds * 1e3:.4g} ms over {calls} calls; "
              f"ROADMAP {baseline * 1e3:.4g} ms; ratio {seconds / baseline:.3g}")


def run_all(args) -> int:
    """Each workload in its own process; prints every workload's summary."""
    correct = True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exit code {done.returncode}")
            return done.returncode
        *summary, result = done.stdout.strip().splitlines()
        print("\n".join(line for line in summary if not line.startswith("record ")))
        correct = correct and json.loads(result)["correct"]
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the set-up seconds")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except (BenchmarkError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
