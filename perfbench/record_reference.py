"""Write perfbench/reference.json from the program in src/.

    python3 perfbench/record_reference.py

The correctness gates compare the ring_scan grid (bit for bit) and the
ring_theory broken-g intervals (to one g cell) against this file.  Record it
again only when a change is meant to alter those outputs, and say why.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import run
import workloads


def main() -> int:
    run.import_program()
    from ptlattice import cli

    work = run.SCRATCH / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        scan = workloads._write(work / "scan.json", workloads.scan_config())
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["scan", "--config", scan, "--out", str(work / "scan"),
                             "--threads", str(workloads.SCAN_THREADS)])
        if code != 0:
            raise SystemExit(f"scan exited with {code}")
        grid = workloads.read_grid(work / "scan")
        intervals = {}
        for L in workloads.THEORY_SIZES:
            config = workloads._write(work / f"nonbloch_L{L}.json", workloads.nonbloch_config(L))
            out = work / f"nonbloch_L{L}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["nonbloch", "--config", config, "--out", str(out)])
            if code != 0:
                raise SystemExit(f"nonbloch L={L} exited with {code}")
            intervals[str(L)] = json.loads((out / "nonbloch.json").read_text())["broken_g_intervals"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.SCRATCH.rmdir()
    workloads.REFERENCE.write_text(json.dumps(
        {"ring_theory_broken_g_intervals": intervals, "ring_scan_grid": grid}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
