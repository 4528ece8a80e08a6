"""One paper_grid pass in a fresh interpreter.

``run.py`` starts this script once per pass so every pass pays what a
user pays: interpreter start, ``import repro.api``, workload generation
and artifact warm-up (``GridRunner.warm_artifacts``), then the grid.

    python3 perfbench/worker.py --seed 1 --spawned <monotonic s> --trace 0

Prints one JSON line: timings, per-cell latencies, peak RSS, the cell
payloads and, with ``--trace 1``, the raw spans of the pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.api import ExperimentSpec, Session

    import workloads

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    imported = time.monotonic()

    spec = ExperimentSpec(**workloads.paper_grid_spec(args.seed))
    session = Session(spec)
    try:
        session.runner.warm_artifacts(list(spec.datasets))
        ready = time.monotonic()

        # Cold pass: every cell simulated.
        latencies_ms: list[float] = []
        cell_ends: list[float] = []
        cells: dict[tuple, dict] = {}
        cold_start = last = time.monotonic()
        for result in session.run_iter(spec, on_error="collect"):
            now = time.monotonic()
            latencies_ms.append((now - last) * 1e3)
            cell_ends.append(now)
            last = now
            cells[result.key] = result.to_dict()
        cold_end = last
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed = sum(1 for cell in cells.values() if "failure" in cell)

        # Warm phase: the same grid once more through a fresh Session in
        # this already-warm interpreter (imports done, allocator warm),
        # timed like the cold pass. Traced passes skip it, so their layer
        # counts describe one grid. Every warm cell must equal the cold
        # pass in canonical JSON.
        mismatches = 0
        warm = None
        warm_cells = 0
        if recorder is None:
            with Session(spec) as again:
                again.runner.warm_artifacts(list(spec.datasets))
                warm_start = time.monotonic()
                grid = again.run(spec, on_error="collect")
                warm = [warm_start, time.monotonic()]
            warm_cells = len(grid)
            for result in grid:
                if _canonical(result.to_dict()) != _canonical(cells.get(result.key)):
                    mismatches += 1
        store_stats = session.store_stats()
    finally:
        session.close()

    out = {
        "spawned": args.spawned,
        "ready": ready,
        "cold": [cold_start, cold_end],
        "cold_cells": len(cells),
        "latencies_ms": latencies_ms,
        "cell_ends": cell_ends,
        "warm": warm,
        "warm_cells": warm_cells,
        "failed": failed,
        "mismatches": mismatches,
        "rss_mb": rss_mb,
        "store": store_stats,
        "cells": [cells[key] for key in sorted(cells)],
        "window": [imported, cold_end if warm is None else warm[1]],
        "pid": os.getpid(),
    }
    if recorder is not None:
        out["spans"] = recorder.spans
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
