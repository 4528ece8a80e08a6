"""Shared state for the benchmark suite.

The full-scale evaluation grid is expensive, so one session-scoped
:class:`~repro.api.session.Session` is shared by every benchmark that
needs it; its memo holds each cell, dataset and SGB output once.
Knobs (environment variables):

- ``REPRO_BENCH_SCALE`` (default 1.0) trades fidelity for speed.
- ``REPRO_BENCH_JOBS`` (default 1) fans the grid out over the parallel
  runner; results are bit-identical to serial runs.
- ``REPRO_BENCH_STORE`` (unset by default) points the session at a
  persistent artifact store directory, making repeated benchmark
  sessions warm-cache. Leave unset to measure true simulation cost.
"""

from __future__ import annotations

import os

import pytest

from repro.api import ExperimentSpec, Session
from repro.platforms import ArtifactStore

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
BENCH_STORE = os.environ.get("REPRO_BENCH_STORE")


@pytest.fixture(scope="session")
def session() -> Session:
    store = ArtifactStore(BENCH_STORE) if BENCH_STORE else None
    return Session(
        ExperimentSpec(scale=BENCH_SCALE), store=store, jobs=BENCH_JOBS
    )


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
