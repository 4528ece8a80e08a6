"""Shared fixtures for the platforms suite: segment hygiene.

Every test in this package runs under a leak check for shared-memory
segments: a ``repro-*`` name surviving in ``/dev/shm`` (POSIX backend)
or a ``repro-*.shm`` file surviving in the temp directory (mmap
fallback) after a test is a lifecycle bug — publishers must unlink on
close, GC and interpreter exit alike.

Segment names embed the creating pid, so the check only looks at this
process's names: other processes on the machine (a concurrent run, an
xdist sibling) create and drop their own segments mid-test.
"""

from __future__ import annotations

import gc
import os
import tempfile
from pathlib import Path

import pytest


def _segment_residue() -> set[str]:
    # Same prefix as repro.platforms.shm._segment_name.
    pattern = f"repro-{os.getpid() % 100000}-*"
    residue: set[str] = set()
    shm_dir = Path("/dev/shm")
    if shm_dir.is_dir():
        residue.update(str(p) for p in shm_dir.glob(pattern))
    residue.update(
        str(p) for p in Path(tempfile.gettempdir()).glob(f"{pattern}.shm")
    )
    return residue


@pytest.fixture(autouse=True)
def no_leaked_segments():
    before = _segment_residue()
    yield
    # Segments owned by objects the test dropped are reclaimed by their
    # finalizers; collect so an unreferenced runner doesn't read as a leak.
    gc.collect()
    leaked = _segment_residue() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"
