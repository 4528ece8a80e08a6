"""Machine-speed reference: a fixed slice of work sampled while a run measures.

The reference machine is a shared VM whose speed for this kind of code
drifts by up to ~1.5x over tens of seconds. A sampler process runs
:func:`reference_slice` (numpy sort/scatter/unique plus Python dict
churn, no ``repro`` code) about ten times a second for the whole run.
Each measured interval is then scaled by ``REF_NOMINAL_S`` over the
median slice time around it, so a slowdown of the machine cancels out
while a slowdown of the simulator does not. On a machine where the slice
takes ``REF_NOMINAL_S`` the scaled figure equals the raw one. Where the
measured program could load every CPU (the service workload), only
samples taken while it sat idle are kept (:meth:`Sampler.keep_only`).

    python3 perfbench/reference.py <samples file>   # sampler; exits at stdin EOF
"""

from __future__ import annotations

import bisect
import os
import select
import statistics
import subprocess
import sys
import time

import numpy as np

#: Slice time that defines the nominal machine speed (seconds).
REF_NOMINAL_S = 0.005
#: Pause between slices (seconds), so the sampler uses ~5% of one CPU.
PERIOD_S = 0.1
#: Samples within this margin of an interval also describe it (seconds).
MARGIN_S = 1.0

_RNG = np.random.default_rng(20240601)
_KEYS = _RNG.integers(0, 1 << 40, size=40_000)
_IDX = _RNG.integers(0, 1 << 15, size=20_000)


def reference_slice() -> float:
    """Seconds one fixed slice of numpy and Python work takes now."""
    start = time.perf_counter()
    np.sort(_KEYS)
    bins = np.zeros(1 << 15)
    np.add.at(bins, _IDX, 1.0)
    np.unique(_IDX)
    table = {}
    for i in range(2000):
        table[(i * 7919) % 10007] = (i, str(i))
    sorted(table.items())
    return time.perf_counter() - start


class Sampler:
    """Parent side: runs the sampler process and scales intervals."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.samples: list[tuple[float, float]] = []
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), path],
            stdin=subprocess.PIPE,
        )

    def stop(self) -> None:
        """Close the sampler's stdin, wait for it, and load its samples
        (idempotent)."""
        if self.proc.returncode is not None:
            return
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        with open(self.path) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2:
                    self.samples.append((float(parts[0]), float(parts[1])))
        os.unlink(self.path)
        self.samples.sort()
        self._times = [t for t, _ in self.samples]
        self.margin = MARGIN_S

    def keep_only(self, windows: list[tuple[float, float]], *, margin: float) -> None:
        """Keep only the samples taken inside ``windows`` (times when the
        measured program left the machine alone); each interval is then
        described by the kept samples within ``margin`` of it. Call after
        :meth:`stop`."""
        self.samples = [
            sample for sample in self.samples
            if any(start <= sample[0] <= end for start, end in windows)
        ]
        self._times = [t for t, _ in self.samples]
        self.margin = margin

    def factor(self, start: float, end: float) -> float:
        """``REF_NOMINAL_S`` / median slice time around ``[start, end]``
        (``time.monotonic()`` seconds); call after :meth:`stop`."""
        lo = bisect.bisect_left(self._times, start - self.margin)
        hi = bisect.bisect_right(self._times, end + self.margin)
        window = [d for _, d in self.samples[lo:hi]] or [d for _, d in self.samples]
        return REF_NOMINAL_S / statistics.median(window)


def main(path: str) -> int:
    with open(path, "w") as out:
        while True:
            started = time.monotonic()
            out.write(f"{started!r} {reference_slice()!r}\n")
            out.flush()
            ready, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
            if ready and not sys.stdin.buffer.read1(1):
                return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
