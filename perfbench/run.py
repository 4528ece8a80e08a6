"""The repository benchmark: host cost of the GDR-HGNN simulator.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 40 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``paper_grid``: the paper's Fig. 7 grid (4 platforms x 3 models x
  acm/imdb/dblp, scale 1.0), serial, no store, one fresh interpreter
  per pass.
- ``service_mix``: a closed loop of 2 client threads against ``repro
  serve`` (server defaults), over a seeded Zipf-like spec stream.

With ``--trace 0`` the last stdout line is the JSON result with every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` untraced and
traced passes alternate and the line holds every per-layer metric, while
a Chrome trace (``perfbench/out/trace-*.json``) and a per-layer table
(``perfbench/out/layers-*.txt``) are written. The exit code is 1 when an
output check fails (a failed cell or request, a crashed pass, a warm
grid differing from the cold one, a service envelope differing from a local
``Session`` computation, or a traced digest differing from the untraced
one) and 2 when the simulator sources are missing.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import reference
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SCRATCH = os.path.join(OUT, "tmp")

#: Tail percentile; lowered only when a run has too few samples.
TAIL = 0.90
#: service_mix: concurrent closed-loop clients (= nproc of the
#: reference machine) and server spawns measured for setup_s.
CLIENTS = 2
SPAWNS = 9
#: service_mix digest covers the cells of the first DIGEST_SPECS specs,
#: which every run issues, so digests compare across run lengths.
DIGEST_SPECS = 8
#: service_mix peak RSS is taken when the cold request of spec RSS_SPEC
#: completes: the server memoizes every cell it serves, so RSS at the end
#: of a timed run would grow with throughput.
RSS_SPEC = 31
#: service_mix load segment and the idle window after each (seconds).
SEGMENT_S = 8.0
QUIET_S = 1.0
#: Provenance the server gives each delivered cell under ``?trace=1``.
SOURCES = ("computed", "warm", "attached")


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(cells: list[dict]) -> str:
    """sha256 of the canonical JSON of cell payloads in key order."""
    ordered = sorted(cells, key=lambda c: (c["platform"], c["model"], c["dataset"]))
    return hashlib.sha256(canonical(ordered).encode()).hexdigest()


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 when there are no samples (every
    request failed, which the output checks report)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_quantile(n: int) -> float:
    """TAIL, or the highest quantile that still leaves at least ten of
    ``n`` samples beyond it."""
    if n * (1 - TAIL) >= 10:
        return TAIL
    return max(0.0, 1 - 10 / n) if n else 0.0


def tail(values: list[float]) -> float:
    return quantile(values, tail_quantile(len(values)))


def paper_geomean() -> dict[str, float]:
    """``PAPER_GEOMEAN`` of ``benchmarks/bench_fig7_speedup.py``, read
    without importing the pytest module."""
    path = os.path.join(ROOT, "benchmarks", "bench_fig7_speedup.py")
    with open(path) as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PAPER_GEOMEAN" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"PAPER_GEOMEAN not found in {path}")


def sim_metrics(cells: list[dict], *, paper: bool) -> dict[str, float]:
    """Simulated statistics of ``cells`` (host timing never enters).

    Speedups are over T4 for every (model, dataset) with both cells,
    geomeaned per platform, as in Fig. 7. ``fig7_log_error`` is the mean
    ``|ln(geomean / paper value)|`` and is only defined on paper_grid.
    """
    by_key = {
        (c["platform"], c["model"], c["dataset"]): c
        for c in cells
        if "failure" not in c
    }
    out: dict[str, float] = {}
    geo: dict[str, float] = {}
    for plat in ("a100", "hihgnn", "hihgnn+gdr"):
        logs = [
            math.log(by_key[("t4", m, d)]["time_ms"] / cell["time_ms"])
            for (p, m, d), cell in by_key.items()
            if p == plat and ("t4", m, d) in by_key
        ]
        geo[plat] = math.exp(sum(logs) / len(logs)) if logs else 0.0
        out[f"sim.geomean.{plat.replace('+', '-')}"] = geo[plat]
    out["sim.gdr_over_hihgnn"] = (
        geo["hihgnn+gdr"] / geo["hihgnn"] if geo["hihgnn"] else 0.0
    )
    for plat in ("hihgnn", "hihgnn+gdr"):
        mine = [c for (p, _m, _d), c in by_key.items() if p == plat]
        name = plat.replace("+", "-")
        out[f"sim.na_hit_ratio.{name}"] = (
            statistics.fmean(c["na_hit_ratio"] for c in mine) if mine else 0.0
        )
        out[f"sim.dram_bytes.{name}"] = float(sum(c["dram_bytes"] for c in mine))
    out["sim.frontend_cycles"] = float(
        sum(c["frontend_cycles"] or 0 for c in by_key.values())
    )
    if paper:
        paper_values = paper_geomean()
        out["sim.fig7_log_error"] = statistics.fmean(
            abs(math.log(geo[p] / paper_values[p])) for p in paper_values
        )
    return out


def machine_stamp() -> dict:
    """nproc, CPU model, versions and a fixed calibration loop's time."""
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def pure_python() -> int:
        return sum((i * i) % 7 for i in range(300_000))

    def with_numpy() -> float:
        rng = np.random.default_rng(12345)
        return float(np.sort(rng.random(400_000))[200_000])

    def timed(fn) -> float:
        runs = []
        for _ in range(5):
            start = time.monotonic()
            fn()
            runs.append(time.monotonic() - start)
        return statistics.median(runs)

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration_python_s": timed(pure_python),
        "calibration_numpy_s": timed(with_numpy),
    }


def trace_layers(span_sets: list[list], window_sets: list[tuple]) -> list[dict]:
    """Per traced pass: the layer table and its trace coverage."""
    out = []
    for recorded, window in zip(span_sets, window_sets):
        wall = window[1] - window[0]
        out.append(
            {
                "table": spans.aggregate(recorded),
                "coverage": spans.covered_s(recorded, window) / wall if wall else 0.0,
            }
        )
    return out


def layer_metrics(table: dict[str, dict[str, float]]) -> dict[str, float]:
    """Map the span table onto the per-layer metric names."""

    def row(name: str) -> dict[str, float]:
        return table.get(name, {"calls": 0, "self_s": 0.0, "cum_s": 0.0})

    out = {
        "graph.generate_s": row("graph.generate")["self_s"],
        "graph.generate_calls": row("graph.generate")["calls"],
        "platforms.artifacts_build_s": row("platforms.artifacts_build")["self_s"],
        "frontend.restructure_s": row("frontend.restructure")["cum_s"],
        "frontend.restructure_calls": row("frontend.restructure")["calls"],
        "frontend.decoupler_s": row("frontend.decoupler")["self_s"],
        "frontend.recoupler_s": row("frontend.recoupler")["self_s"],
        "frontend.hash_conflicts_s": row("frontend.hash_conflicts")["self_s"],
        "restructure.matching_s": row("restructure.matching")["self_s"],
        "restructure.backbone_s": row("restructure.backbone")["self_s"],
        "restructure.recouple_s": row("restructure.recouple")["self_s"],
        "runner.run_cell_s": row("runner.run_cell")["self_s"],
        "runner.cells": row("runner.run_cell")["calls"],
        "api.to_dict_s": row("api.to_dict")["self_s"],
        "api.from_dict_s": row("api.from_dict")["self_s"],
        "api.session_self_s": row("api.session")["self_s"],
        "shm.publish_s": row("shm.publish")["self_s"],
        "shm.publish_calls": row("shm.publish")["calls"],
        "shm.attach_calls": row("shm.attach")["calls"],
        "service.submit_s": row("service.submit")["self_s"],
    }
    for name in ("memory.access_many", "memory.count_leq_before", "gpu.run",
                 "accelerator.run", "store.save", "store.load"):
        out[f"{name}_s"] = row(name)["self_s"]
        out[f"{name}_calls"] = row(name)["calls"]
    return out


def store_metrics(stats: dict | None) -> dict[str, float]:
    stats = stats or {}
    lookups = stats.get("hits", 0) + stats.get("misses", 0)
    return {
        "store.hit_ratio": stats.get("hits", 0) / lookups if lookups else 0.0,
        "store.index_retries": stats.get("index_retries", 0),
        "store.read_errors": stats.get("read_errors", 0),
        "store.quarantined": stats.get("quarantined", 0),
    }


def median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def write_trace(name: str, parts: list[tuple[list, int, str]], origin: float,
                tables: list[dict]) -> None:
    """Chrome trace of every traced process plus the layer table."""
    events: list[dict] = []
    for recorded, pid, label in parts:
        events.extend(spans.chrome_events(recorded, pid=pid, label=label, origin=origin))
    spans.write_trace(os.path.join(OUT, f"trace-{name}.json"), events)
    with open(os.path.join(OUT, f"layers-{name}.txt"), "w") as handle:
        for index, table in enumerate(tables):
            handle.write(f"# traced pass {index}: self/cumulative host seconds\n")
            handle.write(spans.format_table(table))


# ----------------------------------------------------------------------
# paper_grid
# ----------------------------------------------------------------------


class PassFailed(Exception):
    """A worker pass crashed, timed out or printed no result."""


def run_pass(seed: int, trace: int) -> dict:
    """One fresh-interpreter pass (``worker.py``)."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--seed", str(seed),
             "--spawned", repr(spawned), "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise PassFailed(f"pass exited with {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise PassFailed("pass printed no result") from exc


def run_grid(seed: int, seconds: float, trace: bool, sampler: reference.Sampler) -> dict:
    """Make passes until ``seconds`` have passed and every dataset seed
    has had one (at least 4 x 36 cell latencies, enough for p90 with ten
    samples beyond)."""
    # Pass k runs the grid at dataset seed seeds[k % len(seeds)]; traced
    # pass k uses the same seed as untraced pass k.
    seeds = workloads.paper_grid_seeds(seed)
    passes: list[dict] = []
    traced: list[dict] = []
    holdout = None
    checks: list[str] = []
    start = time.monotonic()
    try:
        while True:
            passes.append(run_pass(seeds[len(passes) % len(seeds)], 0))
            if trace:
                traced.append(run_pass(seeds[len(traced) % len(seeds)], 1))
            done = time.monotonic() - start >= seconds
            if done and len(passes) >= len(seeds):
                break
        if trace:
            holdout = run_pass(seed + 1, 0)
    except PassFailed as exc:
        checks.append(str(exc))
    sampler.stop()
    if not passes or (trace and not traced):
        # Nothing to measure; main() reports every metric as 0.0.
        return {"metrics": {}, "layers": {}, "report": {"passes": len(passes)},
                "checks": checks, "attempted": 1, "failed": 1}

    crashed = len(checks)
    digests: dict[int, set[str]] = {}
    for index, p in [*enumerate(passes), *enumerate(traced)]:
        digests.setdefault(index % len(seeds), set()).add(digest(p["cells"]))
    if any(len(found) != 1 for found in digests.values()):
        checks.append(f"simulated outputs differ between passes of one seed: {digests}")
    failed = sum(p["failed"] + p["mismatches"] for p in passes + traced) + crashed
    if any(p["failed"] for p in passes + traced):
        checks.append("failed cells")
    if any(p["mismatches"] for p in passes + traced):
        checks.append("warm grid differs from the cold pass")
    attempted = sum(p["cold_cells"] + p["warm_cells"] for p in passes + traced) + crashed

    def pass_figures(p: dict, scale) -> dict[str, float]:
        """One pass's setup and throughput, each interval scaled by
        ``scale(start, end)``."""
        return {
            "setup_s": (p["ready"] - p["spawned"]) * scale(p["spawned"], p["ready"]),
            "cold_cells_per_s": p["cold_cells"] / (
                (p["cold"][1] - p["cold"][0]) * scale(*p["cold"])),
            "warm_cells_per_s": p["warm_cells"] / (
                (p["warm"][1] - p["warm"][0]) * scale(*p["warm"])),
        }

    def figures(scale) -> dict[str, float]:
        """Setup is the median pass; throughput pools the cells and the
        scaled seconds of every pass (steadier than a median of 4-6)."""
        metrics = {
            "setup_s": statistics.median(
                (p["ready"] - p["spawned"]) * scale(p["spawned"], p["ready"])
                for p in passes),
            "cold_cells_per_s": sum(p["cold_cells"] for p in passes) / sum(
                (p["cold"][1] - p["cold"][0]) * scale(*p["cold"]) for p in passes),
            "warm_cells_per_s": sum(p["warm_cells"] for p in passes) / sum(
                (p["warm"][1] - p["warm"][0]) * scale(*p["warm"]) for p in passes),
        }
        latencies = [
            ms * scale(end - ms / 1e3, end)
            for p in passes
            for ms, end in zip(p["latencies_ms"], p["cell_ends"])
        ]
        metrics["request_p50_ms"] = quantile(latencies, 0.5)
        metrics["request_tail_ms"] = tail(latencies)
        metrics["peak_rss_mb"] = statistics.median(p["rss_mb"] for p in passes)
        return metrics

    metrics = figures(sampler.factor)
    samples = sum(len(p["latencies_ms"]) for p in passes)
    per_pass = [pass_figures(p, sampler.factor) for p in passes]
    sim = sim_metrics(passes[0]["cells"], paper=True)
    report = {
        "passes": len(passes),
        "cells_per_pass": passes[0]["cold_cells"],
        "request_tail_percentile": tail_quantile(samples) * 100,
        "request_samples": samples,
        "raw": figures(lambda start, end: 1.0),
        "per_pass": per_pass,
        "digest": digest(passes[0]["cells"]),
        "dataset_seeds": seeds,
        "sim": sim,
    }
    layers: dict[str, float] = {}
    if trace:
        pass_layers = trace_layers(
            [p["spans"] for p in traced], [tuple(p["window"]) for p in traced]
        )
        rows = []
        for p, info in zip(traced, pass_layers):
            row = layer_metrics(info["table"])
            row.update(store_metrics(p["store"]))
            row["runner.cell_failures"] = p["failed"]
            row["trace.coverage"] = info["coverage"]
            rows.append(row)
        layers = median_of(rows)

        def cold_s(p: dict) -> float:
            return (p["cold"][1] - p["cold"][0]) * sampler.factor(*p["cold"])

        layers["trace.overhead"] = (
            statistics.median(cold_s(p) for p in traced)
            / statistics.median(cold_s(p) for p in passes) - 1
        )
        layers.update(sim)
        if holdout is not None:
            layers["sim.fig7_log_error.holdout"] = sim_metrics(
                holdout["cells"], paper=True
            )["sim.fig7_log_error"]
            report["holdout_seed"] = seed + 1
        write_trace(
            f"paper_grid-seed{seed}",
            [(p["spans"], p["pid"], f"paper_grid traced pass {i}") for i, p in enumerate(traced)],
            min(p["window"][0] for p in traced),
            [info["table"] for info in pass_layers],
        )
    return {"metrics": metrics, "layers": layers, "report": report,
            "checks": checks, "attempted": attempted, "failed": failed}


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------


class Server:
    """``repro serve --port 0 --cache-dir <fresh>`` via ``serve.py``."""

    def __init__(self, tag: str, trace: int) -> None:
        self.info = os.path.join(SCRATCH, f"server-{tag}.json")
        self.cache = os.path.join(SCRATCH, f"cache-{tag}")
        shutil.rmtree(self.cache, ignore_errors=True)
        self.lines: list[str] = []
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve.py"), "--trace", str(trace),
             "--info", self.info, "--", "--port", "0", "--cache-dir", self.cache],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            self.port = self._await_port()
            from repro.service import ServiceClient

            probe = ServiceClient("127.0.0.1", self.port, timeout=10)
            while True:
                try:
                    probe.health()
                    break
                except OSError:
                    if self.proc.poll() is not None:
                        raise
                    time.sleep(0.005)
            self.ready = time.monotonic()
        except BaseException:
            self.stop()
            raise
        self._drainer = threading.Thread(target=self._drain, daemon=True)
        self._drainer.start()

    def _await_port(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = self.proc.stderr.readline()
            if not line:
                break
            self.lines.append(line)
            if "listening on http://" in line:
                address = line.split("http://", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
        raise RuntimeError("server did not start:\n" + "".join(self.lines))

    def _drain(self) -> None:
        for line in self.proc.stderr:
            self.lines.append(line)

    def stop(self) -> dict:
        """SIGTERM (graceful drain), wait, and read the launcher's info."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if hasattr(self, "_drainer"):
            self._drainer.join(timeout=10)
        shutil.rmtree(self.cache, ignore_errors=True)
        info: dict = {}
        try:
            with open(self.info) as handle:
                info = json.load(handle)
            with open(self.info + ".rss") as handle:
                info["rss_mb_at_spec"] = float(handle.read())
        except (OSError, ValueError):
            pass
        for path in (self.info, self.info + ".rss"):
            if os.path.exists(path):
                os.unlink(path)
        return info


def request_kind(sources: dict[str, int]) -> str:
    """A request is cold when the server computed any of its cells,
    attached when it joined a running job for any (and computed none),
    and warm when every cell came from the memo or the store."""
    if sources["computed"]:
        return "cold"
    return "attached" if sources["attached"] else "warm"


def load_phase(server: Server, seed: int, seconds: float) -> dict:
    """Closed loop of CLIENTS threads for ``seconds`` of load, and at
    least until the cold request of spec RSS_SPEC has completed.

    The load runs in segments of SEGMENT_S. After each one (and before the
    first) the clients hold back until no request is in flight and the
    server sits idle for QUIET_S: only reference samples taken in these
    quiet windows scale the figures, so the server's own CPU use never
    reaches the reference slice.
    """
    from repro.api import ExperimentSpec
    from repro.service import ServiceClient, ServiceClientError

    sequence = workloads.RequestSequence(seed)
    cond = threading.Condition()
    state = {"running": False, "stop": False, "inflight": 0}
    records: list[dict] = []
    envelopes: dict[tuple, set[str]] = {}
    rss_taken = threading.Event()

    def client_loop(index: int) -> None:
        client = ServiceClient("127.0.0.1", server.port, client_id=f"bench-{index}")
        while True:
            with cond:
                cond.wait_for(lambda: state["running"] or state["stop"])
                if state["stop"]:
                    return
                state["inflight"] += 1
                spec_index, spec_dict, new = sequence.next()
            spec = ExperimentSpec(**spec_dict)
            sent = time.monotonic()
            record = {"spec": spec_index, "ok": False, "cells": 0,
                      "sent": sent, "client": index}
            cells = []
            sources = dict.fromkeys(SOURCES, 0)
            try:
                # ?trace=1 only adds each cell's provenance to the envelope
                # (the cell payload is unchanged); the server settings stay
                # at their defaults.
                with client.run(spec, trace=True) as stream:
                    for envelope in stream:
                        now = time.monotonic()
                        record.setdefault("first_ms", (now - sent) * 1e3)
                        if envelope.get("event") == "result":
                            cells.append(envelope["cell"])
                            sources[envelope["source"]] += 1
                        elif envelope.get("event") == "end":
                            record["ms"] = (now - sent) * 1e3
                            record["ok"] = (
                                envelope.get("ok") is True
                                and envelope.get("cells") == spec.grid_size
                            )
                    record["ok"] = record["ok"] and stream.ended
            except (ServiceClientError, OSError, KeyError) as exc:
                record["error"] = repr(exc)
            record["ok"] = record["ok"] and all(
                "failure" not in cell for cell in cells
            ) and len(cells) == spec.grid_size
            record["cells"] = len(cells)
            record["sources"] = sources
            record["kind"] = request_kind(sources)
            if spec_index == RSS_SPEC and new:
                server.proc.send_signal(signal.SIGUSR1)
                rss_taken.set()
            with cond:
                records.append(record)
                for cell in cells:
                    key = (spec_index, cell["platform"], cell["model"], cell["dataset"])
                    envelopes.setdefault(key, set()).add(canonical(cell))
                state["inflight"] -= 1
                cond.notify_all()

    def quiet_window() -> tuple[float, float]:
        with cond:
            state["running"] = False
            cond.wait_for(lambda: state["inflight"] == 0)
        begin = time.monotonic()
        time.sleep(QUIET_S)
        return begin, time.monotonic()

    threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    quiet = [quiet_window()]
    segments: list[tuple[float, float]] = []
    loaded = 0.0
    while loaded < seconds or not rss_taken.is_set():
        begin = time.monotonic()
        with cond:
            state["running"] = True
            cond.notify_all()
        time.sleep(max(0.5, min(SEGMENT_S, seconds - loaded)))
        quiet.append(quiet_window())
        # A segment ends when its last request has returned.
        segments.append((begin, quiet[-1][0]))
        loaded += quiet[-1][0] - begin
    with cond:
        state["stop"] = True
        cond.notify_all()
    for thread in threads:
        thread.join()
    stats = ServiceClient("127.0.0.1", server.port).stats()
    return {"records": records, "envelopes": envelopes, "issued": sequence.issued,
            "stats": stats, "wall": loaded, "segments": segments, "quiet": quiet}


def verify_service(phases: list[dict]) -> tuple[list[str], dict[int, list[dict]]]:
    """Compare every distinct delivered cell with a local Session run."""
    from repro.api import ExperimentSpec, Session

    checks: list[str] = []
    expected: dict[int, list[dict]] = {}
    issued = max((phase["issued"] for phase in phases), key=len)
    wanted = sorted({key[0] for phase in phases for key in phase["envelopes"]})
    with Session() as session:
        for spec_index in wanted:
            grid = session.run(ExperimentSpec(**issued[spec_index]), on_error="collect")
            expected[spec_index] = [cell.to_dict() for cell in grid]
    for phase in phases:
        for key, seen in phase["envelopes"].items():
            spec_index = key[0]
            reference = {
                canonical(cell) for cell in expected[spec_index]
                if (cell["platform"], cell["model"], cell["dataset"]) == key[1:]
            }
            if len(seen) != 1 or seen != reference:
                checks.append(f"service envelope differs from Session for {key}")
    return checks, expected


def phase_digest(phase: dict) -> str:
    """Digest of the delivered cells of the first DIGEST_SPECS specs."""
    return digest([
        json.loads(min(seen))
        for key, seen in phase["envelopes"].items()
        if key[0] < DIGEST_SPECS
    ])


def load_s_per_request(phase: dict, scale) -> float:
    """Load seconds per request, each segment scaled by ``scale(start, end)``."""
    return sum(
        (end - start) * scale(start, end) for start, end in phase["segments"]
    ) / len(phase["records"])


def run_service(seed: int, seconds: float, trace: bool,
                sampler: reference.Sampler) -> dict:
    spawns = []
    for spawn in range(SPAWNS - 1):
        server = Server(f"setup{spawn}", 0)
        spawns.append((server.spawned, server.ready))
        server.stop()
    server = Server("load", 0)
    spawns.append((server.spawned, server.ready))
    # A traced run splits --seconds between the untraced and traced phase.
    phase_seconds = seconds / 2 if trace else seconds
    try:
        phase = load_phase(server, seed, phase_seconds)
    finally:
        info = server.stop()
    phases = [phase]
    traced_info: dict = {}
    if trace:
        traced_server = Server("traced", 1)
        try:
            traced_phase = load_phase(traced_server, seed, phase_seconds)
        finally:
            traced_info = traced_server.stop()
        phases.append(traced_phase)
    sampler.stop()
    # Scale by the samples taken while one server spawned at a time (as
    # on paper_grid) and in the load's quiet windows.
    sampler.keep_only(
        [(spawns[0][0], spawns[-1][1])] + [w for p in phases for w in p["quiet"]],
        margin=SEGMENT_S,
    )

    verify_start = time.monotonic()
    checks, expected = verify_service(phases)
    mismatches = len(checks)
    verify_s = time.monotonic() - verify_start
    records = phase["records"]
    failed_requests = sum(1 for p in phases for r in p["records"] if not r["ok"])
    attempted = sum(len(p["records"]) for p in phases)
    if failed_requests:
        checks.append(f"{failed_requests} failed or aborted requests")
    failed = failed_requests + mismatches
    if "rss_mb_at_spec" not in info:
        checks.append(f"server did not report its peak RSS at spec {RSS_SPEC}")
    first_digest = phase_digest(phase)
    if any(i not in expected for i in range(DIGEST_SPECS)):
        checks.append(f"run issued fewer than {DIGEST_SPECS} specs")

    def by_kind(kind: str) -> list[dict]:
        return [r for r in records if r["ok"] and r["kind"] == kind]

    def figures(scale) -> dict[str, float]:
        """End-to-end figures, each interval scaled by ``scale(start, end)``."""

        def ms(r: dict) -> float:
            return r["ms"] * scale(r["sent"], r["sent"] + r["ms"] / 1e3)

        def cells_per_s(rows: list[dict]) -> float:
            """Cells per request / median request latency."""
            if not rows:
                return 0.0
            return statistics.median(r["cells"] for r in rows) / (
                statistics.median(ms(r) for r in rows) / 1e3
            )

        latencies = [ms(r) for r in records if r["ok"]]
        return {
            "setup_s": statistics.median(
                (ready - spawned) * scale(spawned, ready) for spawned, ready in spawns
            ),
            "cold_cells_per_s": cells_per_s(by_kind("cold")),
            "warm_cells_per_s": cells_per_s(by_kind("warm")),
            "request_p50_ms": quantile(latencies, 0.5),
            "request_tail_ms": tail(latencies),
            "peak_rss_mb": info.get("rss_mb_at_spec", 0.0),
        }

    metrics = figures(sampler.factor)
    latencies = [r["ms"] for r in records if r["ok"]]
    firsts = [r["first_ms"] for r in records if r["ok"]]
    first_tail_ms = tail(firsts)
    requests_per_s = len(latencies) / phase["wall"]
    all_cells = [c for cells in expected.values() for c in cells]
    report = {
        "requests": len(records),
        "kinds": {k: len(by_kind(k)) for k in ("cold", "warm", "attached")},
        "request_tail_percentile": tail_quantile(len(latencies)) * 100,
        "request_samples": len(latencies),
        "raw": figures(lambda start, end: 1.0),
        "requests_per_s": requests_per_s,
        "first_cell_p50_ms": quantile(firsts, 0.5),
        "first_cell_tail_ms": first_tail_ms,
        "first_cell_tail_percentile": tail_quantile(len(firsts)) * 100,
        "specs_issued": len(phase["issued"]),
        "server_final_rss_mb": info.get("rss_mb", 0.0),
        "verify_s": verify_s,
        "digest": first_digest,
        "service_stats": phase["stats"],
        "sim": sim_metrics(all_cells, paper=False),
    }
    layers: dict[str, float] = {}
    if trace:
        traced_phase = phases[1]
        recorded = traced_info.get("spans", [])
        table = spans.aggregate(recorded)
        layers = layer_metrics(table)
        layers.update(store_metrics(traced_phase["stats"].get("store")))
        service = traced_phase["stats"]["service"]
        sources = {
            source: sum(r["sources"][source] for r in traced_phase["records"])
            for source in SOURCES
        }
        layers.update({
            "runner.cell_failures": sum(1 for r in traced_phase["records"] if not r["ok"]),
            "service.submitted": service.get("submitted", 0),
            "service.executed": service.get("executed", 0),
            "service.deduped": service.get("deduped", 0),
            "service.dedupe_ratio": service.get("deduped", 0) / max(1, service.get("submitted", 0)),
            "service.computed_cells": sources["computed"],
            "service.warm_cells": sources["warm"],
            "service.attached_cells": sources["attached"],
            "service.rejected": service.get("rejected", 0),
            "service.requests_per_s": requests_per_s,
            "service.first_cell_p50_ms": report["first_cell_p50_ms"],
            "service.first_cell_tail_ms": first_tail_ms,
            "trace.coverage": sum(
                spans.covered_s(recorded, segment) for segment in traced_phase["segments"]
            ) / traced_phase["wall"],
            "trace.overhead": load_s_per_request(traced_phase, sampler.factor)
            / load_s_per_request(phase, sampler.factor) - 1,
        })
        report["trace_overhead_raw"] = load_s_per_request(
            traced_phase, lambda start, end: 1.0
        ) / load_s_per_request(phase, lambda start, end: 1.0) - 1
        layers.update(report["sim"])
        requests = [
            (0, 0, f"client.request.{r['kind']}", r["client"], r["sent"],
             r["sent"] + r.get("ms", 0.0) / 1e3)
            for r in traced_phase["records"]
        ]
        write_trace(
            f"service_mix-seed{seed}",
            [(recorded, traced_server.proc.pid, "repro serve (traced)"),
             (requests, os.getpid(), "benchmark clients")],
            traced_server.spawned, [table],
        )
        if phase_digest(traced_phase) != first_digest:
            checks.append("traced digest differs from untraced")
    return {"metrics": metrics, "layers": layers, "report": report,
            "checks": checks, "attempted": attempted, "failed": failed}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("paper_grid", "service_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: simulator sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(SCRATCH, exist_ok=True)

    stamp = machine_stamp()
    sampler = reference.Sampler(os.path.join(SCRATCH, f"reference-{os.getpid()}.txt"))
    try:
        if args.workload == "service_mix":
            result = run_service(args.seed, args.seconds, bool(args.trace), sampler)
        else:
            result = run_grid(args.seed, args.seconds, bool(args.trace), sampler)
    except (RuntimeError, OSError) as exc:
        # The server never came up; report the failure like any other.
        result = {"metrics": {}, "layers": {}, "report": {}, "checks": [repr(exc)],
                  "attempted": 1, "failed": 1}
    finally:
        sampler.stop()
    stamp["reference_slice_s"] = statistics.median(d for _, d in sampler.samples or [(0, 0.0)])

    wanted = contract["per_layer" if args.trace else "end_to_end"]
    # Layers a workload bypasses read 0 (e.g. store on paper_grid), and so
    # does every metric of a run whose passes all failed.
    values = {spec["name"]: 0.0 for spec in wanted} | result[
        "layers" if args.trace else "metrics"
    ]
    metrics = {
        spec["name"]: {"value": float(values[spec["name"]]), "unit": spec["unit"]}
        for spec in wanted
    }
    correct = not result["checks"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": stamp, "report": result["report"],
        "checks": result["checks"], "metrics": metrics,
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    for name, metric in metrics.items():
        print(f"{name:36} {metric['value']:>16.6g} {metric['unit']}")
    print("machine", canonical(stamp))
    print("report", canonical(result["report"]))
    for finding in result["checks"]:
        print("CHECK FAILED:", finding)
    if correct and args.trace and metrics["trace.coverage"]["value"] < 0.95:
        print(f"finding: {1 - metrics['trace.coverage']['value']:.1%} of traced wall time "
              "is outside every span")
    print(canonical({"correct": correct, "attempted": result["attempted"],
                     "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
