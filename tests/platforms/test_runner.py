"""GridRunner as a pure executor; Session owns the memo and the store."""

import dataclasses

import pytest

from repro.api import ExperimentSpec, Session
from repro.models.base import ModelConfig
from repro.platforms import ArtifactStore, GridRunner, PlatformContext

SMALL_MODEL = ModelConfig(hidden_dim=32, num_heads=4, embed_dim=8)
PLATFORMS = ("t4", "a100", "hihgnn", "hihgnn+gdr")
MODELS = ("rgcn",)
DATASETS = ("acm", "imdb")
CELLS = [(p, m, d) for p in PLATFORMS for m in MODELS for d in DATASETS]


def make_runner(**kwargs):
    context = PlatformContext(model_config=SMALL_MODEL)
    kwargs.setdefault("seed", 3)
    kwargs.setdefault("scale", 0.08)
    return GridRunner(context, **kwargs)


def small_spec(**overrides) -> ExperimentSpec:
    params = dict(
        platforms=("hihgnn",),
        models=MODELS,
        datasets=("acm",),
        seed=3,
        scale=0.08,
        model_config=SMALL_MODEL,
    )
    params.update(overrides)
    return ExperimentSpec(**params)


def run_all(runner, cells, *, jobs=1):
    """Warm, then fan out: the sequence Session.run_iter drives."""
    runner.warm_artifacts([dataset for _, _, dataset in cells], jobs=jobs)
    return dict(runner.run_cells(cells, jobs=jobs))


def report_fingerprint(report):
    return (
        report.platform,
        report.model,
        report.dataset,
        report.time_ms,
        report.dram_accesses,
        report.dram_bytes,
        report.bandwidth_utilization,
        report.na_hit_ratio if hasattr(report, "na_hit_ratio") else None,
    )


def cell_addresses(tmp_path, spec, key=("hihgnn", "rgcn", "acm")):
    """``(store key, content key)`` of one cell under ``spec``."""
    session = Session(spec, store=ArtifactStore(tmp_path))
    store_key = session._cell_store_key(session._workspace(spec), spec, key)
    return store_key, session.cell_content_key(key)


class TestGridRunner:
    def test_parallel_equals_serial(self):
        serial = run_all(make_runner(), CELLS)
        parallel = run_all(make_runner(), CELLS, jobs=4)
        assert serial.keys() == parallel.keys() == set(CELLS)
        for key, report in serial.items():
            assert report_fingerprint(report) == report_fingerprint(
                parallel[key]
            ), key

    def test_every_call_simulates(self):
        """The runner keeps no results; the memo lives in Session."""
        runner = make_runner()
        first = runner.run_cell("t4", "rgcn", "acm")
        second = runner.run_cell("t4", "rgcn", "acm")
        assert second is not first
        assert report_fingerprint(second) == report_fingerprint(first)

    def test_duplicate_cells_deduped(self):
        spec = small_spec(platforms=("t4", "t4"), datasets=("acm", "acm"))
        session = Session(spec, jobs=2)
        grid = session.run()
        assert [cell.key for cell in grid.cells] == [("t4", "rgcn", "acm")]
        assert list(session._workspace(spec).cells) == [("t4", "rgcn", "acm")]

    def test_unknown_platform_fails_before_any_work(self):
        session = Session(small_spec())
        with pytest.raises(ValueError, match="unknown platform"):
            session.cell("nope", "rgcn", "acm")
        runner = session.runner
        with pytest.raises(ValueError, match="unknown platform"):
            list(runner.run_cells([("nope", "rgcn", "acm")], jobs=1))
        assert not runner._graphs
        assert not session._workspace(session.spec).cells

    def test_artifacts_shared_across_platforms(self):
        runner = make_runner()
        run_all(
            runner, [("t4", "rgcn", "acm"), ("hihgnn", "rgcn", "acm")], jobs=2
        )
        assert runner.artifacts("acm") is runner.artifacts("acm")
        sgs = runner.artifacts("acm").semantic_graphs
        for sg in sgs:
            assert sg._na_artifact is not None


class TestSessionStoreKeys:
    def test_store_entries_keyed_by_config(self, tmp_path):
        spec = small_spec()
        store = ArtifactStore(tmp_path)
        Session(spec, store=store).run()
        assert store.stats.misses == 1

        # Same config: hit. Different accelerator config: miss.
        hit = ArtifactStore(tmp_path)
        Session(spec, store=hit).run()
        assert (hit.stats.hits, hit.stats.misses) == (1, 0)

        small = dataclasses.replace(spec.accelerator, na_buffer_bytes=1 << 20)
        changed = spec.replace(accelerator=small)
        miss = ArtifactStore(tmp_path)
        Session(changed, store=miss).run()
        assert (miss.stats.hits, miss.stats.misses) == (0, 1)

        # The service's dedupe key moves with the store key.
        base = cell_addresses(tmp_path, spec)
        assert cell_addresses(tmp_path, spec) == base
        other = cell_addresses(tmp_path, changed)
        assert other[0] != base[0]
        assert other[1] != base[1]

    def test_store_entries_keyed_by_seed_and_scale(self, tmp_path):
        spec = small_spec(platforms=("t4",))
        Session(spec, store=ArtifactStore(tmp_path)).run()
        base = cell_addresses(tmp_path, spec, ("t4", "rgcn", "acm"))
        for variant in (spec.replace(seed=4), spec.replace(scale=0.1)):
            other = ArtifactStore(tmp_path)
            Session(variant, store=other).run()
            assert other.stats.hits == 0
            store_key, content_key = cell_addresses(
                tmp_path, variant, ("t4", "rgcn", "acm")
            )
            assert store_key != base[0]
            assert content_key != base[1]


class TestSessionTables:
    def test_warm_store_skips_all_simulation(self, tmp_path):
        spec = small_spec(platforms=PLATFORMS, datasets=DATASETS)
        cold = Session(spec, store=ArtifactStore(tmp_path)).run(jobs=2)

        warm_session = Session(spec, store=ArtifactStore(tmp_path))
        warm = warm_session.run()
        cells = len(PLATFORMS) * len(MODELS) * len(DATASETS)
        assert warm_session.store.stats.hits == cells
        assert warm_session.store.stats.misses == 0
        assert not warm_session.runner._graphs  # nothing was regenerated
        assert warm.speedup("t4") == cold.speedup("t4")

    def test_parallel_equals_serial_tables(self):
        spec = small_spec(platforms=PLATFORMS, datasets=DATASETS)
        serial = Session(spec).run()
        parallel = Session(spec, jobs=4).run()
        assert serial.speedup("t4") == parallel.speedup("t4")
        assert serial.dram_traffic("t4") == parallel.dram_traffic("t4")
        assert serial.bandwidth() == parallel.bandwidth()
