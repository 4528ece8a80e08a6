"""The paper's figures and tables from one reduced-scale Session."""

import pytest

from repro.analysis.thrashing import thrashing_analysis
from repro.api import ExperimentSpec, Session
from repro.api.results import SystemConfigReport, geomean
from repro.api.spec import DEFAULT_PLATFORMS
from repro.energy.breakdown import figure10_shares
from repro.graph.datasets import DATASET_SPECS
from repro.graph.stats import graph_stats
from repro.models.base import ModelConfig

FAST = ExperimentSpec(
    datasets=("acm", "imdb"),
    models=("rgcn",),
    seed=3,
    scale=0.08,
    model_config=ModelConfig(hidden_dim=32, num_heads=4, embed_dim=8),
)


@pytest.fixture(scope="module")
def session():
    return Session(FAST)


@pytest.fixture(scope="module")
def grid(session):
    return session.run()


class TestSessionCells:
    def test_results_cached(self, session, grid):
        a = session.cell("t4", "rgcn", "acm")
        b = session.cell("t4", "rgcn", "acm")
        assert a is b
        assert a is grid.cell("t4", "rgcn", "acm")

    def test_unknown_platform(self, session):
        with pytest.raises(ValueError, match="unknown platform"):
            session.cell("h100", "rgcn", "acm")

    def test_unknown_dataset(self, session):
        with pytest.raises(ValueError, match="unknown dataset 'aacm'"):
            session.cell("t4", "rgcn", "aacm")

    def test_unknown_model(self, session):
        with pytest.raises(KeyError, match="unknown model 'rgnn'"):
            session.cell("t4", "rgnn", "acm")

    def test_model_alias_runs_the_same_model(self, session):
        alias = session.cell("t4", "RGCN", "acm")
        assert alias.time_ms == session.cell("t4", "rgcn", "acm").time_ms

    def test_registered_variant_runs_through_session(self, session):
        """A fifth platform is one decorator away from the whole grid."""
        import dataclasses

        from repro.gpu.config import A100
        from repro.gpu.platform import GPUPlatform
        from repro.platforms import register_platform, unregister_platform

        @register_platform("a100-slow-hbm")
        class SlowHBMA100(GPUPlatform):
            gpu_config = dataclasses.replace(A100, mem_bw_gbps=320.0)

        try:
            slow = session.cell("a100-slow-hbm", "rgcn", "acm")
            assert slow.time_ms >= session.cell("a100", "rgcn", "acm").time_ms
        finally:
            unregister_platform("a100-slow-hbm")


class TestFigures:
    def test_figure7_structure(self, grid):
        f7 = grid.speedup("t4")
        assert "GEOMEAN" in f7
        for platform in DEFAULT_PLATFORMS:
            assert f7["GEOMEAN"]["all"][platform] > 0
        assert f7["GEOMEAN"]["all"]["t4"] == pytest.approx(1.0)

    def test_figure7_ordering(self, grid):
        """Expected platform ordering: T4 slowest, GDR system fastest."""
        g = grid.speedup("t4")["GEOMEAN"]["all"]
        assert g["a100"] > g["t4"]
        assert g["hihgnn"] > g["a100"]
        assert g["hihgnn+gdr"] >= g["hihgnn"] * 0.95

    def test_figure8_accelerators_access_less(self, grid):
        g = grid.dram_traffic("t4")["GEOMEAN"]["all"]
        assert g["t4"] == pytest.approx(1.0)
        assert g["hihgnn"] < g["t4"]
        assert g["hihgnn+gdr"] <= g["hihgnn"] * 1.05

    def test_figure9_accelerators_better_utilization(self, grid):
        g = grid.bandwidth()["GEOMEAN"]["all"]
        assert g["hihgnn"] > g["t4"]
        assert g["hihgnn+gdr"] > g["a100"]

    def test_geomean_bar_is_geomean_of_cells(self, grid):
        f7 = grid.speedup("t4")
        for platform in DEFAULT_PLATFORMS:
            cells = [f7["rgcn"][d][platform] for d in FAST.datasets]
            assert f7.geomean(platform) == pytest.approx(geomean(cells))

    def test_figure2_profiles(self, session):
        for dataset in FAST.datasets:
            profile = thrashing_analysis(
                session.graph(dataset),
                "rgcn",
                config=FAST.accelerator,
                model_config=FAST.model_config,
                semantic_graphs=session.semantic_graphs(dataset),
            )
            assert 0.0 <= profile.na_hit_ratio <= 1.0
            assert profile.redundant_accesses >= 0

    def test_section3_l2(self, session):
        for dataset in FAST.datasets:
            ratio = session.cell("t4", "rgcn", dataset).na_l2_hit_ratio
            assert 0.0 <= ratio <= 1.0

    def test_figure10(self):
        shares = figure10_shares(FAST.accelerator, FAST.frontend)
        assert 0 < shares["gdr_area_share"] < 0.1


class TestTable2:
    def test_table2_rows(self, session):
        rows = [
            (dataset, vtype, session.graph(dataset).num_vertices(vtype))
            for dataset in FAST.datasets
            for vtype in session.graph(dataset).vertex_types
        ]
        assert len(rows) == 8  # two datasets x four types
        for dataset, vtype, vertices in rows:
            assert vtype in DATASET_SPECS[dataset].num_vertices
            assert vertices > 0

    def test_dataset_profile(self, session):
        profile = {
            str(sg.relation): graph_stats(sg).as_dict()
            for sg in session.semantic_graphs("acm")
        }
        assert profile
        assert all(stats["num_edges"] > 0 for stats in profile.values())


class TestTable3:
    def test_table3_structure(self):
        table = SystemConfigReport.from_configs(
            FAST.accelerator, FAST.frontend
        )
        assert table["hihgnn"]["peak_tflops"] == pytest.approx(16.38)
        assert table["gdr-hgnn"]["fifo_kb"] == pytest.approx(8.0)
