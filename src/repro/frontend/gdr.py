"""GDR-HGNN frontend and its pipelined integration with HiHGNN.

The frontend restructures semantic graphs *on the fly*: while the
accelerator executes graph ``k``, the Decoupler/Recoupler work on graph
``k+1`` ("GDR-HGNN continuously receives and restructures the next
semantic graph", §4.3). Only the first graph's restructuring latency is
fully exposed; later frontend work hides behind accelerator execution
unless the frontend is slower.

:class:`GDRHGNNSystem` performs that overlap with an explicit
ready-time simulation: the accelerator may start graph ``i`` no earlier
than the frontend finishes it and no earlier than the owning lane is
free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accelerator.config import HiHGNNConfig
from repro.accelerator.hihgnn import HiHGNNSimulator, SimulationReport
from repro.accelerator.scheduler import similarity_schedule
from repro.frontend.config import GDRConfig
from repro.frontend.decoupler import Decoupler, DecouplerReport
from repro.frontend.recoupler import Recoupler, RecouplerReport
from repro.graph.hetero import HeteroGraph
from repro.graph.semantic import SemanticGraph, build_semantic_graphs
from repro.models.base import ModelConfig
from repro.restructure.recouple import RestructureResult

__all__ = ["FrontendReport", "GDRFrontend", "GDRHGNNSystem"]


@dataclass
class FrontendReport:
    """Combined Decoupler + Recoupler cost for one semantic graph."""

    relation: str
    decoupler: DecouplerReport
    recoupler: RecouplerReport

    @property
    def cycles(self) -> int:
        # Decoupling and recoupling of the *same* graph serialize
        # (recoupling needs the full candidate set).
        return self.decoupler.cycles + self.recoupler.cycles

    @property
    def dram_bytes_read(self) -> int:
        return self.decoupler.dram_bytes_read + self.recoupler.dram_bytes_read

    @property
    def dram_bytes_written(self) -> int:
        return self.recoupler.dram_bytes_written


class GDRFrontend:
    """The complete frontend: decouple, then recouple, with cycle cost.

    Args:
        config: frontend microarchitecture parameters.
        backbone_strategy: passed to the Recoupler (``"konig"`` default).
        max_depth: recursive restructuring depth. The paper notes the
            method "can be applied to subgraphs to generate smaller
            sub-subgraphs"; each recursion re-runs both hardware units
            on the subgraphs, and all costs accumulate.
        min_edges: recursion cut-off.
        naive: run the Decoupler's matching and hash replay and the
            Recoupler's backbone selection on their original per-edge
            reference loops instead of the vectorized engines
            (bit-identical output). The community walk has a single
            scalar engine either way.
    """

    def __init__(
        self,
        config: GDRConfig | None = None,
        *,
        backbone_strategy: str = "konig",
        max_depth: int = 0,
        min_edges: int = 64,
        community_budget: int = 256,
        naive: bool = False,
    ) -> None:
        self.config = config or GDRConfig()
        self.decoupler = Decoupler(self.config, naive=naive)
        self.recoupler = Recoupler(
            self.config, backbone_strategy, community_budget, naive=naive
        )
        self.max_depth = max_depth
        self.min_edges = min_edges

    def restructure(
        self, graph: SemanticGraph
    ) -> tuple[RestructureResult, FrontendReport]:
        """Restructure one semantic graph, reporting hardware cost."""
        return self._restructure(graph, depth=0)

    def _restructure(
        self, graph: SemanticGraph, depth: int
    ) -> tuple[RestructureResult, FrontendReport]:
        matching, dec_report = self.decoupler.run(graph)
        result, rec_report = self.recoupler.run(graph, matching)
        report = FrontendReport(
            relation=str(graph.relation),
            decoupler=dec_report,
            recoupler=rec_report,
        )
        if depth < self.max_depth:
            children: list[RestructureResult | None] = []
            for sub in result.subgraphs:
                if sub.num_edges >= self.min_edges:
                    child, child_report = self._restructure(sub, depth + 1)
                    children.append(child)
                    # Fold the child's full counter set into the parent
                    # report, not just cycles and DRAM traffic --
                    # recursive runs previously dropped the event
                    # counters, skewing every per-counter derived rate.
                    parent_dec, child_dec = report.decoupler, child_report.decoupler
                    parent_dec.cycles += child_dec.cycles
                    parent_dec.dram_bytes_read += child_dec.dram_bytes_read
                    parent_dec.fifo_pushes += child_dec.fifo_pushes
                    parent_dec.fifo_pops += child_dec.fifo_pops
                    parent_dec.hash_conflicts += child_dec.hash_conflicts
                    parent_dec.augmenting_paths += child_dec.augmenting_paths
                    parent_rec, child_rec = report.recoupler, child_report.recoupler
                    parent_rec.cycles += child_rec.cycles
                    parent_rec.dram_bytes_read += child_rec.dram_bytes_read
                    parent_rec.dram_bytes_written += child_rec.dram_bytes_written
                    parent_rec.candidates_processed += child_rec.candidates_processed
                    parent_rec.edges_emitted += child_rec.edges_emitted
                else:
                    children.append(None)
            result.children = children
        return result, report


@dataclass
class SystemRunArtifacts:
    """Intermediate artifacts of one system run (exposed for analysis)."""

    frontend_reports: list[FrontendReport] = field(default_factory=list)
    restructure_results: dict[str, RestructureResult] = field(default_factory=dict)


class GDRHGNNSystem:
    """HiHGNN + GDR-HGNN with pipelined frontend/accelerator execution."""

    def __init__(
        self,
        accelerator_config: HiHGNNConfig | None = None,
        frontend_config: GDRConfig | None = None,
        model_config: ModelConfig | None = None,
        *,
        max_depth: int = 0,
        community_budget: int | None = None,
        naive: bool = False,
    ) -> None:
        self.accelerator = HiHGNNSimulator(accelerator_config, model_config)
        if community_budget is None:
            # The Recoupler's community size tracks the NA buffer: one
            # community's sources should occupy a fraction of the
            # source-feature capacity so several communities coexist.
            entries = (
                self.accelerator.config.lane_na_src_bytes
                // self.accelerator.model_config.feature_vector_bytes
            )
            community_budget = max(32, entries // 16)
        self.frontend = GDRFrontend(
            frontend_config,
            max_depth=max_depth,
            community_budget=community_budget,
            naive=naive,
        )

    def run(
        self,
        graph: HeteroGraph,
        model_name: str,
        *,
        semantic_graphs: list[SemanticGraph] | None = None,
        artifacts: SystemRunArtifacts | None = None,
    ) -> SimulationReport:
        """Simulate the combined system on one dataset and model.

        Returns a :class:`SimulationReport` whose ``total_cycles``
        includes exposed frontend latency, whose DRAM statistics merge
        frontend topology traffic with accelerator traffic, and whose
        ``frontend_cycles`` records the frontend's total busy time.
        """
        if semantic_graphs is None:
            semantic_graphs = build_semantic_graphs(graph)
        order = similarity_schedule(semantic_graphs)
        ordered = [semantic_graphs[i] for i in order]

        frontend_reports: list[FrontendReport] = []
        restructured: dict[str, RestructureResult] = {}
        for sg in ordered:
            result, report = self.frontend.restructure(sg)
            frontend_reports.append(report)
            restructured[str(sg.relation)] = result

        accel = self.accelerator.run(
            graph,
            model_name,
            restructured=restructured,
            use_similarity_schedule=False,
            semantic_graphs=ordered,
            platform_name="hihgnn+gdr",
        )

        # Ready-time pipeline: frontend finishes graphs back-to-back;
        # the accelerator starts each graph when both the frontend
        # output and the owning lane are available.
        num_lanes = self.accelerator.config.num_lanes
        lane_free = [0] * num_lanes
        frontend_clock = 0
        for record, freport in zip(accel.graph_records, frontend_reports):
            frontend_clock += freport.cycles
            lane = record["lane"]
            start = max(lane_free[lane], frontend_clock)
            lane_free[lane] = start + record["cycles"]
        pipelined_total = max(lane_free) if lane_free else 0

        frontend_cycles = sum(r.cycles for r in frontend_reports)
        frontend_read = sum(r.dram_bytes_read for r in frontend_reports)
        frontend_written = sum(r.dram_bytes_written for r in frontend_reports)

        accel.total_cycles = max(accel.total_cycles, pipelined_total)
        accel.frontend_cycles = frontend_cycles
        accel.dram.bytes_read += frontend_read
        accel.dram.bytes_written += frontend_written
        # Topology streams count as one access per super-row chunk.
        chunk = self.accelerator.config.hbm.row_bytes * (
            self.accelerator.config.hbm.num_channels
        )
        accel.dram.reads += -(-frontend_read // chunk) if frontend_read else 0
        accel.dram.writes += -(-frontend_written // chunk) if frontend_written else 0
        peak = self.accelerator.config.hbm.peak_bytes_per_cycle
        accel._bw_util = (
            min(1.0, accel.dram.total_bytes / (peak * accel.total_cycles))
            if accel.total_cycles
            else 0.0
        )

        if artifacts is not None:
            artifacts.frontend_reports = frontend_reports
            artifacts.restructure_results = restructured
        return accel
