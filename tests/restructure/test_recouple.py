"""Tests for graph recoupling (subgraph generation + scheduling)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.semantic import build_semantic_graphs
from repro.restructure.backbone import BackbonePartition, select_backbone_konig
from repro.restructure.matching import maximum_matching
from repro.restructure.recouple import (
    SUBGRAPH_LABELS,
    _community_schedule,
    recouple,
)
from repro.scenarios import build_scenario
from tests.conftest import build_semantic
from tests.restructure.test_matching_vec import STRESS_REFS

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"


def _restructure(sg, budget=256):
    matching = maximum_matching(sg)
    partition = select_backbone_konig(sg, matching)
    return recouple(sg, matching, partition, community_budget=budget)


class TestRecouple:
    def test_three_subgraphs(self, make_semantic):
        sg = make_semantic(8, 8, num_edges=20, seed=1)
        result = _restructure(sg)
        assert len(result.subgraphs) == 3
        assert result.labels == SUBGRAPH_LABELS

    def test_edges_partitioned_exactly(self, make_semantic):
        sg = make_semantic(10, 10, num_edges=35, seed=2)
        result = _restructure(sg)
        result.validate()  # checks cover, partition and schedules

    def test_subgraph_roles(self, make_semantic):
        sg = make_semantic(6, 6, num_edges=15, seed=3)
        result = _restructure(sg)
        src_in = result.partition.src_in_mask
        dst_in = result.partition.dst_in_mask
        g1, g2, g3 = result.subgraphs
        assert not src_in[g1.src].any() and dst_in[g1.dst].all()
        assert src_in[g2.src].all() and dst_in[g2.dst].all()
        assert src_in[g3.src].all() and not dst_in[g3.dst].any()

    def test_invalid_partition_rejected(self, make_semantic):
        sg = make_semantic(3, 3, [(0, 0), (1, 1)])
        bad = BackbonePartition(
            src_in_mask=np.zeros(3, dtype=bool),
            dst_in_mask=np.zeros(3, dtype=bool),
        )
        with pytest.raises(ValueError, match="not a vertex cover"):
            recouple(sg, maximum_matching(sg), bad)

    def test_empty_graph(self, make_semantic):
        sg = make_semantic(3, 3, [])
        result = _restructure(sg)
        assert result.total_subgraph_edges() == 0
        result.validate()

    def test_schedule_covers_active_destinations(self, make_semantic):
        sg = make_semantic(12, 12, num_edges=40, seed=4)
        result = _restructure(sg)
        for sub, schedule in zip(result.subgraphs, result.dst_schedules):
            assert set(schedule.tolist()) == set(sub.active_dst().tolist())
            assert len(schedule) == len(set(schedule.tolist()))

    def test_invalid_budget_rejected(self, make_semantic):
        sg = make_semantic(3, 3, [(0, 0)])
        with pytest.raises(ValueError, match="budget"):
            _restructure(sg, budget=0)

    def test_leaves_without_children(self, make_semantic):
        sg = make_semantic(8, 8, num_edges=24, seed=5)
        result = _restructure(sg)
        leaves = result.leaves()
        assert sum(sub.num_edges for sub, _ in leaves) == sg.num_edges

    def test_backbone_size_property(self, make_semantic):
        sg = make_semantic(7, 7, num_edges=18, seed=6)
        result = _restructure(sg)
        assert result.backbone_size == result.matching.size  # König


class TestCommunitySchedule:
    def test_exact_order_on_hand_built_graph(self, make_semantic):
        """Pins the seed order, FIFO expansion and the drain after budget.

        Source rows (ascending, as the CSR stores them)::

            src 0 -> 1 3 5      src 3 -> 1 7
            src 1 -> 3 6        src 4 -> 0 2
            src 2 -> 3 4        src 5 -> 0 2

        Destination 3 has degree 3, destinations 0, 1 and 2 have
        degree 2, the rest degree 1. With budget 2 the walk runs:

        1. Seed dst 3, the only degree-3 destination. Popping it absorbs
           sources 0, 1 and 2 (the pop that crosses the budget still
           takes its whole row) and enqueues 1, 5, then 6, then 4.
        2. The budget is spent, so 1, 5, 6, 4 drain in FIFO order
           without expanding: dst 1 never absorbs source 3, so dst 7
           stays out of this community.
        3. Reseed at dst 0: among the unvisited degree-2 destinations
           the stable sort keeps the lower id first. Popping it absorbs
           sources 4 and 5 and enqueues 2, which drains.
        4. Reseed at dst 7, the last unvisited destination.

        Without the cap, step 2 would absorb source 3 from dst 1 and
        pull dst 7 into the first community. The cap is reached at
        exactly ``budget`` sources: budget 3 still drains after the
        first pop, budget 4 expands once more.
        """
        edges = [
            (0, 1), (0, 3), (0, 5), (1, 3), (1, 6), (2, 3), (2, 4),
            (3, 1), (3, 7), (4, 0), (4, 2), (5, 0), (5, 2),
        ]
        sg = make_semantic(6, 8, edges)
        np.testing.assert_array_equal(
            _community_schedule(sg, 2), [3, 1, 5, 6, 4, 0, 2, 7]
        )
        np.testing.assert_array_equal(
            _community_schedule(sg, 3), [3, 1, 5, 6, 4, 0, 2, 7]
        )
        for budget in (4, 256):
            np.testing.assert_array_equal(
                _community_schedule(sg, budget), [3, 1, 5, 6, 4, 7, 0, 2]
            )

    def test_dense_random_graph_validates(self):
        rng = np.random.default_rng(11)
        num_src = num_dst = 80
        codes = rng.choice(num_src * num_dst, size=3000, replace=False)
        edges = [(int(c) // num_dst, int(c) % num_dst) for c in codes]
        sg = build_semantic(num_src, num_dst, edges)
        _restructure(sg, budget=64).validate()

    @pytest.mark.parametrize("ref", STRESS_REFS)
    @pytest.mark.parametrize("budget", [1, 7, 256])
    def test_scenario_schedules_keep_contract(self, ref, budget):
        for sg in build_semantic_graphs(build_scenario(ref, seed=3)):
            assert_schedule_contract(sg, _community_schedule(sg, budget), budget)

    @settings(max_examples=40, deadline=None)
    @given(
        num_src=st.integers(1, 30),
        num_dst=st.integers(1, 30),
        density=st.floats(0.0, 0.8),
        budget=st.integers(1, 40),
        seed=st.integers(0, 2**16),
    )
    def test_random_schedules_keep_contract(
        self, num_src, num_dst, density, budget, seed
    ):
        rng = np.random.default_rng(seed)
        num_edges = int(density * num_src * num_dst)
        src = rng.integers(0, num_src, num_edges)
        dst = rng.integers(0, num_dst, num_edges)
        sg = build_semantic(num_src, num_dst, list(zip(src, dst)))
        assert_schedule_contract(sg, _community_schedule(sg, budget), budget)


def assert_schedule_contract(sg, schedule, budget):
    """Check a community schedule against its contract, without re-walking.

    The schedule is a permutation of the active destinations. A
    destination that shares no source with any earlier one opens a new
    community, so it must be the unvisited destination of highest degree
    (lowest id on ties). When the budget cannot cut a community short
    (``budget >= num_src``), each connected component of destinations
    is scheduled as one contiguous run.
    """
    active = sg.active_dst()
    assert sorted(schedule.tolist()) == active.tolist()
    deg = sg.dst_degrees()
    seeds = active[np.argsort(-deg[active], kind="stable")].tolist()
    scheduled = np.zeros(sg.num_dst, dtype=bool)
    touched = np.zeros(sg.num_src, dtype=bool)
    next_seed = 0
    for d in schedule.tolist():
        while scheduled[seeds[next_seed]]:
            next_seed += 1
        sources = sg.csc.neighbors(d)
        if not touched[sources].any():
            assert d == seeds[next_seed], (d, seeds[next_seed])
        scheduled[d] = True
        touched[sources] = True
    if budget >= sg.num_src and len(schedule):
        runs = _dst_components(sg)[schedule]
        starts = runs[np.r_[True, runs[1:] != runs[:-1]]]
        assert len(starts) == len(set(starts.tolist())), "component split"


def _dst_components(sg):
    """Connected-component label of every destination (union-find)."""
    parent = list(range(sg.num_dst))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in range(sg.num_src):
        row = sg.csr.neighbors(s).tolist()
        for w in row[1:]:
            parent[find(w)] = find(row[0])
    return np.array([find(v) for v in range(sg.num_dst)], dtype=np.int64)


_BROKEN_RESULTS_UNDER_O = """
import dataclasses

import numpy as np

from repro.graph.hetero import Relation
from repro.graph.semantic import SemanticGraph
from repro.restructure.backbone import select_backbone_konig
from repro.restructure.matching import maximum_matching
from repro.restructure.recouple import recouple

if __debug__:
    raise SystemExit("expected python -O")
src = np.array([0, 0, 1, 2, 2, 3], dtype=np.int64)
dst = np.array([0, 1, 1, 2, 3, 3], dtype=np.int64)
sg = SemanticGraph(Relation("a", "r", "b"), 4, 4, src, dst)
matching = maximum_matching(sg)
result = recouple(sg, matching, select_backbone_konig(sg, matching))
result.validate()
k = next(i for i, s in enumerate(result.dst_schedules) if len(s))
repeated = list(result.dst_schedules)
repeated[k] = np.concatenate([repeated[k], repeated[k][:1]])
for broken in (
    dataclasses.replace(result, subgraphs=[], dst_schedules=[]),
    dataclasses.replace(result, dst_schedules=repeated),
):
    try:
        broken.validate()
    except AssertionError as exc:
        print(exc)
    else:
        raise SystemExit("validate() accepted a broken result")
"""


def test_validate_raises_under_python_optimize():
    """``validate()`` must not rely on ``assert`` statements."""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_RESULTS_UNDER_O],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC_ROOT)},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "subgraphs carry 0 edges, original has 6",
        "schedule repeats destinations",
    ]


@given(
    num_src=st.integers(2, 20),
    num_dst=st.integers(2, 20),
    seed=st.integers(0, 1000),
    frac=st.floats(0.05, 0.6),
)
@settings(max_examples=80, deadline=None)
def test_property_recoupling_invariants(num_src, num_dst, seed, frac):
    """All structural invariants hold on arbitrary random graphs."""
    rng = np.random.default_rng(seed)
    max_edges = num_src * num_dst
    num_edges = max(1, int(max_edges * frac))
    codes = rng.choice(max_edges, size=num_edges, replace=False)
    edges = [(int(c) // num_dst, int(c) % num_dst) for c in codes]
    sg = build_semantic(num_src, num_dst, edges)
    result = _restructure(sg)
    result.validate()
    # No edge between Src_out and Dst_out (the defining property).
    src_in = result.partition.src_in_mask
    dst_in = result.partition.dst_in_mask
    both_out = ~src_in[sg.src] & ~dst_in[sg.dst]
    assert not both_out.any()
