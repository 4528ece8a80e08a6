"""Seeded inputs of the benchmark workloads.

One ``--seed`` drives everything here: the paper grid's dataset seeds
and the service_mix spec pool and request sequence. Only the generated specs
reach the simulator. This module imports nothing from ``repro``; specs
are plain dicts in
:meth:`ExperimentSpec.to_dict` layout (minus configuration blocks, which
keep their defaults).
"""

from __future__ import annotations

import random

PLATFORMS = ["t4", "a100", "hihgnn", "hihgnn+gdr"]
PAPER_MODELS = ["rgcn", "rgat", "simple_hgn"]
PAPER_DATASETS = ["acm", "imdb", "dblp"]

#: paper_grid: dataset seeds a run cycles its passes over.
GRID_SEEDS = 4
#: service_mix: every NEW_EVERY-th request introduces a fresh spec. At 2,
#: fresh specs and attaches outnumber warm hits, so the median request is
#: a computed one, whose latency the reference slice tracks. With warm
#: hits in the majority the median was a ~3 ms warm request waiting on the
#: GIL behind a running compute, and it jumped by up to 1.7x between runs.
NEW_EVERY = 2
#: service_mix: Zipf exponent over already-issued specs, ranked by recency.
ZIPF_S = 1.2


def paper_grid_seeds(seed: int) -> list[int]:
    """Dataset seeds of one paper_grid run: ``seed`` itself, then
    GRID_SEEDS - 1 more drawn from it. Cell costs depend on the generated
    graphs, so a run cycles its passes over several of them instead of
    timing one seed's grid."""
    rng = random.Random(f"paper_grid:{seed}")
    return [seed] + [rng.randrange(1 << 30) for _ in range(GRID_SEEDS - 1)]


def paper_grid_spec(seed: int) -> dict:
    """Fig. 7: 4 platforms x 3 models x acm/imdb/dblp at scale 1.0."""
    return {
        "platforms": PLATFORMS,
        "models": PAPER_MODELS,
        "datasets": PAPER_DATASETS,
        "seed": seed,
        "scale": 1.0,
    }


def _service_spec(rng: random.Random, seed: int, index: int) -> dict:
    """1 medium scenario x 4 platforms x 2 models (a ~0.3 s cold request).

    Families and model pairs cycle by spec index, so every run has the
    same mix; the seed draws the scenario parameters.
    """
    if index % 2 == 0:
        dataset = (
            f"skew:num_src={rng.randrange(1792, 2304)},"
            f"num_dst={rng.randrange(896, 1152)},"
            f"num_edges={rng.randrange(7168, 9216)},"
            f"exponent={rng.uniform(0.5, 1.1):.3f}"
        )
    else:
        dataset = (
            f"community:num_src={rng.randrange(896, 1152)},"
            f"num_dst={rng.randrange(896, 1152)},"
            f"num_edges={rng.randrange(3584, 4608)},"
            f"num_blocks=16,mixing={rng.uniform(0.05, 0.3):.3f}"
        )
    return {
        "platforms": PLATFORMS,
        "models": [PAPER_MODELS[index % 3], PAPER_MODELS[(index + 1) % 3]],
        "datasets": [dataset],
        "seed": seed,
        "scale": 1.0,
    }


class RequestSequence:
    """The service_mix request stream: an endless, seeded spec sequence.

    Request ``k`` with ``k % NEW_EVERY == 0`` introduces a fresh spec
    (a cold compute on the server); every other request repeats an
    already-issued spec drawn Zipf-like by recency rank, so popular
    specs are recent ones. Repeats of completed specs are warm memo or
    store hits; repeats of specs still in flight attach to the running
    job (in-flight dedupe). The cold share is exactly ``1/NEW_EVERY``
    in every prefix, which keeps runs of any length comparable.

    Not thread-safe: callers serialize :meth:`next`.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"service_mix:{seed}")
        self._seed = seed
        self.issued: list[dict] = []
        self._count = 0

    def next(self) -> tuple[int, dict, bool]:
        """``(spec index, spec, is_new)`` of the next request."""
        k = self._count
        self._count += 1
        if k % NEW_EVERY == 0 or not self.issued:
            self.issued.append(
                _service_spec(self._rng, self._seed, len(self.issued))
            )
            return len(self.issued) - 1, self.issued[-1], True
        n = len(self.issued)
        weights = [1.0 / (rank ** ZIPF_S) for rank in range(1, n + 1)]
        rank = self._rng.choices(range(n), weights=weights)[0]
        index = n - 1 - rank
        return index, self.issued[index], False
