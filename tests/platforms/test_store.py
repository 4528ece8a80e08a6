"""ArtifactStore: addressing, hit/miss/invalidations, robustness."""

import multiprocessing
import sys

import numpy as np
import pytest

from repro.api import ExperimentSpec, Session
from repro.graph.hetero import HeteroGraph, Relation
from repro.platforms import ArtifactStore, config_digest
from repro.platforms.store import code_version
from repro.scenarios import ScenarioParam, register_scenario, unregister_scenario


class TestAddressing:
    def test_key_distinct_per_axis(self, tmp_path):
        store = ArtifactStore(tmp_path)
        base = store.key_for("t4", "rgcn", "acm", "d0")
        assert store.key_for("t4", "rgcn", "acm", "d0") == base
        assert store.key_for("a100", "rgcn", "acm", "d0") != base
        assert store.key_for("t4", "rgat", "acm", "d0") != base
        assert store.key_for("t4", "rgcn", "imdb", "d0") != base
        assert store.key_for("t4", "rgcn", "acm", "d1") != base

    def test_config_digest_tracks_repr(self):
        assert config_digest(1, 0.3, "x") == config_digest(1, 0.3, "x")
        assert config_digest(1, 0.3, "x") != config_digest(2, 0.3, "x")

    def test_code_version_stable(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16


class TestStorage:
    def test_miss_then_hit(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key_for("t4", "rgcn", "acm", "d0")
        assert store.load(key) is None
        store.save(key, {"time_ms": 1.5})
        assert store.load(key) == {"time_ms": 1.5}
        assert (store.stats.hits, store.stats.misses, store.stats.puts) == (
            1,
            1,
            1,
        )

    def test_persists_across_instances(self, tmp_path):
        first = ArtifactStore(tmp_path)
        key = first.key_for("t4", "rgcn", "acm", "d0")
        first.save(key, [1, 2, 3])
        second = ArtifactStore(tmp_path)
        assert second.load(key) == [1, 2, 3]

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key_for("t4", "rgcn", "acm", "d0")
        store.save(key, "payload")
        path = store._path(key)
        path.write_bytes(b"not a pickle")
        assert store.load(key) is None
        assert not path.exists()
        assert store.load(key) is None  # stays a clean miss

    def test_truncated_entry_is_a_miss_and_removed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key_for("t4", "rgcn", "acm", "d0")
        store.save(key, list(range(1000)))
        path = store._path(key)
        path.write_bytes(path.read_bytes()[:20])  # cut mid-pickle
        assert store.load(key) is None
        assert not path.exists()

    def test_pre_envelope_entry_is_a_miss_and_removed(self, tmp_path):
        import pickle

        store = ArtifactStore(tmp_path)
        key = store.key_for("t4", "rgcn", "acm", "d0")
        path = store._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # What a pre-schema-envelope library version wrote: the bare
        # payload pickle. It unpickles fine but must read as a miss.
        path.write_bytes(pickle.dumps({"time_ms": 1.5}))
        assert store.load(key) is None
        assert not path.exists()

    def test_schema_tag_mismatch_is_a_miss_and_removed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key_for("t4", "rgcn", "acm", "d0")
        store.save(key, {"x": 1}, schema=("cell-result", 1))
        assert store.load(key, schema=("cell-result", 2)) is None
        assert not store._path(key).exists()
        # Matching schema after the wipe: clean miss, then refill works.
        store.save(key, {"x": 2}, schema=("cell-result", 2))
        assert store.load(key, schema=("cell-result", 2)) == {"x": 2}

    def test_delete(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key_for("t4", "rgcn", "acm", "d0")
        assert store.delete(key) is False
        store.save(key, "payload")
        assert store.delete(key) is True
        assert store.load(key) is None

    def test_len_and_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for model in ("rgcn", "rgat", "simple_hgn"):
            store.save(store.key_for("t4", model, "acm", "d0"), model)
        assert len(store) == 3
        assert store.clear() == 3
        assert len(store) == 0

    def test_env_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "env-store"))
        store = ArtifactStore()
        assert store.root == tmp_path / "env-store"
        assert store.root.is_dir()


class TestScenarioInvalidation:
    """A changed scenario parameter (scale/skew/seed) must be a miss.

    Session's cell address (the digest behind both the store key and
    the service's content key) embeds
    :func:`repro.scenarios.workload_digest` —
    a digest of the *resolved* generation recipe — so invalidation
    holds even when the textual dataset name is unchanged (most
    dangerously: when a family's parameter *default* changes).
    """

    def _key(self, dataset, *, seed=1, scale=1.0):
        spec = ExperimentSpec(
            platforms=("t4",),
            models=("rgcn",),
            datasets=(dataset,),
            seed=seed,
            scale=scale,
        )
        session = Session(spec)
        key = ("t4", "rgcn", spec.datasets[0])
        return session._cell_address(session._workspace(spec), spec, key)

    def test_changed_sweep_parameter_is_a_new_key(self):
        base = self._key("skew:exponent=1.0")
        assert self._key("skew:exponent=1.5") != base
        assert self._key("skew:exponent=1.0,num_src=4096") != base

    def test_changed_seed_and_scale_are_new_keys(self):
        base = self._key("skew:exponent=1.0")
        assert self._key("skew:exponent=1.0", seed=2) != base
        assert self._key("skew:exponent=1.0", scale=0.5) != base

    def test_same_sweep_point_is_the_same_key(self):
        assert self._key("skew:exponent=1.0") == self._key(
            "skew:exponent=1.0"
        )

    def test_catalog_datasets_keep_distinct_keys(self):
        assert self._key("acm") != self._key("imdb")
        assert self._key("acm") == self._key("acm")
        assert self._key("acm", seed=2) != self._key(
            "acm"
        )

    def test_changed_family_default_is_a_miss(self):
        """Same name, silently changed default: the dangerous case."""

        def make(default):
            @register_scenario(
                "tmp-inval",
                params=(ScenarioParam("n", default, "size"),),
                doc="store invalidation test family",
            )
            def build(*, seed, scale, n):  # pragma: no cover - never built
                rel = Relation("a", "r", "b")
                ids = np.arange(n, dtype=np.int64)
                return HeteroGraph({"a": n, "b": n}, {"a": 4}, {rel: (ids, ids)})

        make(8)
        try:
            old_key = self._key("tmp-inval")
        finally:
            unregister_scenario("tmp-inval")
        make(16)
        try:
            new_key = self._key("tmp-inval")
        finally:
            unregister_scenario("tmp-inval")
        assert old_key != new_key


def _contending_writer(root: str, worker: int, count: int) -> None:
    store = ArtifactStore(root, fsync=False)
    for n in range(count):
        # Every shard ("k0".."k2") takes writes from every worker.
        store.save(f"k{n % 3}-w{worker}-{n}", {"worker": worker, "n": n})


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX store semantics")
class TestWriterContention:
    def test_forked_writers_lose_no_updates(self, tmp_path):
        """N processes saving distinct keys into shared shards: every
        entry must commit, load back intact and pass the scrub."""
        workers, per_worker = 4, 12
        root = str(tmp_path / "store")
        ArtifactStore(root, fsync=False)  # create the directory once
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(
                target=_contending_writer, args=(root, w, per_worker)
            )
            for w in range(workers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0

        store = ArtifactStore(root, fsync=False)
        expected = {
            f"k{n % 3}-w{w}-{n}": {"worker": w, "n": n}
            for w in range(workers)
            for n in range(per_worker)
        }
        assert len(store) == len(expected)
        for key, payload in expected.items():
            assert store.load(key) == payload
        assert store.verify()["ok"] == len(expected)
        assert store.disk_stats()["tmp_files"] == 0


class TestEntryFiles:
    def test_entry_bytes_independent_of_save_order(self, tmp_path):
        """Stores filled in different orders hold byte-identical entry
        trees: the tree is a pure function of the entry set."""
        keys = [f"{i:02d}" + "cd" * 31 for i in range(4)]

        def tree(root, order):
            store = ArtifactStore(root, fsync=False)
            for key in order:
                store.save(key, {"key": key}, schema="s")
            return {
                str(path.relative_to(store.root)): path.read_bytes()
                for path in sorted(store.root.rglob("*.pkl"))
            }

        forward = tree(tmp_path / "a", keys)
        assert forward == tree(tmp_path / "b", list(reversed(keys)))
        assert len(forward) == len(keys)


class TestOldStoreDirectories:
    @pytest.mark.parametrize(
        "index_text",
        [
            '{"magic": "repro-index", "version": 3, "entries": {}}',
            "{not json",
            "",
        ],
        ids=["catalog", "torn", "empty"],
    )
    def test_leftover_index_files_change_nothing(self, tmp_path, index_text):
        """A root holding an earlier version's ``index.json``,
        ``.index.lock`` and ``*.idx.tmp`` reads exactly like one
        without them: entry files are the whole store."""
        keys = [f"{i:02d}" + "ab" * 31 for i in range(3)]

        def fill(root):
            store = ArtifactStore(root, fsync=False)
            for i, key in enumerate(keys):
                store.save(key, {"i": i}, schema="s")
            return store.root

        clean = fill(tmp_path / "clean")
        old = fill(tmp_path / "old")
        (old / "index.json").write_text(index_text)
        (old / ".index.lock").touch()
        (old / "x.idx.tmp").write_bytes(b"partial index write")

        def observe(root):
            store = ArtifactStore(root, fsync=False)
            disk = store.disk_stats()
            del disk["root"]
            return (
                len(store),
                [store.load(key, schema="s") for key in keys],
                store.verify(),
                disk,
            )

        assert observe(old) == observe(clean)
        # No migration: the leftovers stay where they were.
        assert (old / "index.json").exists()
        assert (old / "x.idx.tmp").exists()
