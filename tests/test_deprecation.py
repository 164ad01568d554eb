"""Tests for the package boundary.

The pre-facade entry points are retired: ``SimilarityIndex`` /
``ShardedIndex`` are facade internals importable from their submodules
only, and the old ingest service, its micro-batcher and the embedding-store
module are gone (the engine bulk-encodes and owns its snapshot files).
Hand-wiring the internals still gives the facade's exact answers, and
internal imports stay warning-free.

Also covers the lazy top-level package: ``import repro`` is cheap and
resolves sub-packages plus the facade entry points on attribute access
(PEP 562).
"""

from __future__ import annotations

import importlib
import subprocess
import sys
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

import repro
from repro.api import Engine, EngineConfig, QueryRequest


@dataclass
class FakeTrajectory:
    length: int
    trajectory_id: int

    def __len__(self) -> int:
        return self.length


def linear_encode(batch: list[FakeTrajectory]) -> np.ndarray:
    return np.array(
        [[t.length, t.trajectory_id % 7, t.trajectory_id % 3] for t in batch],
        dtype=np.float32,
    )


CORPUS = [FakeTrajectory(length=3 + (i % 9), trajectory_id=200 + i) for i in range(40)]


class TestFacadeInternals:
    @pytest.mark.parametrize(
        "package, name, submodule",
        [
            ("repro.serving", "SimilarityIndex", "repro.serving.index"),
            ("repro.streaming", "ShardedIndex", "repro.streaming.shards"),
        ],
    )
    def test_importable_from_their_submodule_only(self, package, name, submodule):
        pkg = importlib.import_module(package)
        assert name not in pkg.__all__
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(pkg, name)
        assert isinstance(getattr(importlib.import_module(submodule), name), type)

    @pytest.mark.parametrize(
        "module, name",
        [
            ("repro.streaming", "IngestService"),
            ("repro.streaming", "MicroBatcher"),
            ("repro.streaming.reader", "MicroBatcher"),
            ("repro.streaming", "SNAPSHOT_FORMAT_VERSION"),
            ("repro.streaming", "DEFAULT_QUERY_CACHE_SIZE"),
        ],
    )
    def test_retired_ingest_path_is_gone(self, module, name):
        assert not hasattr(importlib.import_module(module), name)

    def test_ingest_service_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.streaming.service")

    def test_embedding_store_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.serving.store")

    def test_internal_submodule_imports_stay_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.serving.index import SimilarityIndex  # noqa: F401
            from repro.streaming.shards import ShardedIndex  # noqa: F401
            import repro.eval  # noqa: F401
            import repro.experiments  # noqa: F401

    def test_manual_wiring_matches_the_facade(self):
        """Hand-wired encode → index gives the ``chunked`` backend's answers."""
        from repro.serving.index import SimilarityIndex

        vectors = linear_encode(CORPUS)
        old_result = SimilarityIndex(vectors, database_chunk_size=8).topk(vectors[:5], k=7)

        engine = Engine(linear_encode, EngineConfig(backend="chunked", database_chunk_size=8))
        engine.ingest(CORPUS)
        new_result = engine.query(QueryRequest(queries=vectors[:5], k=7))

        np.testing.assert_array_equal(old_result.indices, new_result.ids)
        assert (old_result.distances == new_result.distances).all()

    def test_hand_built_sharded_index_matches_the_facade(self):
        """A hand-built ``ShardedIndex`` gives the ``sharded`` backend's answers."""
        from repro.streaming.shards import ShardedIndex

        index = ShardedIndex.from_vectors(linear_encode(CORPUS), shard_capacity=16)
        queries = linear_encode(CORPUS[:4])
        old = index.top_k(queries, k=5)

        engine = Engine(linear_encode, EngineConfig(backend="sharded", shard_capacity=16))
        engine.ingest(CORPUS)
        new = engine.query(QueryRequest(queries=queries, k=5))

        np.testing.assert_array_equal(old.indices, new.ids)
        assert (old.distances == new.distances).all()

    def test_unknown_attribute_still_raises(self):
        import repro.serving
        import repro.streaming

        with pytest.raises(AttributeError):
            repro.serving.NoSuchThing
        with pytest.raises(AttributeError):
            repro.streaming.NoSuchThing


class TestLazyTopLevelPackage:
    def test_subpackages_resolve_lazily(self):
        assert repro.api.Engine is Engine
        assert repro.core.STARTModel is not None
        assert repro.nn.no_grad is not None

    def test_facade_entry_points_reexported(self):
        assert repro.Engine is Engine
        assert repro.EngineConfig is EngineConfig
        assert "Engine" in repro.__all__
        assert "api" in repro.__all__

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'bogus'"):
            repro.bogus

    def test_dir_lists_lazy_names(self):
        names = dir(repro)
        assert "api" in names and "Engine" in names and "__version__" in names

    def test_import_repro_is_lazy_and_light(self):
        """`import repro` must not drag in the heavy model stack (PEP 562)."""
        code = (
            "import sys, repro\n"
            "heavy = [m for m in sys.modules if m.startswith(('repro.core', 'repro.nn', 'repro.api'))]\n"
            "print(len(heavy))\n"
            "repro.api.Engine\n"
            "print('repro.api' in sys.modules and 'repro.core' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        first, second = result.stdout.strip().splitlines()
        assert first == "0"
        assert second == "True"
