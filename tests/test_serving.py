"""Tests for the serving layer: EmbeddingStore + SimilarityIndex.

The contract under test is *exactness*: the chunked, partially-selected
index must return the same neighbours and ranks as a brute-force float64
distance matrix with a stable full argsort, on data without contrived ties.
Also covers ``check_new_ids``, the explicit-id check behind every backend's
``add``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.eval.similarity import (
    euclidean_distance_matrix,
    ranks_of_ground_truth,
    top_k_indices,
)
from repro.serving.index import SimilarityIndex, check_new_ids
from repro.serving.store import FORMAT_VERSION, EmbeddingStore


def brute_force_distances(queries: np.ndarray, database: np.ndarray) -> np.ndarray:
    queries = np.asarray(queries, dtype=np.float64)
    database = np.asarray(database, dtype=np.float64)
    q_norm = (queries**2).sum(axis=1)[:, None]
    d_norm = (database**2).sum(axis=1)[None, :]
    return np.sqrt(np.maximum(q_norm + d_norm - 2.0 * queries @ database.T, 0.0))


def brute_force_topk(queries: np.ndarray, database: np.ndarray, k: int) -> np.ndarray:
    return np.argsort(brute_force_distances(queries, database), axis=1, kind="stable")[:, :k]


@dataclass
class FakeTrajectory:
    """Minimal stand-in: only ``__len__`` and ``trajectory_id`` are used."""

    length: int
    trajectory_id: int

    def __len__(self) -> int:
        return self.length


def linear_encode(batch: list[FakeTrajectory]) -> np.ndarray:
    """Deterministic per-trajectory embedding (independent of batching)."""
    return np.array(
        [[t.length, t.trajectory_id % 7, t.trajectory_id % 3] for t in batch],
        dtype=np.float32,
    )


class TestSimilarityIndex:
    @pytest.mark.parametrize("k", [1, 5, 17])
    @pytest.mark.parametrize("query_chunk,database_chunk", [(256, 4096), (13, 61)])
    def test_topk_matches_bruteforce(self, rng, k, query_chunk, database_chunk):
        database = rng.standard_normal((300, 16)).astype(np.float32)
        queries = rng.standard_normal((40, 16)).astype(np.float32)
        index = SimilarityIndex(
            database, query_chunk_size=query_chunk, database_chunk_size=database_chunk
        )
        result = index.topk(queries, k)
        expected = brute_force_topk(queries, database, k)
        np.testing.assert_array_equal(result.indices, expected)
        assert result.distances.dtype == np.float32
        assert (np.diff(result.distances, axis=1) >= 0).all()

    def test_topk_exact_on_1k_queries_5k_database(self, rng):
        """The acceptance-criterion case: seeded 1k x 5k, identical neighbours."""
        database = rng.standard_normal((5000, 32)).astype(np.float32)
        queries = rng.standard_normal((1000, 32)).astype(np.float32)
        result = SimilarityIndex(database, database_chunk_size=1024).topk(queries, 5)
        np.testing.assert_array_equal(result.indices, brute_force_topk(queries, database, 5))

    def test_topk_clamps_k_and_handles_empty_queries(self, rng):
        database = rng.standard_normal((6, 4)).astype(np.float32)
        index = SimilarityIndex(database)
        assert index.topk(rng.standard_normal((3, 4)), 100).indices.shape == (3, 6)
        assert index.topk(np.zeros((0, 4)), 2).indices.shape == (0, 2)
        with pytest.raises(ValueError):
            index.topk(rng.standard_normal((3, 4)), 0)
        with pytest.raises(ValueError):
            index.topk(rng.standard_normal((3, 4)), -1)
        with pytest.raises(ValueError):
            index.topk(rng.standard_normal((3, 5)), 2)  # dimension mismatch

    def test_topk_on_empty_database(self, rng):
        index = SimilarityIndex(np.empty((0, 4), dtype=np.float32))
        assert len(index) == 0
        result = index.topk(rng.standard_normal((3, 4)), 5)
        assert result.indices.shape == (3, 0)
        assert result.distances.shape == (3, 0)
        with pytest.raises(ValueError):
            index.topk(rng.standard_normal((3, 4)), 0)  # k < 1 still rejected

    def test_topk_k_equals_database_size(self, rng):
        database = rng.standard_normal((12, 4)).astype(np.float32)
        queries = rng.standard_normal((5, 4)).astype(np.float32)
        result = SimilarityIndex(database).topk(queries, k=12)
        np.testing.assert_array_equal(result.indices, brute_force_topk(queries, database, 12))

    def test_topk_k_exceeds_database_size_clamps(self, rng):
        database = rng.standard_normal((7, 4)).astype(np.float32)
        queries = rng.standard_normal((4, 4)).astype(np.float32)
        result = SimilarityIndex(database).topk(queries, k=50)
        assert result.indices.shape == (4, 7)
        np.testing.assert_array_equal(result.indices, brute_force_topk(queries, database, 7))

    def test_tie_breaking_prefers_lower_index(self):
        database = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], dtype=np.float32)
        queries = np.array([[1.0, 0.0]], dtype=np.float32)
        result = SimilarityIndex(database).topk(queries, 3)
        np.testing.assert_array_equal(result.indices, [[0, 2, 1]])

    def test_ranks_of_matches_stable_argsort(self, rng):
        database = rng.standard_normal((500, 8)).astype(np.float32)
        queries = rng.standard_normal((60, 8)).astype(np.float32)
        truth = rng.integers(0, 500, size=60)
        index = SimilarityIndex(database, query_chunk_size=7, database_chunk_size=93)
        ranks = index.ranks_of(queries, truth)
        order = np.argsort(brute_force_distances(queries, database), axis=1, kind="stable")
        expected = np.array(
            [int(np.where(order[i] == truth[i])[0][0]) + 1 for i in range(len(truth))]
        )
        np.testing.assert_array_equal(ranks, expected)

    def test_ranks_of_validates_input(self, rng):
        index = SimilarityIndex(rng.standard_normal((10, 4)))
        with pytest.raises(ValueError):
            index.ranks_of(rng.standard_normal((3, 4)), np.array([0, 1]))
        with pytest.raises(ValueError):
            index.ranks_of(rng.standard_normal((2, 4)), np.array([0, 10]))


class TestEmbeddingStore:
    def test_build_preserves_row_order_and_ids(self, rng):
        trajectories = [
            FakeTrajectory(length=int(rng.integers(3, 60)), trajectory_id=100 + i)
            for i in range(25)
        ]
        store = EmbeddingStore.build(linear_encode, trajectories, batch_size=4)
        np.testing.assert_array_equal(store.vectors, linear_encode(trajectories))
        np.testing.assert_array_equal(store.ids, [t.trajectory_id for t in trajectories])

    def test_build_batches_by_length(self, rng):
        trajectories = [
            FakeTrajectory(length=int(rng.integers(3, 200)), trajectory_id=i) for i in range(40)
        ]
        seen_batches: list[list[int]] = []

        def recording_encode(batch):
            seen_batches.append([len(t) for t in batch])
            return linear_encode(batch)

        EmbeddingStore.build(recording_encode, trajectories, batch_size=8)
        flattened = [length for batch in seen_batches for length in batch]
        assert flattened == sorted(flattened)  # batches walk the length order

    def test_build_rejects_empty_and_bad_batches(self):
        with pytest.raises(ValueError):
            EmbeddingStore.build(linear_encode, [])
        with pytest.raises(ValueError):
            EmbeddingStore.build(
                lambda batch: np.zeros((1, 3), dtype=np.float32),
                [FakeTrajectory(3, 0), FakeTrajectory(4, 1)],
            )

    def test_save_load_round_trip(self, rng, tmp_path):
        store = EmbeddingStore(
            rng.standard_normal((12, 5)).astype(np.float32),
            ids=np.arange(100, 112),
            metadata={"model": "START", "epoch": 5},
        )
        path = store.save(tmp_path / "embeddings.npz")
        loaded = EmbeddingStore.load(path)
        np.testing.assert_array_equal(loaded.vectors, store.vectors)
        np.testing.assert_array_equal(loaded.ids, store.ids)
        assert loaded.metadata == {"model": "START", "epoch": 5}
        assert loaded.vectors.dtype == np.float32

    def test_load_refuses_future_format(self, rng, tmp_path):
        store = EmbeddingStore(rng.standard_normal((3, 2)).astype(np.float32))
        path = store.save(tmp_path / "future.npz")
        import json

        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = json.loads(bytes(arrays["__embedding_store_meta__"].tobytes()).decode())
        meta["format_version"] = FORMAT_VERSION + 1
        arrays["__embedding_store_meta__"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="format"):
            EmbeddingStore.load(path)

    def test_empty_store_round_trip(self, tmp_path):
        store = EmbeddingStore(np.empty((0, 5), dtype=np.float32), metadata={"note": "empty"})
        assert len(store) == 0 and store.dim == 5
        loaded = EmbeddingStore.load(store.save(tmp_path / "empty.npz"))
        assert len(loaded) == 0
        assert loaded.dim == 5
        assert loaded.metadata == {"note": "empty"}
        assert loaded.ids.shape == (0,)

    def test_load_rejects_mismatched_metadata(self, rng, tmp_path):
        """A version tag whose count/dim disagree with the arrays is refused."""
        store = EmbeddingStore(rng.standard_normal((4, 3)).astype(np.float32))
        path = store.save(tmp_path / "tampered.npz")
        import json

        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = json.loads(bytes(arrays["__embedding_store_meta__"].tobytes()).decode())
        meta["count"] = 99  # tag no longer matches the vectors array
        arrays["__embedding_store_meta__"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="metadata"):
            EmbeddingStore.load(path)

    def test_store_to_index_end_to_end(self, rng):
        vectors = rng.standard_normal((80, 6)).astype(np.float32)
        store = EmbeddingStore(vectors)
        index = SimilarityIndex(store.vectors, database_chunk_size=16)
        result = index.topk(vectors[:10], 3)
        # Each vector's own row is its nearest neighbour at distance ~0.
        np.testing.assert_array_equal(result.indices[:, 0], np.arange(10))


class TestCheckNewIds:
    def test_returns_int64_ids_in_input_order(self):
        ids = check_new_ids([7, 3, 5], 3, present={1, 2})
        assert ids.dtype == np.int64
        np.testing.assert_array_equal(ids, [7, 3, 5])

    def test_accepts_dict_key_views(self):
        rows = {4: "a", 9: "b"}
        np.testing.assert_array_equal(check_new_ids(np.array([1, 2]), 2, rows.keys()), [1, 2])
        with pytest.raises(ValueError, match="row id 9 already present"):
            check_new_ids(np.array([1, 9]), 2, rows.keys())

    @pytest.mark.parametrize("ids", [[1, 2, 3], [[1], [2]], []])
    def test_one_id_per_row(self, ids):
        with pytest.raises(ValueError, match="exactly one entry per vector row"):
            check_new_ids(ids, 2, set())

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="ids must be unique"):
            check_new_ids([4, 8, 4], 3, set())

    def test_names_the_first_offender_in_input_order(self):
        with pytest.raises(ValueError, match="row id 9 already present"):
            check_new_ids([20, 9, 3, 5], 4, present={3, 5, 9})

    def test_tombstoned_rows_cannot_be_reused_until_compaction(self):
        with pytest.raises(ValueError, match="row id 4 is tombstoned but still stored"):
            check_new_ids([21, 4, 8], 3, present={8}, tombstoned={4})
        # Present and tombstoned offenders in one batch: input order decides.
        with pytest.raises(ValueError, match="row id 8 already present"):
            check_new_ids([21, 8, 4], 3, present={8}, tombstoned={4})


class TestEvalHelpers:
    def test_euclidean_distance_matrix_matches_float64(self, rng):
        queries = rng.standard_normal((9, 12))
        database = rng.standard_normal((33, 12))
        chunked = euclidean_distance_matrix(queries, database, chunk_size=10)
        assert chunked.dtype == np.float32
        np.testing.assert_allclose(chunked, brute_force_distances(queries, database), atol=1e-4)

    def test_ranks_of_ground_truth_threshold(self, rng):
        distances = rng.standard_normal((20, 50)) ** 2
        ground_truth = {i: int(rng.integers(0, 50)) for i in range(20)}
        exact = ranks_of_ground_truth(distances, ground_truth)
        capped = ranks_of_ground_truth(distances, ground_truth, threshold=5)
        np.testing.assert_array_equal(capped, np.where(exact <= 5, exact, 6))
        with pytest.raises(ValueError):
            ranks_of_ground_truth(distances, ground_truth, threshold=0)

    def test_top_k_indices_matches_bruteforce(self, rng):
        distances = rng.standard_normal((15, 40)) ** 2
        expected = np.argsort(distances, axis=1, kind="stable")[:, :4]
        np.testing.assert_array_equal(top_k_indices(distances, 4), expected)
        # k >= row length degenerates to a full stable sort.
        np.testing.assert_array_equal(
            top_k_indices(distances, 40), np.argsort(distances, axis=1, kind="stable")
        )
