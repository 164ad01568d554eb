"""Tests for the serving layer's scan kernels, through SimilarityIndex.

The contract under test is *exactness*: the chunked, partially-selected
index must return the same neighbours and ranks as a brute-force float64
distance matrix with a stable full argsort, on data without contrived ties.
Also covers ``check_new_ids``, the explicit-id check behind every backend's
``add``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.similarity import euclidean_distance_matrix, top_k_indices
from repro.serving.index import SimilarityIndex, check_new_ids


def brute_force_distances(queries: np.ndarray, database: np.ndarray) -> np.ndarray:
    queries = np.asarray(queries, dtype=np.float64)
    database = np.asarray(database, dtype=np.float64)
    q_norm = (queries**2).sum(axis=1)[:, None]
    d_norm = (database**2).sum(axis=1)[None, :]
    return np.sqrt(np.maximum(q_norm + d_norm - 2.0 * queries @ database.T, 0.0))


def brute_force_topk(queries: np.ndarray, database: np.ndarray, k: int) -> np.ndarray:
    return np.argsort(brute_force_distances(queries, database), axis=1, kind="stable")[:, :k]


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

    def test_top_k_indices_matches_bruteforce(self, rng):
        distances = rng.standard_normal((15, 40)) ** 2
        expected = np.argsort(distances, axis=1, kind="stable")[:, :4]
        np.testing.assert_array_equal(top_k_indices(distances, 4), expected)
        # k >= row length degenerates to a full stable sort.
        np.testing.assert_array_equal(
            top_k_indices(distances, 40), np.argsort(distances, axis=1, kind="stable")
        )
