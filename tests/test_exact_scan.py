"""The running-threshold exact scan against the per-chunk merge it replaced.

``exact_scan_reference.reference_top_k`` is the previous kernel: every
chunk concatenated onto the running candidates and cut back by one
``argpartition``, each shard scanned on its own, then a k-way merge.  The
served scan compares each later chunk against each query's running k-th
distance instead and carries one running top-k through every shard.  Both
select from the same float32 distances, so the answers agree bitwise — ids
too, except where a distance ties the k-th exactly and either tie member is
correct (``assert_matches_reference``'s rule).
"""

from __future__ import annotations

import numpy as np
import pytest
from exact_scan_reference import reference_top_k
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ann import assert_matches_reference

from repro.api import create_backend

EXACT_BACKENDS = ("sharded", "chunked")


def matches_reference(index, queries, k):
    reference = reference_top_k(index, queries, k)
    untied = np.zeros(queries.shape[0], dtype=bool)
    assert_matches_reference(
        index.top_k(queries, k), (reference.indices, reference.distances, untied)
    )
    return reference


def finite_rows_with_nan_rows(rng, rows, dim, nan_rows):
    vectors = rng.standard_normal((rows, dim)).astype(np.float32)
    vectors[nan_rows] = np.nan
    return vectors


class TestMatchesPerChunkMerge:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 300),
        dim=st.integers(1, 24),
        k=st.integers(1, 80),
        chunk=st.integers(1, 48),
        capacity=st.integers(1, 160),
        aligned=st.booleans(),
        tombstone_share=st.sampled_from([0.0, 0.1, 0.6]),
        duplicate_share=st.sampled_from([0.0, 0.3]),
        query_chunk=st.integers(1, 8),
        num_queries=st.integers(1, 20),
        backend=st.sampled_from(EXACT_BACKENDS),
    )
    def test_distances_bitwise_and_ids_outside_boundary_ties(
        self, seed, rows, dim, k, chunk, capacity, aligned, tombstone_share,
        duplicate_share, query_chunk, num_queries, backend,
    ):
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((rows, dim)).astype(np.float32)
        copies = rng.random(rows) < duplicate_share
        vectors[copies] = vectors[rng.integers(0, rows, size=int(copies.sum()))]
        queries = rng.standard_normal((num_queries, dim)).astype(np.float32)
        queries[: num_queries // 2] = vectors[rng.integers(0, rows, size=num_queries // 2)]
        index = create_backend(
            backend,
            shard_capacity=chunk * max(1, capacity // chunk) if aligned else capacity,
            query_chunk_size=query_chunk,
            database_chunk_size=chunk,
        )
        index.add(vectors)
        dead = np.flatnonzero(rng.random(rows) < tombstone_share)
        index.remove(dead[: rows - 1])  # keep one alive row
        matches_reference(index, queries, k)


class TestNaNRows:
    """A NaN row's distance is NaN; it must never hide a finite row."""

    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    def test_first_chunk_short_of_k_finite_rows(self, rng, backend):
        chunk, k = 16, 5
        vectors = finite_rows_with_nan_rows(rng, 200, 6, np.arange(3, chunk))
        queries = rng.standard_normal((7, 6)).astype(np.float32)
        index = create_backend(backend, shard_capacity=32, database_chunk_size=chunk)
        index.add(vectors)
        result, reference = index.top_k(queries, k), reference_top_k(index, queries, k)
        assert np.isfinite(result.distances).all()
        assert result.distances.tobytes() == reference.distances.tobytes()
        np.testing.assert_array_equal(result.indices, reference.indices)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(2, 200),
        k=st.integers(1, 20),
        chunk=st.integers(1, 32),
        capacity_multiple=st.integers(1, 4),
        nan_share=st.sampled_from([0.2, 0.5, 0.9]),
        backend=st.sampled_from(EXACT_BACKENDS),
    )
    def test_finite_answer_matches_reference(
        self, seed, rows, k, chunk, capacity_multiple, nan_share, backend
    ):
        rng = np.random.default_rng(seed)
        nan_rows = np.flatnonzero(rng.random(rows) < nan_share)
        vectors = finite_rows_with_nan_rows(rng, rows, 5, nan_rows)
        finite = rows - nan_rows.size
        if finite == 0:
            return
        queries = rng.standard_normal((6, 5)).astype(np.float32)
        index = create_backend(
            backend, shard_capacity=chunk * capacity_multiple, database_chunk_size=chunk
        )
        index.add(vectors)
        k = min(k, finite)
        reference = matches_reference(index, queries, k)
        assert np.isfinite(reference.distances).all()
