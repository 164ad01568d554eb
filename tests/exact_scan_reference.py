"""The exact scan before the running threshold, kept as a reference kernel.

A copy of the per-chunk merge loop — every database chunk concatenated onto
the running candidates and cut back to ``k`` by one ``argpartition`` — and of
``ShardedIndex.top_k``'s per-shard fan-out plus k-way merge, with the
one-expression distance assembly they ran on.  The running-threshold scan in
:mod:`repro.serving.index` is tested and timed against it, the way
``per_list_reference`` in ``test_ann.py`` keeps the IVF per-list loop.
"""

from __future__ import annotations

import numpy as np

from repro.serving.index import SearchResult, as_float32_matrix, finalize_topk, squared_norms


def pairwise_squared_euclidean(queries, database, query_norms, database_norms):
    squared = query_norms[:, None] + database_norms[None, :] - 2.0 * (queries @ database.T)
    np.maximum(squared, 0.0, out=squared)
    return squared


def merge_topk_candidates(best_d, best_i, chunk_d, chunk_i, k):
    if best_d is None:
        cand_d, cand_i = chunk_d, chunk_i
    else:
        cand_d = np.concatenate([best_d, chunk_d], axis=1)
        cand_i = np.concatenate([best_i, chunk_i], axis=1)
    if cand_d.shape[1] > k:
        keep = np.argpartition(cand_d, k - 1, axis=1)[:, :k]
        return (
            np.take_along_axis(cand_d, keep, axis=1),
            np.take_along_axis(cand_i, keep, axis=1),
        )
    return cand_d.copy(), cand_i.copy()


def scan_topk_candidates(
    queries, query_norms, database, database_norms, k, chunk_size, row_ids=None, exclude=None
):
    best_d, best_i = None, None
    count = database.shape[0]
    for start in range(0, count, chunk_size):
        stop = min(start + chunk_size, count)
        chunk_d = pairwise_squared_euclidean(
            queries,
            database[start:stop],
            query_norms=query_norms,
            database_norms=database_norms[start:stop],
        )
        if exclude is not None:
            dead = np.nonzero(exclude[start:stop])[0]
            if dead.size:
                chunk_d[:, dead] = np.inf
        if row_ids is None:
            ids = np.arange(start, stop, dtype=np.int64)
        else:
            ids = row_ids[start:stop]
        chunk_i = np.broadcast_to(ids, chunk_d.shape)
        best_d, best_i = merge_topk_candidates(best_d, best_i, chunk_d, chunk_i, k)
    return best_d, best_i


def reference_top_k(index, queries, k) -> SearchResult:
    """``index.top_k(queries, k)`` by per-shard fan-out and k-way merge.

    ``index`` is any :class:`~repro.streaming.shards.ShardedIndex`; its
    segments are read in place, so geometry and tombstones carry over.
    """
    queries = as_float32_matrix(queries, "queries")
    k = min(k, len(index))
    num_queries = queries.shape[0]
    indices = np.empty((num_queries, k), dtype=np.int64)
    distances = np.empty((num_queries, k), dtype=np.float32)
    if num_queries == 0 or k == 0:
        return SearchResult(indices=indices, distances=distances)

    for row in range(0, num_queries, index.query_chunk_size):
        block = queries[row : row + index.query_chunk_size]
        block_norms = squared_norms(block)
        # Fan-out: each shard reduces its segment to <= k candidates with
        # the shared chunked kernel ...
        per_shard = [
            scan_topk_candidates(
                block,
                block_norms,
                shard.vectors,
                shard.norms,
                k,
                shard.database_chunk_size,
                row_ids=shard.ids,
                exclude=shard.dead if shard.dead_count else None,
            )
            for shard in index.shards
            if len(shard)
        ]
        # ... then the k-way merge selects the global k by (distance, id).
        best_d = best_i = None
        for shard_d, shard_i in per_shard:
            best_d, best_i = merge_topk_candidates(best_d, best_i, shard_d, shard_i, k)
        block_indices, block_distances = finalize_topk(best_d, best_i)
        block_slice = slice(row, row + block.shape[0])
        indices[block_slice] = block_indices[:, :k]
        distances[block_slice] = block_distances[:, :k]
    return SearchResult(indices=indices, distances=distances)
