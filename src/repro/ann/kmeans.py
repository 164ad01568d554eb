"""Deterministic Lloyd k-means for the ANN coarse quantizer and PQ codebooks.

Training an index structure must be a *pure function* of the stored rows
(plus a seed), or snapshot/restore could not be bit-stable: a restored
replica re-trains from the same rows in the same order and must land on the
same centroids.  Everything here is therefore seeded through
``np.random.default_rng`` and free of data-dependent randomness — k-means++
seeding, a fixed iteration cap, deterministic empty-cluster repair.

Distances reuse :func:`repro.serving.index.pairwise_squared_euclidean`, the
same float32 GEMM kernel every exact backend scans with.
"""

from __future__ import annotations

import numpy as np

from repro.serving.index import as_float32_matrix, pairwise_squared_euclidean, squared_norms

#: Default Lloyd iterations; training quality plateaus quickly on the small
#: train subsets ANN indexes use, and a fixed cap keeps rebuilds predictable.
DEFAULT_KMEANS_ITERS = 10

#: Database rows scored per block during assignment (bounds peak memory).
_ASSIGN_CHUNK = 4096


def assign_to_centroids(
    data: np.ndarray, centroids: np.ndarray, *, chunk_size: int = _ASSIGN_CHUNK
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per row: ``(assignments, squared_distances)``.

    Computed one ``chunk_size`` block of rows at a time so assignment never
    materialises the full ``(N, k)`` distance matrix for large corpora.
    Ties go to the smaller centroid index (``argmin`` semantics).
    """
    data = as_float32_matrix(data, "data")
    centroids = as_float32_matrix(centroids, "centroids")
    centroid_norms = squared_norms(centroids)
    assignments = np.empty(data.shape[0], dtype=np.int64)
    best = np.empty(data.shape[0], dtype=np.float32)
    for start in range(0, data.shape[0], chunk_size):
        stop = min(start + chunk_size, data.shape[0])
        block = data[start:stop]
        distances = pairwise_squared_euclidean(
            block, centroids, database_norms=centroid_norms
        )
        assignments[start:stop] = np.argmin(distances, axis=1)
        best[start:stop] = np.take_along_axis(
            distances, assignments[start:stop, None], axis=1
        )[:, 0]
    return assignments, best


def _plusplus_init(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by squared-distance weight."""
    count = data.shape[0]
    # Every step scores all rows against one new centroid: their norms are
    # the same each time, so compute them once.
    norms = squared_norms(data)
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = int(rng.integers(count))
    closest = pairwise_squared_euclidean(data, data[chosen[:1]], query_norms=norms)[:, 0]
    for i in range(1, k):
        total = float(closest.sum())
        if total <= 0.0:
            # All remaining mass sits on already-chosen points (duplicates):
            # fall back to a uniform draw; empty-cluster repair sorts it out.
            chosen[i] = int(rng.integers(count))
        else:
            chosen[i] = int(rng.choice(count, p=closest / total))
        new_d = pairwise_squared_euclidean(data, data[chosen[i : i + 1]], query_norms=norms)[:, 0]
        np.minimum(closest, new_d, out=closest)
    return data[chosen].copy()


def kmeans(
    data: np.ndarray,
    k: int,
    *,
    iters: int = DEFAULT_KMEANS_ITERS,
    seed: int = 0,
) -> np.ndarray:
    """Train ``k`` float32 centroids on ``data`` with seeded Lloyd iterations.

    ``k`` must satisfy ``1 <= k <= len(data)``.  Empty clusters are repaired
    deterministically by re-seeding them on the rows currently farthest from
    their centroid, so the returned shape is always exactly ``(k, dim)``.
    """
    data = as_float32_matrix(data, "data")
    if not 1 <= k <= data.shape[0]:
        raise ValueError(f"k must be in [1, {data.shape[0]}], got {k}")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    rng = np.random.default_rng(seed)
    centroids = _plusplus_init(data, k, rng)
    previous = None
    for _ in range(iters):
        assignments, distances = assign_to_centroids(data, centroids)
        counts = np.bincount(assignments, minlength=k)
        empty = np.nonzero(counts == 0)[0]
        if empty.size:
            # Deterministic repair: hand each empty cluster the worst-served
            # row whose donor cluster keeps at least one member (stealing
            # from a singleton would just move the hole).  Pigeonhole
            # guarantees a >= 2 donor exists while any cluster is empty.
            worst = np.argsort(distances, kind="stable")[::-1]
            for slot in empty:
                for row in worst:
                    donor = assignments[row]
                    if counts[donor] >= 2:
                        assignments[row] = slot
                        counts[donor] -= 1
                        counts[slot] += 1
                        break
        centroids = _cluster_means(data, assignments, counts)
        if previous is not None and np.array_equal(previous, assignments):
            break
        previous = assignments
    return centroids


def _cluster_means(data: np.ndarray, assignments: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Float32 mean of each cluster's rows; every cluster must be non-empty.

    Rows are summed in ascending row order within each cluster — the order
    ``np.add.at`` uses — via one stable sort and one segmented
    ``np.add.reduceat``, so the means are bit-identical to the unbuffered
    scatter-add at a fraction of its cost.
    """
    order = np.argsort(assignments, kind="stable")
    starts = np.cumsum(counts) - counts
    # float64 accumulator on purpose: summing many float32 rows in
    # float32 loses mass on large clusters; cast back after the divide.
    rows = data[order].astype(np.float64)  # repro: allow[dtype-float64-cast]
    sums = np.add.reduceat(rows, starts, axis=0)
    return (sums / counts[:, None]).astype(np.float32)
