"""The centroid assignment and list grouping before the single-buffer kernel.

A copy of ``assign_to_centroids`` as it scored every row block with the full
distance expansion ``(|x|² + |c|²) − 2·G`` — the GEMM output, its doubling,
the norm sum, the difference and the clip at 0 — before one ``argmin`` and
a gather of the winners, and of the int64 stable ``argsort`` that grouped
rows by list.  The kernel in :mod:`repro.ann.kmeans` is tested against it in
``test_ann.py`` and timed against it in
``benchmarks/test_ann_build_speedup.py``, the way ``plusplus_init_reference``
keeps the per-centroid k-means++ seeding.
"""

from __future__ import annotations

import numpy as np

from repro.serving.index import as_float32_matrix, squared_norms


def reference_distances(block: np.ndarray, centroids: np.ndarray, centroid_norms: np.ndarray) -> np.ndarray:
    """Every ``(row, centroid)`` squared distance of one block, clipped at 0."""
    gram = block @ centroids.T
    gram *= 2.0
    squared = np.add(squared_norms(block)[:, None], centroid_norms[None, :])
    squared -= gram
    np.maximum(squared, 0.0, out=squared)
    return squared


def reference_assign_to_centroids(
    data: np.ndarray, centroids: np.ndarray, *, chunk_size: int = 4096
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per row, ``(assignments, squared_distances)``; ties
    go to the smaller centroid index."""
    data = as_float32_matrix(data, "data")
    centroids = as_float32_matrix(centroids, "centroids")
    centroid_norms = squared_norms(centroids)
    assignments = np.empty(data.shape[0], dtype=np.int64)
    best = np.empty(data.shape[0], dtype=np.float32)
    for start in range(0, data.shape[0], chunk_size):
        stop = min(start + chunk_size, data.shape[0])
        distances = reference_distances(data[start:stop], centroids, centroid_norms)
        assignments[start:stop] = np.argmin(distances, axis=1)
        best[start:stop] = np.take_along_axis(
            distances, assignments[start:stop, None], axis=1
        )[:, 0]
    return assignments, best


def reference_grouping_order(assignments: np.ndarray, k: int) -> np.ndarray:
    """Rows grouped by cluster, ascending within one: the int64 stable sort."""
    return np.argsort(assignments, kind="stable")
