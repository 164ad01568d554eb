"""Micro-benchmark: the ``"chunked"`` backend vs. the brute-force search path.

Unlike the figure/table benchmarks this one times the *serving* hot path in
isolation, on the acceptance-criterion workload: 1 000 queries against a
5 000-trajectory database of 64-d representations.  The timed index is the
shipped one — ``create_backend("chunked")``, what
``EngineConfig(backend="chunked")`` and perfbench's exact oracle run.  The
brute-force reference is the seed implementation — a float64 ``(Q, D)``
distance matrix followed by a stable full argsort per query — and the index
must return the identical neighbour lists at least 3x faster.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.api import create_backend

NUM_QUERIES = 1_000
DATABASE_SIZE = 5_000
DIM = 64
K = 5
REPEATS = 3
# ~12x locally; overridable for noisy shared runners where BLAS contention
# can compress the gap (set to 1.0 to keep only the exactness check hard).
MIN_SPEEDUP = float(os.environ.get("REPRO_SERVING_MIN_SPEEDUP", "3.0"))


def bruteforce_topk(queries: np.ndarray, database: np.ndarray, k: int) -> np.ndarray:
    """The seed search path: float64 full matrix + stable full argsort."""
    queries = np.asarray(queries, dtype=np.float64)
    database = np.asarray(database, dtype=np.float64)
    q_norm = (queries**2).sum(axis=1)[:, None]
    d_norm = (database**2).sum(axis=1)[None, :]
    distances = np.sqrt(np.maximum(q_norm + d_norm - 2.0 * queries @ database.T, 0.0))
    return np.argsort(distances, axis=1, kind="stable")[:, :k]


def best_of(function, repeats: int = REPEATS) -> tuple[float, np.ndarray]:
    best = float("inf")
    output = None
    for _ in range(repeats):
        started = time.perf_counter()
        output = function()
        best = min(best, time.perf_counter() - started)
    return best, output


def test_serving_topk_speedup_over_bruteforce(benchmark, once):
    rng = np.random.default_rng(17)
    database = rng.standard_normal((DATABASE_SIZE, DIM)).astype(np.float32)
    queries = rng.standard_normal((NUM_QUERIES, DIM)).astype(np.float32)
    index = create_backend("chunked")
    index.add(database)

    brute_seconds, brute_indices = best_of(lambda: bruteforce_topk(queries, database, K))
    index_seconds, result = best_of(lambda: index.top_k(queries, K))
    # Identical neighbour lists, not just overlapping sets.
    np.testing.assert_array_equal(result.indices, brute_indices)

    speedup = brute_seconds / index_seconds
    # Acceptance criterion: >= 3x lower query latency than full-argsort search.
    assert speedup >= MIN_SPEEDUP, (
        f"index path {index_seconds*1e3:.1f}ms vs brute force {brute_seconds*1e3:.1f}ms "
        f"({speedup:.1f}x; expected >= {MIN_SPEEDUP}x)"
    )

    # Record the timed run under pytest-benchmark as well.
    once(benchmark, lambda: index.top_k(queries, K))
    benchmark.extra_info["bruteforce_seconds"] = brute_seconds
    benchmark.extra_info["index_seconds"] = index_seconds
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["queries_per_second"] = NUM_QUERIES / index_seconds
