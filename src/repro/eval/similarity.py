"""Similarity-search evaluation harness (most-similar and k-nearest search).

Representation-based models compare trajectories by the Euclidean distance of
their representation vectors (Section IV-D4); classical measures compare raw
coordinate sequences.  Both are evaluated against the detour-based ground
truth produced by :mod:`repro.trajectory.detour`.

Representation search runs entirely through the :class:`repro.api.Engine`
facade: the database is bulk-encoded and indexed behind a configurable
backend (``"sharded"`` by default — the production query path, bit-identical
to the monolithic index at the default geometry), and ranks come from the
backend's chunked counting kernel, so evaluation exercises exactly the code
path production queries take.  The matrix-based helpers below are kept for
the classical measures (whose pairwise distances cannot be factored through
an embedding) and for small-scale analysis.
"""

from __future__ import annotations

import numpy as np

from repro.api import Engine, EngineConfig, QueryRequest
from repro.baselines.classical import ClassicalSimilarity
from repro.eval.metrics import precision_at_k, ranking_report
from repro.roadnet.network import RoadNetwork
from repro.serving.index import (
    DEFAULT_DATABASE_CHUNK,
    pairwise_squared_euclidean,
    squared_norms,
)
from repro.trajectory.detour import SimilarityBenchmark
from repro.trajectory.types import Trajectory


def euclidean_distance_matrix(
    queries: np.ndarray,
    database: np.ndarray,
    chunk_size: int = DEFAULT_DATABASE_CHUNK,
) -> np.ndarray:
    """``(Q, D)`` pairwise Euclidean distances between representation vectors.

    Computed one float32 database chunk at a time — the old implementation
    up-cast both sides to float64, which doubled memory bandwidth for inputs
    that are float32 representations to begin with.  Only the ``(Q, D)``
    output is materialised.
    """
    queries = np.ascontiguousarray(np.asarray(queries), dtype=np.float32)
    database = np.ascontiguousarray(np.asarray(database), dtype=np.float32)
    query_norms = squared_norms(queries)
    out = np.empty((queries.shape[0], database.shape[0]), dtype=np.float32)
    for start in range(0, database.shape[0], chunk_size):
        stop = min(start + chunk_size, database.shape[0])
        out[:, start:stop] = pairwise_squared_euclidean(
            queries, database[start:stop], query_norms=query_norms
        )
    np.sqrt(out, out=out)
    return out


def ranks_of_ground_truth(distances: np.ndarray, ground_truth: dict[int, int]) -> np.ndarray:
    """1-based rank of each query's ground-truth database item.

    Ranks are exact, computed by counting the items that sort strictly
    before the truth (smaller distance, or equal distance and smaller
    index — the stable-argsort order) in ``O(D)`` per query instead of a
    full ``O(D log D)`` sort.
    """
    distances = np.asarray(distances)
    query_rows = np.fromiter(ground_truth.keys(), dtype=np.int64, count=len(ground_truth))
    truth_cols = np.fromiter(ground_truth.values(), dtype=np.int64, count=len(ground_truth))
    rows = distances[query_rows]
    truth_values = rows[np.arange(rows.shape[0]), truth_cols]
    strictly_closer = rows < truth_values[:, None]
    column_index = np.arange(rows.shape[1], dtype=np.int64)
    ties_before = (rows == truth_values[:, None]) & (column_index[None, :] < truth_cols[:, None])
    # The truth column matches neither mask (not < itself, not an earlier tie).
    return (strictly_closer | ties_before).sum(axis=1).astype(np.int64) + 1


def most_similar_search_report(distances: np.ndarray, ground_truth: dict[int, int]) -> dict[str, float]:
    """MR / HR@1 / HR@5 for the most-similar-trajectory search task."""
    return ranking_report(ranks_of_ground_truth(distances, ground_truth))


def search_report_on_index(
    index,
    query_vectors: np.ndarray,
    ground_truth: dict[int, int],
) -> dict[str, float]:
    """MR / HR@1 / HR@5 computed through a serving index or engine.

    ``index`` is anything with the ``ranks_of`` contract — a
    :class:`repro.api.Engine`, an index backend, or one of the underlying
    index classes — whose row ids are insertion-order numbers.
    ``ground_truth`` maps row indices of ``query_vectors`` to database rows;
    ranks come from the chunked counting path, so no full distance matrix is
    ever materialised.
    """
    query_rows = np.fromiter(ground_truth.keys(), dtype=np.int64, count=len(ground_truth))
    truth_cols = np.fromiter(ground_truth.values(), dtype=np.int64, count=len(ground_truth))
    ranks = index.ranks_of(np.asarray(query_vectors)[query_rows], truth_cols)
    return ranking_report(ranks)


def evaluate_representation_search(
    encode,
    benchmark: SimilarityBenchmark,
    encode_batch_size: int | None = None,
    *,
    shard_capacity: int | None = None,
    backend: str = "sharded",
    backend_params: dict | None = None,
) -> dict[str, float]:
    """Evaluate a representation model on the most-similar search task.

    ``encode`` is any callable mapping a list of trajectories to ``(N, d)``
    vectors (``STARTModel.encode`` and every baseline's ``encode`` qualify).
    The benchmark database is ingested into a :class:`repro.api.Engine`
    whose index ``backend`` defaults to ``"sharded"`` — the production
    sharded query path, bit-identical to the monolithic index at the default
    geometry.  ``shard_capacity`` overrides the shard size and
    ``backend_params`` passes backend-specific knobs (``nlist``/``nprobe``/…
    for the ANN backends; their MR/HR numbers are unchanged because ranks
    are computed exactly by every backend — use
    :func:`sweep_search_backends` to measure what approximation *does*
    change, top-k recall and query latency).
    """
    config = EngineConfig(
        backend=backend, encode_batch_size=encode_batch_size, backend_params=backend_params
    )
    if shard_capacity is not None:
        config = config.variant(shard_capacity=shard_capacity)
    engine = Engine(encode, config)
    engine.ingest(benchmark.database)
    query_vectors = engine.encode(benchmark.queries)
    return search_report_on_index(engine, query_vectors, benchmark.ground_truth)


def recall_against_exact(exact_ids: np.ndarray, candidate_ids: np.ndarray) -> float:
    """Mean per-query overlap between a backend's top-k ids and the exact ones."""
    if exact_ids.shape != candidate_ids.shape:
        raise ValueError("exact and candidate id arrays must have the same shape")
    if exact_ids.size == 0:
        return 1.0
    hits = [
        len(set(map(int, exact_ids[row])) & set(map(int, candidate_ids[row])))
        for row in range(exact_ids.shape[0])
    ]
    return float(np.mean(hits)) / exact_ids.shape[1]


def sweep_search_backends(
    encode,
    benchmark: SimilarityBenchmark,
    backends: tuple[str, ...] = ("sharded", "ivf", "ivfpq"),
    *,
    k: int = 10,
    backend_params: dict[str, dict] | None = None,
    encode_batch_size: int | None = None,
    timer_repeats: int = 3,
) -> dict[str, dict[str, float]]:
    """Serve one benchmark corpus through several index backends.

    The database and queries are encoded **once** and the same vectors feed
    every backend, so the sweep isolates the index from the model.  Per
    backend the report carries the ranking metrics (MR / HR — exact for
    every backend), ``recall@k`` of its top-k ids against the bruteforce
    reference, and the best-of-``timer_repeats`` query wall time (measured at
    the backend, below the engine's query cache).  ``backend_params`` maps a
    backend name to its knob dict, e.g. ``{"ivf": {"nlist": 128}}``.
    """
    from repro.utils.timer import Timer

    if timer_repeats < 1:
        raise ValueError("timer_repeats must be >= 1")
    params = backend_params or {}
    shared = Engine(encode, EngineConfig(encode_batch_size=encode_batch_size))
    database_vectors = shared.encode(benchmark.database)
    query_vectors = shared.encode(benchmark.queries)
    reference = Engine(encode, EngineConfig(backend="bruteforce"))
    reference.ingest_vectors(database_vectors)
    exact_ids = reference.backend.top_k(query_vectors, k).indices

    sweep: dict[str, dict[str, float]] = {}
    for name in backends:
        engine = Engine(
            encode, EngineConfig(backend=name, backend_params=params.get(name))
        )
        engine.ingest_vectors(database_vectors)
        engine.backend.top_k(query_vectors, k)  # warm-up: lazy (re)builds
        best = float("inf")
        for _ in range(timer_repeats):
            with Timer() as timer:
                result = engine.backend.top_k(query_vectors, k)
            best = min(best, timer.elapsed)
        report = search_report_on_index(engine, query_vectors, benchmark.ground_truth)
        report["recall@k"] = recall_against_exact(exact_ids, result.indices)
        report["query_seconds"] = best
        sweep[name] = report
    return sweep


def evaluate_classical_search(
    network: RoadNetwork,
    measure: str,
    benchmark: SimilarityBenchmark,
) -> dict[str, float]:
    """Evaluate a classical pairwise measure on the most-similar search task."""
    similarity = ClassicalSimilarity(network, measure)
    distances = np.zeros((len(benchmark.queries), len(benchmark.database)))
    for row, query in enumerate(benchmark.queries):
        distances[row] = similarity.distances_to_database(query, benchmark.database)
    return most_similar_search_report(distances, benchmark.ground_truth)


def top_k_indices(distances: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest distances per row (ties broken by index).

    Uses ``argpartition`` plus a sort of only the ``k`` survivors.  When ties
    straddle the k-boundary the selected *set* may differ from a full stable
    argsort (either choice is a correct top-k); within the selection, ordering
    matches the stable order.
    """
    distances = np.asarray(distances)
    k = min(k, distances.shape[1])
    if k == distances.shape[1]:
        top = np.broadcast_to(
            np.arange(distances.shape[1], dtype=np.int64), distances.shape
        )
    else:
        top = np.argpartition(distances, k - 1, axis=1)[:, :k]
    top_values = np.take_along_axis(distances, top, axis=1)
    order = np.lexsort((top, top_values), axis=-1)
    return np.take_along_axis(top, order, axis=1)


def knearest_precision(
    original_distances: np.ndarray,
    detour_distances: np.ndarray,
    k: int = 5,
) -> float:
    """Precision of k-nearest search under detour perturbation.

    The ground truth for each query is its own k-nearest set computed from the
    *original* trajectory; the prediction is the k-nearest set of the
    *detoured* query.  Both distance matrices are ``(Q, D)``.
    """
    relevant = top_k_indices(original_distances, k)
    retrieved = top_k_indices(detour_distances, k)
    return precision_at_k(retrieved, relevant)


def evaluate_representation_knearest(
    encode,
    original_queries: list[Trajectory],
    detoured_queries: list[Trajectory],
    database: list[Trajectory],
    k: int = 5,
    *,
    engine: Engine | None = None,
    relevant_ids: np.ndarray | None = None,
) -> float:
    """k-nearest precision for a representation model (served via the facade).

    Callers evaluating many detour variants against the same database (e.g.
    the Figure 4 runner) can pass a prebuilt ``engine`` (already fed the
    database) and the precomputed ``relevant_ids`` of the original queries
    to skip re-encoding and re-indexing them.
    """
    if engine is None:
        engine = Engine(encode)
        engine.ingest(database)
    if relevant_ids is None:
        relevant_ids = engine.query(QueryRequest(queries=original_queries, k=k)).ids
    retrieved = engine.query(QueryRequest(queries=detoured_queries, k=k)).ids
    return precision_at_k(retrieved, relevant_ids)
