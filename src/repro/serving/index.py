"""Chunked top-k similarity search over trajectory representations.

The evaluation harness historically materialised a full ``(Q, D)`` float64
distance matrix and ran a full ``argsort`` per query.  That is fine for the
paper-scale benchmarks (tens of queries) but cannot serve the ROADMAP's
heavy-traffic goal: a million-trajectory database costs ``8 * Q * D`` bytes
per query batch and ``O(D log D)`` per query just to find five neighbours.

:class:`SimilarityIndex` answers the same queries with

* **bounded memory** — distances are computed one database chunk at a time,
  so peak memory is ``O(query_chunk * database_chunk)`` regardless of the
  database size;
* **float32 arithmetic** — representations are float32 to begin with
  (``STARTModel.encode`` returns float32), so the float64 up-cast of the old
  path only doubled bandwidth without adding information;
* **partial selection by a running threshold** — the first chunk is cut to
  ``k`` candidates per query by one ``np.argpartition``; every later chunk
  is compared once against each query's running k-th distance, and only the
  rows at or below it are merged (a partial sort over ``k`` plus those
  rows).  Only the final ``k`` candidates per query are sorted.

Distances are Euclidean; selection is done on squared distances (the square
root is monotone) and only the returned ``k`` values per query are rooted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Default number of query rows processed per block.
DEFAULT_QUERY_CHUNK = 256
#: Default number of database rows processed per block.
DEFAULT_DATABASE_CHUNK = 4096


def as_float32_matrix(vectors: np.ndarray, name: str = "vectors") -> np.ndarray:
    """Validate and convert to a C-contiguous float32 ``(N, d)`` matrix."""
    matrix = np.ascontiguousarray(np.asarray(vectors), dtype=np.float32)
    if matrix.ndim != 2:
        raise ValueError(f"{name} must be a 2-D (N, d) array, got shape {matrix.shape}")
    return matrix


def check_new_ids(ids, count: int, present, tombstoned=frozenset()) -> np.ndarray:
    """Validate caller-supplied row ids for an ``add`` of ``count`` rows.

    The one id check behind every backend's ``add``: one id per row, no
    duplicates, none already ``present`` (alive rows), none ``tombstoned``
    (dead rows still stored — re-adding one would store two rows under one
    id and make snapshots unrestorable).  ``present`` and ``tombstoned``
    are sets or dict key views; the checks are set intersections, and an
    error names the first offending id in input order.  Returns the ids as
    an int64 array.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.shape != (count,):
        raise ValueError("ids must have exactly one entry per vector row")
    id_list = ids.tolist()
    id_set = set(id_list)
    if len(id_set) != count:
        raise ValueError("ids must be unique")
    taken = (present & id_set) | (tombstoned & id_set)
    if taken:
        row_id = next(row_id for row_id in id_list if row_id in taken)
        if row_id in present:
            raise ValueError(f"row id {row_id} already present")
        raise ValueError(
            f"row id {row_id} is tombstoned but still stored; compact() before reusing it"
        )
    return ids


def squared_norms(matrix: np.ndarray) -> np.ndarray:
    """Row-wise squared L2 norms, ``(N,)`` float32."""
    return np.einsum("ij,ij->i", matrix, matrix)


def pairwise_squared_euclidean(
    queries: np.ndarray,
    database: np.ndarray,
    query_norms: np.ndarray | None = None,
    database_norms: np.ndarray | None = None,
) -> np.ndarray:
    """``(Q, D)`` squared Euclidean distances for one chunk pair (float32).

    Uses the ``|q|^2 + |d|^2 - 2 q.d`` expansion so the heavy lifting is a
    single float32 GEMM; negative values from cancellation are clipped to 0.
    The result is assembled in place as ``(|q|^2 + |d|^2) - 2·G`` — two
    ``(Q, D)`` temporaries, the GEMM output ``G`` and the result — in the
    operation order of the one-expression form, so it is bitwise the same.
    """
    if query_norms is None:
        query_norms = squared_norms(queries)
    if database_norms is None:
        database_norms = squared_norms(database)
    gram = queries @ database.T
    gram *= 2.0
    squared = np.add(query_norms[:, None], database_norms[None, :])
    squared -= gram
    np.maximum(squared, 0.0, out=squared)
    return squared


def merge_topk_candidates(
    best_d: np.ndarray | None,
    best_i: np.ndarray | None,
    chunk_d: np.ndarray,
    chunk_i: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge one whole candidate block into the running per-query top-k.

    ``best_d``/``best_i`` are the current ``(Q, <=k)`` candidate squared
    distances and row ids (``None`` before the first block).  The merged
    candidates are *unsorted*: ``np.argpartition`` only guarantees the k
    smallest survive, so callers must order them with :func:`finalize_topk`.
    """
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


def _merge_at_or_below_kth(
    best_d: np.ndarray,
    best_i: np.ndarray,
    chunk_d: np.ndarray,
    chunk_ids: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge one chunk into ``(Q, k)`` running candidates by a running threshold.

    Each query's chunk rows are compared once against its current k-th
    distance (its largest candidate); only the rows at or below it can
    enter the top-k, and only they are merged (:func:`_merge_hits`).

    The whole chunk is merged with :func:`merge_topk_candidates` instead
    while some query's candidates hold ``+inf`` (a tombstone) or NaN (an
    overflowed row) — it has no finite bound, so NaN counts as ``+inf`` and
    never hides a finite row behind an always-false comparison — and when
    more than an eighth of the chunk is at or below the bounds (rows that
    arrive nearest-last), where laying the hits out costs more.
    """
    kth = best_d.max(axis=1)
    if kth.max() < np.inf:
        hits = np.flatnonzero(chunk_d <= kth[:, None])
        if not hits.size:
            return best_d, best_i
        if 8 * hits.size <= chunk_d.size:
            return _merge_hits(best_d, best_i, chunk_d, chunk_ids, hits, k)
    chunk_i = np.broadcast_to(chunk_ids, chunk_d.shape)
    return merge_topk_candidates(best_d, best_i, chunk_d, chunk_i, k)


def _merge_hits(
    best_d: np.ndarray,
    best_i: np.ndarray,
    chunk_d: np.ndarray,
    chunk_ids: np.ndarray,
    hits: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge the chunk entries at flat positions ``hits`` into ``(Q, k)`` candidates.

    The hits are laid out after each query's ``k`` candidates, ``+inf``-padded
    to the query with the most, and one ``argpartition`` over ``k + hits``
    columns replaces one over ``k + chunk`` columns.  A pad is never kept:
    every query holds ``k`` real candidates at or below a finite bound.
    """
    # Hits are row-major, so each query's run is contiguous and starts at
    # the first hit of the same query.
    hit_query, hit_column = np.divmod(hits, chunk_d.shape[1])
    slot = np.arange(k, k + hits.size) - np.searchsorted(hit_query, hit_query)
    shape = (chunk_d.shape[0], int(slot.max()) + 1)
    cand_d = np.full(shape, np.inf, dtype=chunk_d.dtype)
    cand_i = np.empty(shape, dtype=np.int64)  # pads are never kept
    cand_d[:, :k] = best_d
    cand_i[:, :k] = best_i
    cand_d[hit_query, slot] = chunk_d.take(hits)
    cand_i[hit_query, slot] = chunk_ids.take(hit_column)
    keep = np.argpartition(cand_d, k - 1, axis=1)[:, :k]
    rows = np.arange(shape[0])[:, None]
    return cand_d[rows, keep], cand_i[rows, keep]


def scan_topk_candidates(
    queries: np.ndarray,
    query_norms: np.ndarray,
    database: np.ndarray,
    database_norms: np.ndarray,
    k: int,
    chunk_size: int,
    row_ids: np.ndarray | None = None,
    exclude: np.ndarray | None = None,
    best: tuple[np.ndarray | None, np.ndarray | None] = (None, None),
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Running top-k candidates of one query block over one database array.

    This is the chunked kernel shared by the monolithic
    :class:`SimilarityIndex` and the streaming layer's shards: distances are
    computed one ``chunk_size`` block at a time, so both callers do
    bit-identical float32 arithmetic per database row.  The first chunk is
    reduced to ``k`` candidates by one ``argpartition``
    (:func:`merge_topk_candidates`); every later chunk is compared once
    against each query's running k-th distance and only the rows at or below
    it are merged.  While fewer than ``k`` candidates are held (``k`` larger
    than a chunk) whole chunks are merged.

    ``row_ids`` maps local database rows to the ids reported in results
    (defaults to ``0..N-1``); ``exclude`` is an optional boolean mask of rows
    to skip (tombstones) — their distances are forced to ``+inf`` so they can
    never survive a merge while live candidates remain.  ``best`` seeds the
    running candidates (and is not modified), so one scan continues another:
    :class:`~repro.streaming.shards.ShardedIndex` threads one running top-k
    through its segments this way, and when every segment but the last is a
    whole number of chunks it issues exactly the chunk sequence — and makes
    exactly the selections — of one scan over all its rows.
    """
    best_d, best_i = best
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
        if best_d is None or best_d.shape[1] < k:
            chunk_i = np.broadcast_to(ids, chunk_d.shape)
            best_d, best_i = merge_topk_candidates(best_d, best_i, chunk_d, chunk_i, k)
        else:
            best_d, best_i = _merge_at_or_below_kth(best_d, best_i, chunk_d, ids, k)
    return best_d, best_i


def finalize_topk(best_d: np.ndarray, best_i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order surviving candidates (distance first, id on ties) and take roots.

    Returns ``(indices, distances)`` with distances un-squared; only these
    final ``k`` values per query ever see a ``sqrt`` or a sort.
    """
    order = np.lexsort((best_i, best_d), axis=-1)
    indices = np.take_along_axis(best_i, order, axis=1)
    distances = np.sqrt(np.take_along_axis(best_d, order, axis=1))
    return indices, distances


def full_matrix_top_k(
    queries: np.ndarray,
    database: np.ndarray,
    database_norms: np.ndarray,
    row_ids: np.ndarray,
    k: int,
    exclude: np.ndarray | None = None,
) -> SearchResult:
    """Exact top-k from the whole ``(Q, D)`` distance matrix and a stable sort.

    The reference semantics: one GEMM over every database row, then each
    query's row ordered by ``(distance, id)`` with ``np.lexsort``.  Rows in
    the optional ``exclude`` mask (tombstones) are forced to ``+inf`` so they
    sort last; callers clamp ``k`` to the rows left.  Memory and time are
    unbounded in the database size, so only the ``"bruteforce"`` oracle and
    the ANN backends' probe-everything path use it — one kernel, so the two
    answer bit-identically on the same rows.
    """
    squared = pairwise_squared_euclidean(
        queries,
        database,
        query_norms=squared_norms(queries),
        database_norms=database_norms,
    )
    if exclude is not None:
        squared[:, exclude] = np.inf
    id_row = np.broadcast_to(row_ids, squared.shape)
    order = np.lexsort((id_row, squared), axis=-1)[:, :k]
    return SearchResult(
        indices=np.take_along_axis(id_row, order, axis=1),
        distances=np.sqrt(np.take_along_axis(squared, order, axis=1)),
    )


def scan_count_before(
    queries: np.ndarray,
    query_norms: np.ndarray,
    database: np.ndarray,
    database_norms: np.ndarray,
    truth_d: np.ndarray,
    truth_ids: np.ndarray,
    chunk_size: int,
    row_ids: np.ndarray | None = None,
    exclude: np.ndarray | None = None,
) -> np.ndarray:
    """Per-query count of database rows sorting strictly before the truth.

    A row sorts before when its squared distance is smaller, or equal with a
    smaller row id (the stable-argsort order).  The truth row itself (matched
    by id) and excluded rows are forced to ``+inf`` so they never count.
    Shared by :meth:`SimilarityIndex.ranks_of` and the sharded rank path.
    """
    before = np.zeros(queries.shape[0], dtype=np.int64)
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
        # The truth item itself never counts, whatever tiny float discrepancy
        # exists between the GEMM and row-wise kernels.
        is_truth = ids[None, :] == truth_ids[:, None]
        if is_truth.any():
            chunk_d[is_truth] = np.inf
        strictly_closer = chunk_d < truth_d[:, None]
        tie_before = (chunk_d == truth_d[:, None]) & (ids[None, :] < truth_ids[:, None])
        before += (strictly_closer | tie_before).sum(axis=1)
    return before


@dataclass(frozen=True)
class SearchResult:
    """Top-k neighbours for a batch of queries.

    ``indices[i, j]`` is the database row of query ``i``'s ``j``-th nearest
    neighbour (ascending distance, ties broken by database index) and
    ``distances[i, j]`` the corresponding Euclidean distance.
    """

    indices: np.ndarray
    distances: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)


class SimilarityIndex:
    """Top-k / most-similar queries over a fixed database of representations.

    The index owns a float32 copy of the database plus its precomputed row
    norms.  Queries stream through in chunks and a running per-query top-k is
    carried across database chunks (:func:`scan_topk_candidates`), so neither
    the full distance matrix nor a full sort ever materialises.
    """

    def __init__(
        self,
        database: np.ndarray,
        *,
        query_chunk_size: int = DEFAULT_QUERY_CHUNK,
        database_chunk_size: int = DEFAULT_DATABASE_CHUNK,
    ) -> None:
        if query_chunk_size < 1 or database_chunk_size < 1:
            raise ValueError("chunk sizes must be positive")
        matrix = as_float32_matrix(database, "database")
        if matrix is database and matrix.flags.writeable:
            # as_float32_matrix is a no-op for float32 C-contiguous input;
            # copy a still-writeable caller array so later mutation cannot
            # desync the cached norms below.  Frozen matrices (such as
            # Engine.encode output) are shared as-is — no double memory at
            # serving scale.
            matrix = matrix.copy()
        self._database = matrix
        self._database_norms = squared_norms(self._database)
        self.query_chunk_size = int(query_chunk_size)
        self.database_chunk_size = int(database_chunk_size)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._database.shape[0]

    @property
    def dim(self) -> int:
        """Dimensionality of the indexed representations."""
        return self._database.shape[1]

    @property
    def database(self) -> np.ndarray:
        """The indexed ``(D, d)`` float32 database (read-only view)."""
        view = self._database.view()
        view.flags.writeable = False
        return view

    def _check_queries(self, queries: np.ndarray) -> np.ndarray:
        queries = as_float32_matrix(queries, "queries")
        if queries.shape[1] != self.dim:
            raise ValueError(
                f"query dimension {queries.shape[1]} does not match index dimension {self.dim}"
            )
        return queries

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def topk(self, queries: np.ndarray, k: int) -> SearchResult:
        """The ``k`` nearest database items for each query row.

        Results are sorted by ascending distance with ties broken by database
        index.  On distance-distinct data this matches a stable full argsort
        of the brute-force distance matrix exactly; when exact-equal distances
        straddle the k-boundary, the partial selection may keep a different
        (equally near) member of the tie than the stable sort would.  ``k`` is
        clamped to the database size.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        queries = self._check_queries(queries)
        num_queries = queries.shape[0]
        k = min(k, len(self))
        indices = np.empty((num_queries, k), dtype=np.int64)
        distances = np.empty((num_queries, k), dtype=np.float32)
        if num_queries == 0 or k == 0:
            return SearchResult(indices=indices, distances=distances)

        for row in range(0, num_queries, self.query_chunk_size):
            block = queries[row : row + self.query_chunk_size]
            block_norms = squared_norms(block)
            best_d, best_i = scan_topk_candidates(
                block,
                block_norms,
                self._database,
                self._database_norms,
                k,
                self.database_chunk_size,
            )
            block_indices, block_distances = finalize_topk(best_d, best_i)
            block_slice = slice(row, row + block.shape[0])
            indices[block_slice] = block_indices
            distances[block_slice] = block_distances
        return SearchResult(indices=indices, distances=distances)

    def ranks_of(self, queries: np.ndarray, truth_indices: np.ndarray) -> np.ndarray:
        """1-based rank of ``truth_indices[i]`` in query ``i``'s result list.

        Equivalent to a stable full argsort of the brute-force distance row
        followed by ``where(order == truth)``, but computed by *counting* in
        one chunked pass: the rank of the truth item is one plus the number of
        database items that sort strictly before it (smaller distance, or
        equal distance and smaller index).  Memory stays bounded and no sort
        of the database ever happens.

        The truth item itself is excluded explicitly, so the rank is robust
        to kernel rounding; a *different* database item whose distance ties
        the truth's within one float32 ulp may still be counted on either
        side of the tie (its GEMM distance vs. the truth's row-wise one).
        """
        queries = self._check_queries(queries)
        truth = np.asarray(truth_indices, dtype=np.int64)
        if truth.shape != (queries.shape[0],):
            raise ValueError("truth_indices must have one entry per query row")
        if truth.size and (truth.min() < 0 or truth.max() >= len(self)):
            raise ValueError("truth_indices out of database range")

        ranks = np.empty(truth.shape, dtype=np.int64)
        for row in range(0, queries.shape[0], self.query_chunk_size):
            block = queries[row : row + self.query_chunk_size]
            block_norms = squared_norms(block)
            block_truth = truth[row : row + block.shape[0]]
            # Pass 1: the truth item's distance, computed with the same
            # norms-minus-dot arithmetic as the chunk kernel.
            gathered = self._database[block_truth]
            truth_d = (
                block_norms
                + self._database_norms[block_truth]
                - np.float32(2.0) * np.einsum("ij,ij->i", block, gathered)
            )
            np.maximum(truth_d, 0.0, out=truth_d)
            # Pass 2: count items sorting strictly before the truth item.
            before = scan_count_before(
                block,
                block_norms,
                self._database,
                self._database_norms,
                truth_d,
                block_truth,
                self.database_chunk_size,
            )
            ranks[row : row + block.shape[0]] = before + 1
        return ranks
