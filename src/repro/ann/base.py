"""Mutable row storage shared by the ANN backends.

Both ANN backends keep the *raw* vectors next to their quantized structure:
the structure accelerates candidate generation, the raw rows provide exact
re-ranking, exact ``ranks_of`` and lossless ``segments()`` snapshots.  The
storage is insertion-ordered with O(1) tombstone removals (like the sharded
backend's segments) and amortised-doubling growth.

Determinism contract: the derived index structure must be a pure function of
``(stored rows in order, backend parameters, seed)`` — never of arrival
batching or query history.  ``Engine.restore`` replays a snapshot's rows in
the original order (tombstones re-applied afterwards), so a restored replica
rebuilds the identical structure and answers bit-identically.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.serving.index import (
    DEFAULT_DATABASE_CHUNK,
    DEFAULT_QUERY_CHUNK,
    SearchResult,
    as_float32_matrix,
    check_new_ids,
    pairwise_squared_euclidean,
    scan_count_before,
    squared_norms,
)
from repro.streaming.shards import DEFAULT_SHARD_CAPACITY

#: Initial allocation of the growable row buffer.
_INITIAL_ALLOCATION = 256


class AnnBackendBase:
    """`IndexBackend` plumbing for the ANN indexes: storage, ids, tombstones.

    Subclasses implement :meth:`_rebuild_structure` (train the quantized
    index over the current rows) and :meth:`_search_block` (approximate
    top-k candidates for one query block).  Everything else — the mutation
    surface, exact ranks, snapshot segments, the exact-scan degenerate path —
    lives here.
    """

    name = "ann"
    supports_removal = True
    #: Conformance hint: top_k answers are approximate (recall may be < 1).
    #: Exact invariants still hold: returned distances are the true distances
    #: of the returned ids, ordering is (distance, id), ranks_of is exact.
    is_exact = False

    def __init__(
        self,
        dim: int | None = None,
        *,
        shard_capacity: int = DEFAULT_SHARD_CAPACITY,
        query_chunk_size: int = DEFAULT_QUERY_CHUNK,
        database_chunk_size: int = DEFAULT_DATABASE_CHUNK,
    ) -> None:
        if query_chunk_size < 1 or database_chunk_size < 1:
            raise ValueError("chunk sizes must be positive")
        self._dim = int(dim) if dim is not None else None
        self.shard_capacity = int(shard_capacity)  # geometry hint, unused
        self.query_chunk_size = int(query_chunk_size)
        self.database_chunk_size = int(database_chunk_size)
        self._vectors = np.empty((0, 0), dtype=np.float32)
        self._norms = np.empty(0, dtype=np.float32)
        self._ids = np.empty(0, dtype=np.int64)
        self._dead = np.zeros(0, dtype=bool)
        self._count = 0
        self._dead_count = 0
        self._rows_by_id: dict[int, int] = {}
        #: Ids of tombstoned rows still in storage: re-adding one would store
        #: two rows under the same id and corrupt snapshots, so `add` rejects
        #: them until `compact` physically reclaims the row.
        self._dead_ids: set[int] = set()
        self._next_id = 0
        self.generation = 0
        self._structure = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Alive (queryable) rows."""
        return self._count - self._dead_count

    @property
    def dim(self) -> int | None:
        return self._dim

    @property
    def next_id(self) -> int:
        return self._next_id

    @next_id.setter
    def next_id(self, value: int) -> None:
        if int(value) < self._next_id:
            raise ValueError("next_id may only move forward")
        self._next_id = int(value)

    @property
    def stored_count(self) -> int:
        """Stored rows, tombstoned included."""
        return self._count

    @property
    def tombstone_count(self) -> int:
        return self._dead_count

    def __contains__(self, row_id: int) -> bool:
        return int(row_id) in self._rows_by_id

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def _grow_to(self, needed: int) -> None:
        allocated = self._vectors.shape[0]
        if needed <= allocated and self._vectors.shape[1] == self._dim:
            return
        new_size = max(allocated, _INITIAL_ALLOCATION)
        while new_size < needed:
            new_size *= 2
        fresh_vectors = np.empty((new_size, self._dim), dtype=np.float32)
        fresh_norms = np.empty(new_size, dtype=np.float32)
        fresh_ids = np.empty(new_size, dtype=np.int64)
        fresh_dead = np.zeros(new_size, dtype=bool)
        if self._count:
            fresh_vectors[: self._count] = self._vectors[: self._count]
            fresh_norms[: self._count] = self._norms[: self._count]
            fresh_ids[: self._count] = self._ids[: self._count]
            fresh_dead[: self._count] = self._dead[: self._count]
        self._vectors, self._norms = fresh_vectors, fresh_norms
        self._ids, self._dead = fresh_ids, fresh_dead

    def add(self, vectors: np.ndarray, ids: np.ndarray | None = None) -> np.ndarray:
        vectors = as_float32_matrix(vectors)
        if self._dim is None:
            self._dim = vectors.shape[1]
        elif vectors.shape[1] != self._dim:
            raise ValueError(f"vector dimension {vectors.shape[1]} != index dimension {self._dim}")
        count = vectors.shape[0]
        if ids is None:
            ids = np.arange(self._next_id, self._next_id + count, dtype=np.int64)
        else:
            ids = check_new_ids(ids, count, self._rows_by_id.keys(), self._dead_ids)
        if count == 0:
            return ids
        self._grow_to(self._count + count)
        start, stop = self._count, self._count + count
        self._vectors[start:stop] = vectors
        # Row-wise einsum norms: bit-identical to the exact backends' cache.
        self._norms[start:stop] = squared_norms(vectors)
        self._ids[start:stop] = ids
        self._dead[start:stop] = False
        self._rows_by_id.update(zip(ids.tolist(), range(start, stop)))
        self._count = stop
        self._next_id = max(self._next_id, int(ids.max()) + 1)
        self.generation += 1
        self._structure = None  # stored rows changed: retrain lazily
        return ids

    def remove(self, ids) -> int:
        """Tombstone rows by global id; returns how many were alive.

        Tombstones do **not** invalidate the trained structure (the structure
        is a function of *stored* rows; dead rows are masked at query time),
        so removals stay O(1) like the sharded backend's.
        """
        removed = 0
        for row_id in np.atleast_1d(np.asarray(ids, dtype=np.int64)):
            row = self._rows_by_id.pop(int(row_id), None)
            if row is not None and not self._dead[row]:
                self._dead[row] = True
                self._dead_ids.add(int(row_id))
                self._dead_count += 1
                removed += 1
        if removed:
            self.generation += 1
        return removed

    def compact(self, *, min_tombstones: int = 1) -> bool:
        """Drop tombstoned rows from storage (order preserved), retrain lazily."""
        if self._dead_count < min_tombstones:
            return False
        alive = ~self._dead[: self._count]
        self._vectors = np.ascontiguousarray(self._vectors[: self._count][alive])
        self._norms = self._norms[: self._count][alive].copy()
        self._ids = self._ids[: self._count][alive].copy()
        self._count = self._vectors.shape[0]
        self._dead = np.zeros(self._count, dtype=bool)
        self._dead_count = 0
        self._dead_ids = set()
        self._rows_by_id = dict(zip(self._ids.tolist(), range(self._count)))
        self.generation += 1
        self._structure = None
        self._on_compact()
        return True

    def _on_compact(self) -> None:
        """Hook: compaction changes the storage prefix (caches keyed on it die)."""

    def segments(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        if self._count:
            yield (
                self._vectors[: self._count],
                self._ids[: self._count],
                self._dead[: self._count],
            )

    # ------------------------------------------------------------------ #
    # Structure lifecycle (subclass responsibility)
    # ------------------------------------------------------------------ #
    def _rebuild_structure(self):
        raise NotImplementedError

    def _ensure_structure(self):
        if self._structure is None:
            self._structure = self._rebuild_structure()
        return self._structure

    def _search_block(
        self, structure, block: np.ndarray, block_norms: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Approximate ``(ids, distances)`` top-k for one query block."""
        raise NotImplementedError

    def _probe_everything(self, structure) -> bool:
        """Whether the configured probing covers every inverted list."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def _check_queries(self, queries: np.ndarray) -> np.ndarray:
        queries = as_float32_matrix(queries, "queries")
        if self._dim is not None and queries.shape[1] != self._dim:
            raise ValueError(
                f"query dimension {queries.shape[1]} does not match index dimension {self._dim}"
            )
        return queries

    def _exact_top_k(self, queries: np.ndarray, k: int) -> SearchResult:
        """Exact scan with arithmetic identical to the bruteforce backend.

        When probing covers every list the candidate set is the whole corpus,
        so the scan runs the *same* full-matrix GEMM + ``(distance, id)``
        lexsort as ``BruteforceBackend`` — the result is bit-identical to the
        oracle (BLAS results are not shape-invariant, so matching shapes is
        the only way to guarantee that; the nprobe=nlist hypothesis property
        in ``tests/test_ann.py`` pins it).
        """
        stored = self._vectors[: self._count]
        squared = pairwise_squared_euclidean(
            queries,
            stored,
            query_norms=squared_norms(queries),
            database_norms=self._norms[: self._count],
        )
        if self._dead_count:
            squared[:, self._dead[: self._count]] = np.inf
        id_row = np.broadcast_to(self._ids[: self._count], squared.shape)
        order = np.lexsort((id_row, squared), axis=-1)[:, :k]
        return SearchResult(
            indices=np.take_along_axis(id_row, order, axis=1),
            distances=np.sqrt(np.take_along_axis(squared, order, axis=1)),
        )

    def top_k(self, queries: np.ndarray, k: int) -> SearchResult:
        """The ``k`` nearest *probed* alive rows per query (approximate).

        Candidates come from the probed inverted lists only; every returned
        distance is the candidate's exact Euclidean distance (probed
        candidates are exactly re-ranked).  Per query, lists are probed in
        ascending coarse-distance order and the probe count is expanded past
        ``nprobe`` when the probed lists hold fewer than ``k`` alive rows, so
        the result always has ``min(k, len(self))`` columns like the exact
        backends.  ``k < 1`` raises, matching every other backend.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        queries = self._check_queries(queries)
        num_queries = queries.shape[0]
        k = min(k, len(self))
        if num_queries == 0 or k == 0:
            return SearchResult(
                indices=np.empty((num_queries, k), dtype=np.int64),
                distances=np.empty((num_queries, k), dtype=np.float32),
            )
        structure = self._ensure_structure()
        if self._probe_everything(structure):
            return self._exact_top_k(queries, k)
        indices = np.empty((num_queries, k), dtype=np.int64)
        distances = np.empty((num_queries, k), dtype=np.float32)
        for row in range(0, num_queries, self.query_chunk_size):
            block = queries[row : row + self.query_chunk_size]
            block_norms = squared_norms(block)
            block_ids, block_distances = self._search_block(structure, block, block_norms, k)
            indices[row : row + block.shape[0]] = block_ids
            distances[row : row + block.shape[0]] = block_distances
        return SearchResult(indices=indices, distances=distances)

    def most_similar(self, queries: np.ndarray) -> SearchResult:
        return self.top_k(queries, k=1)

    def ranks_of(self, queries: np.ndarray, truth_ids: np.ndarray) -> np.ndarray:
        """1-based rank of ``truth_ids[i]`` among **all** alive rows — exact.

        Rank evaluation is a ground-truth metric, not a serving path, so the
        ANN backends compute it with the same full counting scan as the exact
        backends (smaller distance, or equal distance and smaller id, sorts
        before).  Approximation shows up in ``top_k`` recall, never in ranks.
        """
        queries = self._check_queries(queries)
        truth = np.asarray(truth_ids, dtype=np.int64)
        if truth.shape != (queries.shape[0],):
            raise ValueError("truth_ids must have one entry per query row")
        if self._count == 0:
            raise ValueError("the index is empty; no truth rows exist")
        truth_rows = np.empty(truth.shape, dtype=np.int64)
        for i, row_id in enumerate(truth):
            row = self._rows_by_id.get(int(row_id))
            if row is None:
                raise ValueError(f"truth id {int(row_id)} is not an alive row of the index")
            truth_rows[i] = row
        stored = self._vectors[: self._count]
        dead = self._dead[: self._count] if self._dead_count else None
        ranks = np.empty(truth.shape, dtype=np.int64)
        for row in range(0, queries.shape[0], self.query_chunk_size):
            block = queries[row : row + self.query_chunk_size]
            block_norms = squared_norms(block)
            block_truth_rows = truth_rows[row : row + block.shape[0]]
            gathered = stored[block_truth_rows]
            truth_d = (
                block_norms
                + self._norms[block_truth_rows]
                - np.float32(2.0) * np.einsum("ij,ij->i", block, gathered)
            )
            np.maximum(truth_d, 0.0, out=truth_d)
            before = scan_count_before(
                block,
                block_norms,
                stored,
                self._norms[: self._count],
                truth_d,
                truth[row : row + block.shape[0]],
                self.database_chunk_size,
                row_ids=self._ids[: self._count],
                exclude=dead,
            )
            ranks[row : row + block.shape[0]] = before + 1
        return ranks
