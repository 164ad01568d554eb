"""The structure lifecycle shared by the ANN backends.

Both ANN backends keep the *raw* vectors next to their quantized structure:
the structure accelerates candidate generation, the raw rows provide exact
re-ranking, exact ``ranks_of`` and lossless ``segments()`` snapshots.  The
rows live in the one row store, :class:`~repro.streaming.shards.ShardedIndex`,
as one segment that never seals (insertion-ordered, O(1) tombstone
removals, amortised-doubling growth); the id map, ``remove``, ``ranks_of``
and ``segments()`` are the store's.

Determinism contract: the derived index structure must be a pure function of
``(stored rows in order, backend parameters, seed)`` — never of arrival
batching or query history.  ``Engine.restore`` replays a snapshot's rows in
the original order (tombstones re-applied afterwards), and a live replica
(:meth:`~repro.streaming.shards.ShardedIndex.replica`) reads the source's
stored rows in place, so either rebuilds the identical structure and answers
bit-identically.  A replica shares no structure or centroid cache with its
source: it retrains lazily on its first query, like a restored one.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.serving.index import SearchResult, full_matrix_top_k, squared_norms
from repro.streaming.shards import IndexShard, ShardedIndex


class AnnBackendBase(ShardedIndex):
    """`IndexBackend` plumbing for the ANN indexes: the quantized structure.

    Subclasses implement :meth:`_rebuild_structure` (train the quantized
    index over the current rows) and :meth:`_search_block` (approximate
    top-k candidates for one query block).  The structure is invalidated by
    ``add`` and ``compact`` and rebuilt lazily on the next query — once,
    however many threads query at once; tombstones leave it alone (dead rows
    are masked at query time).
    """

    name = "ann"
    seals = False
    #: Conformance hint: top_k answers are approximate (recall may be < 1).
    #: Exact invariants still hold: returned distances are the true distances
    #: of the returned ids, ordering is (distance, id), ranks_of is exact.
    is_exact = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._structure = None
        # Query workers share one published replica: the first queries on
        # it must train the lazy structure once, not once per thread.
        self._structure_lock = threading.Lock()

    @property
    def _segment(self) -> IndexShard:
        """The one segment holding every stored row (exists once rows do)."""
        return self._shards[0]

    # ------------------------------------------------------------------ #
    # Mutation: stored rows changed, so retrain lazily
    # ------------------------------------------------------------------ #
    def add(self, vectors: np.ndarray, ids: np.ndarray | None = None) -> np.ndarray:
        ids = super().add(vectors, ids=ids)
        if ids.size:
            self._structure = None
        return ids

    def compact(self, *, min_tombstones: int = 1) -> bool:
        """Drop tombstoned rows from storage (order preserved), retrain lazily."""
        if not super().compact(min_tombstones=min_tombstones):
            return False
        self._structure = None
        self._on_compact()
        return True

    def _on_compact(self) -> None:
        """Hook: compaction changes the storage prefix (caches keyed on it die)."""

    def replica(self) -> "AnnBackendBase":
        """The store's replica, with its own lock and no trained structure."""
        replica = super().replica()
        replica._structure = None
        replica._structure_lock = threading.Lock()
        return replica

    # ------------------------------------------------------------------ #
    # Structure lifecycle (subclass responsibility)
    # ------------------------------------------------------------------ #
    def _rebuild_structure(self):
        raise NotImplementedError

    def _ensure_structure(self):
        with self._structure_lock:
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
    def top_k(self, queries: np.ndarray, k: int) -> SearchResult:
        """The ``k`` nearest *probed* alive rows per query (approximate).

        Candidates come from the probed inverted lists only; every returned
        distance is the candidate's exact Euclidean distance (probed
        candidates are exactly re-ranked).  Per query, lists are probed in
        ascending coarse-distance order and the probe count is expanded past
        ``nprobe`` when the probed lists hold fewer than ``k`` alive rows, so
        the result always has ``min(k, len(self))`` columns like the exact
        backends.  ``k < 1`` raises, matching every other backend.

        When probing covers every list the candidate set is the whole
        corpus, so the scan runs the bruteforce backend's full-matrix kernel
        (:func:`repro.serving.index.full_matrix_top_k`) — bit-identical to
        the oracle, since BLAS results are not shape-invariant and matching
        shapes is the only way to guarantee that (the nprobe=nlist
        hypothesis property in ``tests/test_ann.py`` pins it).
        """
        queries, k = self._check_top_k(queries, k)
        num_queries = queries.shape[0]
        indices = np.empty((num_queries, k), dtype=np.int64)
        distances = np.empty((num_queries, k), dtype=np.float32)
        if num_queries == 0 or k == 0:
            return SearchResult(indices=indices, distances=distances)
        structure = self._ensure_structure()
        if self._probe_everything(structure):
            segment = self._segment
            return full_matrix_top_k(
                queries,
                segment.vectors,
                segment.norms,
                segment.ids,
                k,
                exclude=segment.dead if segment.dead_count else None,
            )
        for row in range(0, num_queries, self.query_chunk_size):
            block = queries[row : row + self.query_chunk_size]
            block_norms = squared_norms(block)
            block_ids, block_distances = self._search_block(structure, block, block_norms, k)
            indices[row : row + block.shape[0]] = block_ids
            distances[row : row + block.shape[0]] = block_distances
        return SearchResult(indices=indices, distances=distances)
