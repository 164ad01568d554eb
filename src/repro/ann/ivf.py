"""IVF: inverted-file index with a k-means coarse quantizer.

Layout (built lazily, a pure function of the stored rows + params + seed):

* **centroids** — k-means over those of the first ``min(train_size, N)``
  stored rows whose squared norms are finite, ``nlist`` clamped to their
  count (one list at the origin when there are none): a NaN or overflowing
  row would turn the k-means++ draw's weights into NaN;
* **inverted lists** — every stored row is assigned to its nearest centroid;
  rows are kept *grouped by list* in one contiguous reordered copy (vectors,
  cached norms, global ids, storage rows), so probing a list is one
  contiguous block scan.

Query flow: coarse-score the query block against the centroids (one small
GEMM), pick each query's ``nprobe`` nearest lists (expanded per query until
the probed lists hold at least ``k`` alive rows), then scan only those lists
and re-rank every probed candidate by its exact distance, so approximation
error is purely "the true neighbour's list was not probed", never a distance
estimate.

The probe scan is **list-major and batched** (:meth:`IVFBackend._scan_probed`,
shared with IVF-PQ): the block's (query, probed list) pairs are built once;
each touched list is scored once for all queries probing it — one GEMM per
``database_chunk_size`` slice of the list (an ADC gather-sum for IVF-PQ) —
straight into one flat score buffer; one gather then lays the scores out
per query (``+inf``-padded to the widest row) and a single
``argpartition`` picks each query's top-k (IVF-PQ: its re-rank pool).
Python work per block is one small step per touched list, not a merge round.

*Bitwise parity:* every GEMM has the operands the exact chunked kernel
(:func:`repro.serving.index.scan_topk_candidates`) would use on that list —
the probing queries in ascending order against the list's contiguous rows,
split at ``database_chunk_size`` — and distances are formed by the same
``(|q|² + |x|²) − 2·G`` expression, so every candidate distance is
bit-identical to a per-list scan; only which of several *exactly tied*
candidates fills the last slot may differ.  *Memory budget:* a block is
scanned in runs of queries whose padded layout (queries x widest row) stays
within ``query_chunk_size * database_chunk_size`` elements, the exact
kernel's own budget (at least one query per run); a split block gives each
run's lists fewer queries, so its GEMM shapes — and last bits — may differ.

``nprobe >= nlist`` probes everything; the scan then degenerates to the
bruteforce backend's exact full-matrix kernel, bit-identically (see
:func:`repro.serving.index.full_matrix_top_k`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ann.base import AnnBackendBase
from repro.ann.kmeans import assign_to_centroids, grouping_order, kmeans
from repro.serving.index import (
    DEFAULT_DATABASE_CHUNK,
    DEFAULT_QUERY_CHUNK,
    finalize_topk,
    pairwise_squared_euclidean,
    squared_norms,
)
from repro.streaming.shards import DEFAULT_SHARD_CAPACITY

#: Default number of inverted lists (clamped to the corpus size).
DEFAULT_NLIST = 64
#: Default number of lists probed per query.
DEFAULT_NPROBE = 8
#: Default training-subset size for the coarse quantizer.
DEFAULT_TRAIN_SIZE = 4096


@dataclass
class _IVFStructure:
    """The trained coarse quantizer + list-grouped row storage."""

    centroids: np.ndarray  # (nlist_eff, d)
    centroid_norms: np.ndarray  # (nlist_eff,)
    order: np.ndarray  # storage rows, grouped by list (stable within a list)
    offsets: np.ndarray  # (nlist_eff + 1,) list boundaries in the grouped order
    vectors: np.ndarray  # (N, d) storage vectors permuted by `order`
    norms: np.ndarray  # (N,) cached norms permuted by `order`
    ids: np.ndarray  # (N,) global ids permuted by `order`
    list_of_position: np.ndarray  # (N,) owning list per grouped position

    @property
    def nlist(self) -> int:
        return self.centroids.shape[0]


class IVFBackend(AnnBackendBase):
    """``"ivf"``: coarse k-means partitioning + exact re-ranked probing."""

    name = "ivf"

    def __init__(
        self,
        dim: int | None = None,
        *,
        shard_capacity: int = DEFAULT_SHARD_CAPACITY,
        query_chunk_size: int = DEFAULT_QUERY_CHUNK,
        database_chunk_size: int = DEFAULT_DATABASE_CHUNK,
        nlist: int = DEFAULT_NLIST,
        nprobe: int = DEFAULT_NPROBE,
        train_size: int = DEFAULT_TRAIN_SIZE,
        seed: int = 0,
    ) -> None:
        super().__init__(
            dim,
            shard_capacity=shard_capacity,
            query_chunk_size=query_chunk_size,
            database_chunk_size=database_chunk_size,
        )
        if nlist < 1:
            raise ValueError("nlist must be >= 1")
        if nprobe < 1:
            raise ValueError("nprobe must be >= 1")
        if train_size < 1:
            raise ValueError("train_size must be >= 1")
        self.nlist = int(nlist)
        self.nprobe = int(nprobe)
        self.train_size = int(train_size)
        self.seed = int(seed)
        # Centroids are a function of the first min(train_size, N) rows only;
        # cache them across appends so steady-state ingest never re-trains
        # (the prefix of an append-only store is immutable).
        self._centroid_cache: tuple[int, np.ndarray] | None = None

    def _on_compact(self) -> None:
        self._centroid_cache = None  # compaction rewrites the storage prefix

    def replica(self) -> "IVFBackend":
        replica = super().replica()
        replica._centroid_cache = None  # trains its own, like a restored replica
        return replica

    # ------------------------------------------------------------------ #
    # Training / structure
    # ------------------------------------------------------------------ #
    def _train_centroids(self) -> np.ndarray:
        segment = self._segment
        train_rows = min(self.train_size, segment.vectors.shape[0])
        finite = np.isfinite(segment.norms[:train_rows])
        nlist_eff = max(1, min(self.nlist, int(finite.sum())))
        if self._centroid_cache is not None:
            cached_rows, cached = self._centroid_cache
            if cached_rows == train_rows and cached.shape[0] == nlist_eff:
                return cached
        train = segment.vectors[:train_rows]
        if not finite.all():
            train = train[finite]
        if train.shape[0]:
            centroids = kmeans(train, nlist_eff, seed=self.seed)
        else:
            centroids = np.zeros((1, segment.vectors.shape[1]), dtype=np.float32)
        self._centroid_cache = (train_rows, centroids)
        return centroids

    def _rebuild_structure(self) -> _IVFStructure:
        centroids = self._train_centroids()
        segment = self._segment
        stored = segment.vectors
        assignments, _ = assign_to_centroids(stored, centroids)
        order = grouping_order(assignments, centroids.shape[0])
        counts = np.bincount(assignments, minlength=centroids.shape[0])
        offsets = np.zeros(centroids.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return _IVFStructure(
            centroids=centroids,
            centroid_norms=squared_norms(centroids),
            order=order,
            offsets=offsets,
            vectors=np.ascontiguousarray(stored[order]),
            norms=segment.norms[order],
            ids=segment.ids[order],
            list_of_position=np.repeat(
                np.arange(centroids.shape[0], dtype=np.int64), counts
            ),
        )

    def _probe_everything(self, structure: _IVFStructure) -> bool:
        return self.nprobe >= structure.nlist

    # ------------------------------------------------------------------ #
    # Probing
    # ------------------------------------------------------------------ #
    def _probe_lists(
        self, structure: _IVFStructure, block: np.ndarray, block_norms: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-query probe plan: ``(list_order, probe_counts)``.

        ``list_order[i]`` ranks all lists by coarse distance for query ``i``;
        ``probe_counts[i]`` is how many of them to probe — at least
        ``nprobe``, expanded until the probed lists hold ``>= k`` alive rows
        (the caller guarantees ``k <= len(self)``, so expansion always
        terminates).  Probed lists are always a prefix of ``list_order``,
        which is what makes recall monotone non-decreasing in ``nprobe``.
        """
        coarse = pairwise_squared_euclidean(
            block,
            structure.centroids,
            query_norms=block_norms,
            database_norms=structure.centroid_norms,
        )
        list_order = np.argsort(coarse, axis=1, kind="stable")
        alive_per_list = np.diff(structure.offsets)
        if self.tombstone_count:
            dead_grouped = self._segment.dead[structure.order]
            alive_per_list = alive_per_list - np.bincount(
                structure.list_of_position[dead_grouped], minlength=structure.nlist
            )
        cumulative = np.cumsum(alive_per_list[list_order], axis=1)
        needed = (cumulative < k).sum(axis=1) + 1
        probe_counts = np.minimum(
            np.maximum(needed, min(self.nprobe, structure.nlist)), structure.nlist
        )
        return list_order, probe_counts

    def _scan_probed(
        self,
        structure: _IVFStructure,
        list_order: np.ndarray,
        probe_counts: np.ndarray,
        width: int,
        score_list,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each query's best ``width`` probed candidates, by a list-major batch scan.

        ``score_list(lst, query_rows, start, stop, out)`` writes the scores of
        list ``lst`` (grouped rows ``start:stop``) for the ascending block
        rows ``query_rows`` probing it into ``out``, a
        ``(len(query_rows), stop - start)`` view of one flat score buffer.
        Returns unsorted ``(scores, positions)`` of shape ``(Q, width)``;
        positions are grouped-storage rows, tombstones score ``+inf``, and
        ``(+inf, -1)`` placeholders fill the row of a query whose probed
        lists hold fewer than ``width`` rows — never the final top-k, since
        probing is expanded until ``>= k`` alive candidates are covered.

        The block is split into runs of queries whose padded per-query
        layout (queries x widest candidate row) stays within
        ``query_chunk_size * database_chunk_size`` elements, the exact
        kernel's budget; at least one query per run.
        """
        num_queries = list_order.shape[0]
        sizes = np.diff(structure.offsets)
        probed = np.zeros((num_queries, structure.nlist), dtype=bool)
        position = np.arange(structure.nlist)[None, :] < probe_counts[:, None]
        query_index, rank = np.nonzero(position)
        probed[query_index, list_order[query_index, rank]] = True
        probed &= sizes > 0  # empty lists hold no candidates
        candidates = probed @ sizes
        dead_grouped = self._segment.dead[structure.order] if self.tombstone_count else None
        budget = self.query_chunk_size * self.database_chunk_size
        scores = np.empty((num_queries, width), dtype=np.float32)
        positions = np.empty((num_queries, width), dtype=np.int64)
        lo = 0
        while lo < num_queries:
            row_width = np.maximum.accumulate(np.maximum(candidates[lo:], width))
            elements = row_width * np.arange(1, row_width.size + 1)
            hi = lo + max(1, int(np.searchsorted(elements, budget, side="right")))
            scores[lo:hi], positions[lo:hi] = self._select_run(
                structure, probed[lo:hi], candidates[lo:hi], lo, width, dead_grouped, score_list
            )
            lo = hi
        return scores, positions

    @staticmethod
    def _select_run(
        structure: _IVFStructure,
        probed: np.ndarray,
        candidates: np.ndarray,
        first_query: int,
        width: int,
        dead_grouped: np.ndarray | None,
        score_list,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One budget-sized run of queries for :meth:`_scan_probed`.

        Scores land list-major in one flat buffer — one ``score_list`` call
        per touched list, with exactly the operands a per-list scan uses —
        then are laid out per query (its lists back to back, ``+inf``
        padding to the widest row) for a single ``argpartition``.
        """
        num_queries = probed.shape[0]
        offsets = structure.offsets
        pair_list, pair_query = np.nonzero(probed.T)  # list-major, queries ascending
        pair_len = np.diff(offsets)[pair_list]
        pair_start = np.cumsum(pair_len) - pair_len
        flat = np.empty(int(candidates.sum()), dtype=np.float32)
        per_list = probed.sum(axis=0)
        touched = np.flatnonzero(per_list)
        first_pair = (np.cumsum(per_list) - per_list)[touched]
        bounds, starts = offsets.tolist(), pair_start.tolist()
        block_rows = pair_query + first_query
        for lst, first, count in zip(touched.tolist(), first_pair.tolist(), per_list[touched].tolist()):
            start, stop = bounds[lst], bounds[lst + 1]
            out = flat[starts[first] : starts[first] + count * (stop - start)].reshape(count, stop - start)
            score_list(lst, block_rows[first : first + count], start, stop, out)
            if dead_grouped is not None:
                out[:, dead_grouped[start:stop]] = np.inf

        by_query = np.argsort(pair_query, kind="stable")  # lists ascending per query
        row_width = max(int(candidates.max()), width)
        padding = np.full(row_width, np.inf, dtype=np.float32)
        segments = np.stack([pair_start, pair_start + pair_len], axis=1)[by_query].tolist()
        pairs_per_query = np.bincount(pair_query, minlength=num_queries).tolist()
        pieces, first = [], 0
        for count, spare in zip(pairs_per_query, (row_width - candidates).tolist()):
            pieces.extend(flat[lo:hi] for lo, hi in segments[first : first + count])
            pieces.append(padding[:spare])
            first += count
        layout = np.concatenate(pieces).reshape(num_queries, row_width)
        if row_width > width:
            keep = np.argpartition(layout, width - 1, axis=1)[:, :width]
        else:
            keep = np.broadcast_to(np.arange(width), layout.shape)

        # Layout slot -> grouped position: find the pair each kept slot
        # falls in (pair slot starts ascend in query-major order).
        lengths = pair_len[by_query]
        owner = pair_query[by_query]
        column = np.cumsum(lengths) - lengths - (np.cumsum(candidates) - candidates)[owner]
        slot_start = owner * row_width + column
        slot = np.arange(num_queries)[:, None] * row_width + keep
        pair = np.searchsorted(slot_start, slot, side="right") - 1
        grouped = slot - slot_start[pair] + offsets[pair_list[by_query]][pair]
        kept_positions = np.where(keep < candidates[:, None], grouped, -1)
        return np.take_along_axis(layout, keep, axis=1), kept_positions

    def _search_block(
        self, structure: _IVFStructure, block: np.ndarray, block_norms: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        list_order, probe_counts = self._probe_lists(structure, block, block_norms, k)

        def score_list(lst, query_rows, start, stop, out):
            queries, query_norms = block[query_rows], block_norms[query_rows]
            # The per-list chunking of the exact kernel: same GEMM operands,
            # so every candidate distance is bit-identical to a chunked scan.
            for chunk in range(start, stop, self.database_chunk_size):
                end = min(chunk + self.database_chunk_size, stop)
                out[:, chunk - start : end - start] = pairwise_squared_euclidean(
                    queries,
                    structure.vectors[chunk:end],
                    query_norms=query_norms,
                    database_norms=structure.norms[chunk:end],
                )

        # Width k never leaves a placeholder: every query covers >= k rows.
        best_d, best_pos = self._scan_probed(structure, list_order, probe_counts, k, score_list)
        return finalize_topk(best_d, structure.ids[best_pos])
