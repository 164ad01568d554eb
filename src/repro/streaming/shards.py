"""Segmented row storage: the one row store behind every index backend.

Every built-in backend keeps its rows here — float32 vectors, their cached
squared norms, global ids and a tombstone mask — in append-only
:class:`IndexShard` segments behind one :class:`ShardedIndex`:

* **appends** go to the newest segment until it reaches ``shard_capacity``,
  then a fresh one opens — sealed segments (and their cached norms) are
  never touched, so ingesting new trajectories never re-encodes or
  re-indexes old ones.  A store whose class sets ``seals = False`` keeps
  every row in one segment that never seals and ignores ``shard_capacity``
  (the ``"chunked"``, ``"bruteforce"`` and ANN layouts);
* **ids** resolve through one map from alive id to storage position: every
  segment but the last is full, so position ``p`` sits in segment
  ``p // shard_capacity`` at row ``p % shard_capacity``;
* **removals** are tombstones: the row stays in storage but its distance is
  forced to ``+inf`` during scans, so deletes are O(1) and never reshuffle
  surviving ids;
* **compaction** rewrites the segment list without tombstoned rows,
  reclaiming their memory once enough garbage accumulates;
* **replicas** (:meth:`ShardedIndex.replica`) rely on that append-only
  storage: a replica's segments read the source's stored vectors, norms and
  ids in place, up to their own row counts, and own only a copy of their
  tombstone masks.  The source keeps appending past every replica's row
  count, and a replica copies its buffers before its own first append, so
  neither ever writes rows the other reads;
* **queries** carry one running top-k through the segments in order: each
  segment continues the *same* chunked kernel as the monolithic index
  (:func:`repro.serving.index.scan_topk_candidates`) from the candidates the
  segments before it left, comparing every chunk against each query's
  running k-th distance.  One ``(distance, id)`` sort of the final ``k``
  candidates ends the query.

**Bit-identity.**  When ``shard_capacity`` is a multiple of
``database_chunk_size`` (true for the defaults, 8192 and 4096), shard
boundaries land on the monolithic index's chunk grid: the sharded scan
issues the monolithic scan's chunk sequence — every GEMM sees a
bitwise-identical input block and every selection the same candidates — so
its ids *and* distances are **bit-identical** to
:meth:`SimilarityIndex.topk` over the same rows in the same order, even
where exact-equal distances straddle the k boundary — sharding changes
layout, not answers.  Misaligned capacities change GEMM block shapes, and
BLAS reduction order is not shape-invariant, so distances may then drift by
one float32 ulp (the top-k is still exact for the arithmetic performed; ids
still agree on data without near-ulp ties), and a boundary tie may keep a
different, equally correct, member.

Row ids are global and stable: by default they number rows in insertion
order, so a ``ShardedIndex`` filled in database order reports the same ids a
:class:`SimilarityIndex` would report as row indices.
"""

from __future__ import annotations

import copy
import sys
from typing import Iterator

import numpy as np

from repro.serving.index import (
    DEFAULT_DATABASE_CHUNK,
    DEFAULT_QUERY_CHUNK,
    SearchResult,
    as_float32_matrix,
    check_new_ids,
    finalize_topk,
    scan_count_before,
    scan_topk_candidates,
    squared_norms,
)

#: Default number of rows one shard holds before a new shard opens.
DEFAULT_SHARD_CAPACITY = 8192
#: Initial allocation of a shard's growable buffer.
_INITIAL_SHARD_ALLOCATION = 256
#: Capacity of the one segment of a store that never seals.
_UNSEALED_CAPACITY = sys.maxsize


class IndexShard:
    """One append-only segment of a :class:`ShardedIndex`.

    The shard keeps a growable (doubling) float32 buffer of vectors, their
    cached squared norms, their global row ids and a tombstone mask.  It is
    append-only in the segment sense: rows are only ever added at the end
    (until ``capacity``) or tombstoned — never updated or reordered.  Id
    lookup belongs to the owning index, which addresses rows by position.

    Because stored rows are written once, a :meth:`twin` reads this shard's
    vector, norm and id buffers in place and copies only the tombstone mask.
    A shard never writes into buffers it does not own: a twin copies them
    before its first append, even when the rows would fit the spare
    allocation, because that space belongs to the owner's later appends.
    """

    def __init__(self, dim: int, capacity: int, *, database_chunk_size: int = DEFAULT_DATABASE_CHUNK) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = int(dim)
        self.capacity = int(capacity)
        self.database_chunk_size = int(database_chunk_size)
        allocation = min(self.capacity, _INITIAL_SHARD_ALLOCATION)
        self._vectors = np.empty((allocation, self.dim), dtype=np.float32)
        self._norms = np.empty(allocation, dtype=np.float32)
        self._ids = np.empty(allocation, dtype=np.int64)
        self._dead = np.zeros(allocation, dtype=bool)
        self._count = 0
        self._dead_count = 0
        #: ``False`` on a twin: the row buffers belong to another shard.
        self._owns_rows = True

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Stored rows, tombstoned included."""
        return self._count

    @property
    def dead_count(self) -> int:
        return self._dead_count

    @property
    def is_full(self) -> bool:
        return self._count >= self.capacity

    @property
    def remaining(self) -> int:
        return self.capacity - self._count

    @property
    def vectors(self) -> np.ndarray:
        """The stored ``(len(self), dim)`` vectors (tombstoned rows included)."""
        return self._vectors[: self._count]

    @property
    def norms(self) -> np.ndarray:
        """Cached squared norms of the stored vectors."""
        return self._norms[: self._count]

    @property
    def ids(self) -> np.ndarray:
        """Global row ids of the stored rows."""
        return self._ids[: self._count]

    @property
    def dead(self) -> np.ndarray:
        """Tombstone mask over the stored rows."""
        return self._dead[: self._count]

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def twin(self) -> "IndexShard":
        """A shard reading these stored rows in place, with its own tombstones."""
        twin = copy.copy(self)
        twin._dead = self._dead[: self._count].copy()
        twin._owns_rows = False
        return twin

    def _grow_to(self, needed: int) -> None:
        """Make room for ``needed`` rows in buffers this shard owns."""
        allocated = self._vectors.shape[0]
        if needed <= allocated and self._owns_rows:
            return
        new_size = allocated
        while new_size < needed:
            new_size *= 2
        new_size = min(new_size, self.capacity)
        for name in ("_vectors", "_norms", "_ids", "_dead"):
            old = getattr(self, name)
            shape = (new_size,) + old.shape[1:]
            fresh = np.zeros(shape, dtype=old.dtype) if name == "_dead" else np.empty(shape, dtype=old.dtype)
            fresh[: self._count] = old[: self._count]
            setattr(self, name, fresh)
        self._owns_rows = True

    def append(self, vectors: np.ndarray, ids: np.ndarray) -> None:
        """Append rows (must fit: callers split across shards via ``remaining``)."""
        vectors = as_float32_matrix(vectors)
        if vectors.shape[1] != self.dim:
            raise ValueError(f"vector dimension {vectors.shape[1]} != shard dimension {self.dim}")
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape != (vectors.shape[0],):
            raise ValueError("ids must have exactly one entry per vector row")
        count = vectors.shape[0]
        if count > self.remaining:
            raise ValueError(f"appending {count} rows overflows shard capacity {self.capacity}")
        self._grow_to(self._count + count)
        start = self._count
        stop = start + count
        self._vectors[start:stop] = vectors
        # Norms use the same row-wise einsum as the monolithic index, so a
        # row's cached norm is bit-identical however it arrived.
        self._norms[start:stop] = squared_norms(vectors)
        self._ids[start:stop] = ids
        self._dead[start:stop] = False
        self._count = stop

    def tombstone(self, row: int) -> None:
        """Mark the alive local ``row`` dead (the owning index tracks liveness)."""
        self._dead[row] = True
        self._dead_count += 1

    # ------------------------------------------------------------------ #
    # Queries (the chunked kernels over this segment)
    # ------------------------------------------------------------------ #
    def scan_topk(
        self,
        block: np.ndarray,
        block_norms: np.ndarray,
        k: int,
        best: tuple[np.ndarray | None, np.ndarray | None] = (None, None),
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Continue the running top-k candidates ``best`` over this shard's rows."""
        if self._count == 0:
            return best
        return scan_topk_candidates(
            block,
            block_norms,
            self.vectors,
            self.norms,
            k,
            self.database_chunk_size,
            row_ids=self.ids,
            exclude=self.dead if self._dead_count else None,
            best=best,
        )

    def count_before(
        self,
        block: np.ndarray,
        block_norms: np.ndarray,
        truth_d: np.ndarray,
        truth_ids: np.ndarray,
    ) -> np.ndarray:
        """Rows of this shard sorting strictly before each query's truth item."""
        if self._count == 0:
            return np.zeros(block.shape[0], dtype=np.int64)
        return scan_count_before(
            block,
            block_norms,
            self.vectors,
            self.norms,
            truth_d,
            truth_ids,
            self.database_chunk_size,
            row_ids=self.ids,
            exclude=self.dead if self._dead_count else None,
        )


class ShardedIndex:
    """A router over append-only :class:`IndexShard` segments.

    Registered as the ``"sharded"`` backend and the base class of every
    other built-in one.  Supports ``add`` / ``remove`` / ``compact``
    mutations, ``top_k`` queries that carry one running top-k through the
    shards in order, ``ranks_of`` counts summed over shards, ``segments()``
    for snapshots, and :meth:`replica` — a read replica that relies on the
    append-only storage to share every stored row instead of copying it.

    ``generation`` increments on every mutation; caches keyed on it (the
    engine's LRU) invalidate automatically.
    """

    name = "sharded"
    supports_removal = True
    #: Conformance hint (see ``tests/backend_conformance.py``): exact
    #: backends promise oracle-identical neighbour ids; approximate ones
    #: (the ANN package) set this ``False`` and promise faithfulness
    #: invariants instead.
    is_exact = True
    #: ``False`` keeps every row in one segment that never seals;
    #: ``shard_capacity`` is then ignored.
    seals = True

    def __init__(
        self,
        dim: int | None = None,
        *,
        shard_capacity: int = DEFAULT_SHARD_CAPACITY,
        query_chunk_size: int = DEFAULT_QUERY_CHUNK,
        database_chunk_size: int = DEFAULT_DATABASE_CHUNK,
    ) -> None:
        if self.seals and shard_capacity < 1:
            raise ValueError("shard_capacity must be >= 1")
        if query_chunk_size < 1 or database_chunk_size < 1:
            raise ValueError("chunk sizes must be positive")
        self._dim = int(dim) if dim is not None else None
        self.shard_capacity = int(shard_capacity) if self.seals else _UNSEALED_CAPACITY
        self.query_chunk_size = int(query_chunk_size)
        self.database_chunk_size = int(database_chunk_size)
        self._shards: list[IndexShard] = []
        #: Storage position of every alive row, by id (see the module
        #: docstring).  ``None`` on a replica until `_id_map` builds it.
        self._position_of: dict[int, int] | None = {}
        #: Ids of tombstoned rows still stored in some shard: re-adding one
        #: would store two rows under the same id (and make snapshots
        #: unrestorable), so `add` rejects them until `compact`.  Built
        #: together with `_position_of`.
        self._dead_ids: set[int] | None = set()
        self._next_id = 0
        self.generation = 0

    @classmethod
    def from_vectors(cls, vectors: np.ndarray, ids: np.ndarray | None = None, **kwargs) -> "ShardedIndex":
        """Build an index holding ``vectors`` (ids default to row numbers)."""
        vectors = as_float32_matrix(vectors)
        index = cls(dim=vectors.shape[1], **kwargs)
        if vectors.shape[0]:
            index.add(vectors, ids=ids)
        return index

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Alive (queryable) rows across all shards."""
        return sum(len(shard) - shard.dead_count for shard in self._shards)

    @property
    def dim(self) -> int | None:
        """Representation dimensionality (``None`` until the first add)."""
        return self._dim

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> tuple[IndexShard, ...]:
        return tuple(self._shards)

    @property
    def next_id(self) -> int:
        """The id the next auto-assigned row will receive."""
        return self._next_id

    @next_id.setter
    def next_id(self, value: int) -> None:
        if int(value) < self._next_id:
            raise ValueError("next_id may only move forward")
        self._next_id = int(value)

    @property
    def tombstone_count(self) -> int:
        """Stored-but-dead rows awaiting :meth:`compact`."""
        return sum(shard.dead_count for shard in self._shards)

    def __contains__(self, row_id: int) -> bool:
        return int(row_id) in self._id_map()

    def _id_map(self) -> dict[int, int]:
        """The alive-id → storage-position map; a replica builds it from its
        shards on first need (serving top-k queries never needs it)."""
        if self._position_of is None:
            position_of: dict[int, int] = {}
            dead_ids: set[int] = set()
            start = 0
            for shard in self._shards:
                ids, dead = shard.ids, shard.dead
                alive = np.flatnonzero(~dead)
                position_of.update(zip(ids[alive].tolist(), (alive + start).tolist()))
                dead_ids.update(ids[dead].tolist())
                start += len(shard)
            # Complete before it is published: concurrent readers of a
            # shared replica may build it twice, but never see half of it.
            self._dead_ids = dead_ids
            self._position_of = position_of
        return self._position_of

    def replica(self) -> "ShardedIndex":
        """A read replica over the same stored rows, built in O(segments).

        Each replica segment is an :meth:`IndexShard.twin`: it reads this
        index's vectors, norms and ids in place, up to its own row count,
        and owns a copy of its tombstone mask, so the replica answers
        bit-identically by construction.  No later mutation of either index
        reaches the other: this one only appends past the replica's row
        counts or compacts into fresh segments, and the replica copies its
        buffers before its own first append.  The id map is not copied; the
        replica builds it on its first ``add``, ``remove``, ``ranks_of`` or
        ``in``.  This index must not be mutated during the call.  A subclass
        that adds mutable state must override this to give the replica its
        own.
        """
        replica = copy.copy(self)
        replica._shards = [shard.twin() for shard in self._shards]
        replica._position_of = replica._dead_ids = None
        return replica

    def segments(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The stored rows as ``(vectors, ids, dead)`` views, one per non-empty shard."""
        for shard in self._shards:
            if len(shard):
                yield shard.vectors, shard.ids, shard.dead

    def _check_queries(self, queries: np.ndarray) -> np.ndarray:
        queries = as_float32_matrix(queries, "queries")
        if self._dim is not None and queries.shape[1] != self._dim:
            raise ValueError(
                f"query dimension {queries.shape[1]} does not match index dimension {self._dim}"
            )
        return queries

    def _check_top_k(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, int]:
        """Validated queries and ``k`` clamped to the alive row count."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return self._check_queries(queries), min(k, len(self))

    def _check_ranks(
        self, queries: np.ndarray, truth_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Validated queries, truth ids and the truth rows' storage positions."""
        queries = self._check_queries(queries)
        truth = np.asarray(truth_ids, dtype=np.int64)
        if truth.shape != (queries.shape[0],):
            raise ValueError("truth_ids must have one entry per query row")
        position_of = self._id_map()
        try:
            positions = [position_of[row_id] for row_id in truth.tolist()]
        except KeyError as missing:
            raise ValueError(
                f"truth id {missing.args[0]} is not an alive row of the index"
            ) from None
        return queries, truth, np.array(positions, dtype=np.int64)

    def _gather(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stored vectors and cached norms at storage ``positions``."""
        vectors = np.empty((positions.size, self._dim), dtype=np.float32)
        norms = np.empty(positions.size, dtype=np.float32)
        shard_of, row_of = np.divmod(positions, self.shard_capacity)
        for number in np.unique(shard_of).tolist():
            take = shard_of == number
            shard = self._shards[number]
            vectors[take] = shard.vectors[row_of[take]]
            norms[take] = shard.norms[row_of[take]]
        return vectors, norms

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, vectors: np.ndarray, ids: np.ndarray | None = None) -> np.ndarray:
        """Append rows, returning their global ids.

        Ids are assigned sequentially in insertion order unless given
        explicitly (snapshot restore); explicit ids must be fresh.  Rows
        stream into the newest shard until it fills, then further shards
        open — sealed shards are never touched.
        """
        vectors = as_float32_matrix(vectors)
        if self._dim is None:
            self._dim = vectors.shape[1]
        elif vectors.shape[1] != self._dim:
            raise ValueError(f"vector dimension {vectors.shape[1]} != index dimension {self._dim}")
        count = vectors.shape[0]
        position_of = self._id_map()
        if ids is None:
            ids = np.arange(self._next_id, self._next_id + count, dtype=np.int64)
        else:
            ids = check_new_ids(ids, count, position_of.keys(), self._dead_ids)
        if count == 0:
            return ids
        start = sum(len(shard) for shard in self._shards)
        written = 0
        while written < count:
            if not self._shards or self._shards[-1].is_full:
                self._shards.append(
                    IndexShard(
                        self._dim,
                        self.shard_capacity,
                        database_chunk_size=self.database_chunk_size,
                    )
                )
            shard = self._shards[-1]
            take = min(shard.remaining, count - written)
            shard.append(vectors[written : written + take], ids[written : written + take])
            written += take
        position_of.update(zip(ids.tolist(), range(start, start + count)))
        self._next_id = max(self._next_id, int(ids.max()) + 1)
        self.generation += 1
        return ids

    def remove(self, ids) -> int:
        """Tombstone rows by global id; returns how many were alive."""
        removed = 0
        position_of = self._id_map()
        for row_id in np.atleast_1d(np.asarray(ids, dtype=np.int64)).tolist():
            position = position_of.pop(row_id, None)
            if position is None:
                continue
            shard, row = divmod(position, self.shard_capacity)
            self._shards[shard].tombstone(row)
            self._dead_ids.add(row_id)
            removed += 1
        if removed:
            self.generation += 1
        return removed

    def compact(self, *, min_tombstones: int = 1) -> bool:
        """Rewrite shards without tombstoned rows, reclaiming their memory.

        Surviving rows keep their ids and relative order; shard boundaries
        are re-drawn at ``shard_capacity``.  No-op (returns ``False``) while
        fewer than ``min_tombstones`` rows are dead.
        """
        if self.tombstone_count < min_tombstones:
            return False
        survivors_v: list[np.ndarray] = []
        survivors_i: list[np.ndarray] = []
        for shard in self._shards:
            alive = ~shard.dead
            survivors_v.append(shard.vectors[alive])
            survivors_i.append(shard.ids[alive])
        self._shards = []
        self._position_of = {}
        self._dead_ids = set()
        next_id = self._next_id
        generation = self.generation
        if survivors_v:
            vectors = np.concatenate(survivors_v, axis=0)
            ids = np.concatenate(survivors_i)
            if vectors.shape[0]:
                self.add(vectors, ids=ids)
        self._next_id = next_id
        self.generation = generation + 1
        return True

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def top_k(self, queries: np.ndarray, k: int) -> SearchResult:
        """The ``k`` nearest alive rows for each query, over every shard.

        Each query block's running top-k is carried through the shards in
        order — each continues the chunked scan where the previous one
        stopped — and sorted once at the end by ``(distance, id)``.
        Semantics match :meth:`SimilarityIndex.topk` exactly — on the same
        rows in the same insertion order the returned ids and distances are
        bit-identical, boundary ties included, whenever ``shard_capacity``
        is a multiple of ``database_chunk_size`` (see the module
        docstring).  ``k`` is clamped to the alive row count.
        """
        queries, k = self._check_top_k(queries, k)
        num_queries = queries.shape[0]
        indices = np.empty((num_queries, k), dtype=np.int64)
        distances = np.empty((num_queries, k), dtype=np.float32)
        if num_queries == 0 or k == 0:
            return SearchResult(indices=indices, distances=distances)

        for row in range(0, num_queries, self.query_chunk_size):
            block = queries[row : row + self.query_chunk_size]
            block_norms = squared_norms(block)
            # One running top-k, carried through the segments in order.
            best: tuple[np.ndarray | None, np.ndarray | None] = (None, None)
            for shard in self._shards:
                best = shard.scan_topk(block, block_norms, k, best)
            block_indices, block_distances = finalize_topk(*best)
            block_slice = slice(row, row + block.shape[0])
            indices[block_slice] = block_indices
            distances[block_slice] = block_distances
        return SearchResult(indices=indices, distances=distances)

    def ranks_of(self, queries: np.ndarray, truth_ids: np.ndarray) -> np.ndarray:
        """1-based rank of ``truth_ids[i]`` among query ``i``'s neighbours.

        The counting semantics (and results) match
        :meth:`SimilarityIndex.ranks_of` with ids in place of row indices:
        rank = 1 + the number of alive rows sorting strictly before the truth
        row (smaller distance, or equal distance and smaller id).
        """
        queries, truth, positions = self._check_ranks(queries, truth_ids)
        ranks = np.empty(truth.shape, dtype=np.int64)
        for row in range(0, queries.shape[0], self.query_chunk_size):
            block = queries[row : row + self.query_chunk_size]
            block_norms = squared_norms(block)
            block_truth = truth[row : row + block.shape[0]]
            # Pass 1: the truth rows' distances, with the same norms-minus-dot
            # arithmetic as the chunk kernel.
            gathered, gathered_norms = self._gather(positions[row : row + block.shape[0]])
            truth_d = (
                block_norms
                + gathered_norms
                - np.float32(2.0) * np.einsum("ij,ij->i", block, gathered)
            )
            np.maximum(truth_d, 0.0, out=truth_d)
            # Pass 2: count rows sorting strictly before, summed over shards.
            before = np.zeros(block.shape[0], dtype=np.int64)
            for shard in self._shards:
                before += shard.count_before(block, block_norms, truth_d, block_truth)
            ranks[row : row + block.shape[0]] = before + 1
        return ranks
