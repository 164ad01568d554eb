"""Index backends behind the :class:`~repro.api.engine.Engine` facade.

The engine never touches a concrete index class: it talks to the
:class:`IndexBackend` protocol and obtains instances from a string-keyed
registry, so a new backend (an ANN index, a quantised store, a remote
service) is a one-file drop-in — implement the protocol, call
:func:`register_backend`, and every caller of the facade can select it with
``EngineConfig(backend="your-name")``.

Built-in backends
-----------------
``"bruteforce"``
    Reference implementation: the full ``(Q, D)`` float32 distance matrix
    plus a stable full sort, exactly the pre-serving-layer evaluation path.
    Useful as the semantics oracle in tests and for tiny corpora; memory and
    time are unbounded in the database size.
``"chunked"``
    The monolithic :class:`~repro.serving.index.SimilarityIndex`: bounded
    memory (one ``query_chunk × database_chunk`` block at a time) and
    ``argpartition`` partial selection.  Mutations rebuild lazily — adds are
    cheap, the index itself is reconstructed on the next query.
``"sharded"``
    The :class:`~repro.streaming.shards.ShardedIndex`: append-only segments,
    O(1) tombstone removals, compaction, query fan-out + k-way merge.  The
    exact production serving path.
``"ivf"``
    :class:`~repro.ann.ivf.IVFBackend`: k-means inverted lists, per-query
    ``nprobe`` probing with exact re-ranking of every probed candidate.
    Approximate (recall < 1 when the true neighbour's list is unprobed) but
    sub-linear in the corpus; ``nprobe >= nlist`` degenerates to the exact
    bruteforce scan bit-identically.  Supports remove/compact.
``"ivfpq"``
    :class:`~repro.ann.ivfpq.IVFPQBackend`: IVF + product-quantized residual
    codes scanned with ADC lookup tables, exact re-rank of the best
    ``rerank`` candidates per query.  Supports remove/compact.

The ANN backends take their knobs (``nlist``, ``nprobe``, ``train_size``,
``seed``, ``pq_m``, ``pq_bits``, ``rerank``) through
:func:`create_backend`'s extra keyword arguments — from the facade, set
``EngineConfig(backend_params={...})``.  Every registered backend must pass
the conformance suite in ``tests/backend_conformance.py``.

Bit-identity: ``"chunked"`` and ``"sharded"`` run the same chunked GEMM
kernel, so whenever ``shard_capacity`` is a multiple of
``database_chunk_size`` (the defaults: 8192 and 4096) they return
bit-identical ids *and* distances over the same rows — verified by a
hypothesis property in ``tests/test_api.py``.

Registry contract (for third-party backends)
--------------------------------------------
A backend factory is registered under a unique name and must accept the
keyword arguments ``dim`` (``int | None`` — ``None`` means "fix it on first
add"), ``shard_capacity``, ``query_chunk_size`` and ``database_chunk_size``
(geometry hints a backend may ignore).  The returned object must implement
the :class:`IndexBackend` protocol; backends that do not support removal
should raise :class:`UnsupportedOperation` from ``remove`` and return
``False`` from ``compact``.  Global row ids are assigned by the caller and
must be echoed back verbatim in results (never re-numbered).
"""

from __future__ import annotations

from typing import Callable, Iterator, Protocol, runtime_checkable

import numpy as np

from repro.ann.ivf import IVFBackend
from repro.ann.ivfpq import IVFPQBackend
from repro.serving.index import (
    DEFAULT_DATABASE_CHUNK,
    DEFAULT_QUERY_CHUNK,
    SearchResult,
    SimilarityIndex,
    as_float32_matrix,
    check_new_ids,
    pairwise_squared_euclidean,
    squared_norms,
)
from repro.streaming.shards import DEFAULT_SHARD_CAPACITY, ShardedIndex


class UnsupportedOperation(RuntimeError):
    """An optional :class:`IndexBackend` operation this backend lacks."""


@runtime_checkable
class IndexBackend(Protocol):
    """What the engine requires from an index implementation.

    ``generation`` must increase on every mutation (the engine keys its query
    cache on it), ``next_id`` is the id the next auto-assigned row receives
    (persisted across snapshot/restore so ids are never reused), and
    ``segments()`` exposes the stored rows for snapshotting as
    ``(vectors, ids, dead)`` triples.  ``supports_removal`` declares whether
    ``remove`` works (append-only backends set it ``False`` and raise
    :class:`UnsupportedOperation`); the engine consults it when restoring a
    tombstoned snapshot into a different backend.
    """

    name: str
    generation: int
    supports_removal: bool

    def __len__(self) -> int: ...

    @property
    def dim(self) -> int | None: ...

    @property
    def next_id(self) -> int: ...

    @next_id.setter
    def next_id(self, value: int) -> None: ...

    def add(self, vectors: np.ndarray, ids: np.ndarray | None = None) -> np.ndarray: ...

    def remove(self, ids) -> int: ...

    def compact(self, *, min_tombstones: int = 1) -> bool: ...

    def top_k(self, queries: np.ndarray, k: int) -> SearchResult: ...

    def ranks_of(self, queries: np.ndarray, truth_ids: np.ndarray) -> np.ndarray: ...

    def segments(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]: ...


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
_REGISTRY: dict[str, Callable[..., IndexBackend]] = {}


def register_backend(name: str, factory: Callable[..., IndexBackend] | None = None):
    """Register a backend factory under ``name`` (usable as a decorator).

    ``factory(dim=None, shard_capacity=..., query_chunk_size=...,
    database_chunk_size=...)`` must return an :class:`IndexBackend`.
    Re-registering an existing name raises — deliberate replacement goes
    through :func:`unregister_backend` first.
    """

    def _register(factory: Callable[..., IndexBackend]):
        if name in _REGISTRY:
            raise ValueError(f"index backend '{name}' is already registered")
        _REGISTRY[name] = factory
        return factory

    return _register if factory is None else _register(factory)


def unregister_backend(name: str) -> None:
    """Remove a registered backend (primarily for tests and plugins)."""
    _REGISTRY.pop(name, None)


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def create_backend(
    name: str,
    *,
    dim: int | None = None,
    shard_capacity: int = DEFAULT_SHARD_CAPACITY,
    query_chunk_size: int = DEFAULT_QUERY_CHUNK,
    database_chunk_size: int = DEFAULT_DATABASE_CHUNK,
    **backend_params,
) -> IndexBackend:
    """Instantiate the backend registered under ``name``.

    Extra keyword arguments are forwarded to the factory verbatim — the
    backend-specific knobs (``nlist``/``nprobe``/``pq_m``/… for the ANN
    backends).  A backend that does not take a given knob raises its natural
    ``TypeError``, so typos never pass silently.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown index backend '{name}'; available: {', '.join(available_backends())}"
        ) from None
    return factory(
        dim=dim,
        shard_capacity=shard_capacity,
        query_chunk_size=query_chunk_size,
        database_chunk_size=database_chunk_size,
        **backend_params,
    )


# --------------------------------------------------------------------- #
# Shared id-keyed storage for the immutable (array-backed) backends
# --------------------------------------------------------------------- #
class _ArrayBackend:
    """Append-only ``(vectors, ids)`` storage shared by the non-sharded backends.

    Rows accumulate in blocks; a concatenated view plus the id→row map is
    materialised lazily and invalidated by mutations.  Removal is not
    supported — these backends model the "encode once, freeze, serve" shape.
    """

    name = "array"
    supports_removal = False
    #: Conformance hint (see ``tests/backend_conformance.py``): exact
    #: backends promise oracle-identical neighbour ids; approximate ones
    #: (the ANN package) set this ``False`` and promise faithfulness
    #: invariants instead.
    is_exact = True

    def __init__(
        self,
        dim: int | None = None,
        *,
        shard_capacity: int = DEFAULT_SHARD_CAPACITY,
        query_chunk_size: int = DEFAULT_QUERY_CHUNK,
        database_chunk_size: int = DEFAULT_DATABASE_CHUNK,
    ) -> None:
        self._dim = int(dim) if dim is not None else None
        self.query_chunk_size = int(query_chunk_size)
        self.database_chunk_size = int(database_chunk_size)
        self._blocks: list[tuple[np.ndarray, np.ndarray]] = []
        self._known_ids: set[int] = set()
        self._count = 0
        self._next_id = 0
        self.generation = 0
        self._vectors: np.ndarray | None = None
        self._ids: np.ndarray | None = None
        self._rows_by_id: dict[int, int] | None = None

    def __len__(self) -> int:
        return self._count

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

    def add(self, vectors: np.ndarray, ids: np.ndarray | None = None) -> np.ndarray:
        matrix = as_float32_matrix(vectors)
        if matrix is vectors and matrix.flags.writeable:
            # Copy only a caller's writable alias; frozen matrices (the
            # engine's encode output, store archives) are shared as-is.
            matrix = matrix.copy()
        vectors = matrix
        if self._dim is None:
            self._dim = vectors.shape[1]
        elif vectors.shape[1] != self._dim:
            raise ValueError(f"vector dimension {vectors.shape[1]} != index dimension {self._dim}")
        count = vectors.shape[0]
        if ids is None:
            ids = np.arange(self._next_id, self._next_id + count, dtype=np.int64)
        else:
            ids = check_new_ids(ids, count, self._known_ids)
        if count == 0:
            return ids
        self._blocks.append((vectors, ids))
        self._known_ids.update(ids.tolist())
        self._count += count
        self._next_id = max(self._next_id, int(ids.max()) + 1)
        self.generation += 1
        self._invalidate()
        return ids

    def remove(self, ids) -> int:
        raise UnsupportedOperation(
            f"the '{self.name}' backend is append-only and does not support remove(); "
            "use the 'sharded' backend for tombstones and compaction"
        )

    def compact(self, *, min_tombstones: int = 1) -> bool:
        return False

    def segments(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        self._materialise()
        if self._count:
            yield self._vectors, self._ids, np.zeros(self._count, dtype=bool)

    # ------------------------------------------------------------------ #
    def _invalidate(self) -> None:
        self._vectors = None
        self._ids = None
        self._rows_by_id = None

    def _materialise(self) -> None:
        if self._vectors is not None or not self._blocks:
            return
        self._vectors = np.concatenate([block for block, _ in self._blocks], axis=0)
        # The concatenation owns fresh data; freeze it so downstream indexes
        # (SimilarityIndex) share the matrix instead of defensively copying.
        self._vectors.flags.writeable = False
        self._ids = np.concatenate([ids for _, ids in self._blocks])
        self._rows_by_id = dict(zip(self._ids.tolist(), range(self._ids.shape[0])))

    def _check_ready(self, queries: np.ndarray) -> np.ndarray:
        queries = as_float32_matrix(queries, "queries")
        if self._dim is not None and queries.shape[1] != self._dim:
            raise ValueError(
                f"query dimension {queries.shape[1]} does not match index dimension {self._dim}"
            )
        return queries

    def _truth_rows(self, truth_ids: np.ndarray) -> np.ndarray:
        self._materialise()
        if self._rows_by_id is None:
            raise ValueError("the index is empty; no truth rows exist")
        rows = np.empty(truth_ids.shape, dtype=np.int64)
        for i, row_id in enumerate(truth_ids):
            row = self._rows_by_id.get(int(row_id))
            if row is None:
                raise ValueError(f"truth id {int(row_id)} is not a row of the index")
            rows[i] = row
        return rows


@register_backend("chunked")
class ChunkedBackend(_ArrayBackend):
    """The monolithic chunked index (:class:`SimilarityIndex`) as a backend.

    The underlying index freezes its database at construction, so mutation is
    modelled as lazy rebuild: ``add`` appends to the row storage and the
    index is reconstructed on the next query.  Ids are mapped onto the
    index's row numbers; with insertion-ordered ids (the default) tie
    handling is identical to the sharded backend's ``(distance, id)`` order.
    """

    name = "chunked"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._index: SimilarityIndex | None = None

    def _invalidate(self) -> None:
        super()._invalidate()
        self._index = None

    def _materialised_index(self) -> SimilarityIndex:
        self._materialise()
        if self._index is None:
            self._index = SimilarityIndex(
                self._vectors,
                query_chunk_size=self.query_chunk_size,
                database_chunk_size=self.database_chunk_size,
            )
        return self._index

    def top_k(self, queries: np.ndarray, k: int) -> SearchResult:
        if k < 1:
            raise ValueError("k must be >= 1")
        queries = self._check_ready(queries)
        if self._count == 0 or queries.shape[0] == 0:
            k = min(k, self._count)
            return SearchResult(
                indices=np.empty((queries.shape[0], k), dtype=np.int64),
                distances=np.empty((queries.shape[0], k), dtype=np.float32),
            )
        result = self._materialised_index().topk(queries, k)
        return SearchResult(indices=self._ids[result.indices], distances=result.distances)

    def ranks_of(self, queries: np.ndarray, truth_ids: np.ndarray) -> np.ndarray:
        queries = self._check_ready(queries)
        truth = np.asarray(truth_ids, dtype=np.int64)
        index = self._materialised_index()
        return index.ranks_of(queries, self._truth_rows(truth))


@register_backend("bruteforce")
class BruteforceBackend(_ArrayBackend):
    """Full distance matrix + stable full sort — the reference semantics.

    Every query materialises the whole ``(Q, D)`` float32 distance matrix
    and sorts it per row by ``(distance, id)``.  This is the oracle the
    chunked/sharded paths are tested against and the right choice for tiny
    corpora; it is *not* bounded in memory or time.
    """

    name = "bruteforce"

    def _distances(self, queries: np.ndarray) -> np.ndarray:
        self._materialise()
        return pairwise_squared_euclidean(
            queries,
            self._vectors,
            query_norms=squared_norms(queries),
            database_norms=squared_norms(self._vectors),
        )

    def top_k(self, queries: np.ndarray, k: int) -> SearchResult:
        if k < 1:
            raise ValueError("k must be >= 1")
        queries = self._check_ready(queries)
        k = min(k, self._count)
        if self._count == 0 or queries.shape[0] == 0:
            return SearchResult(
                indices=np.empty((queries.shape[0], k), dtype=np.int64),
                distances=np.empty((queries.shape[0], k), dtype=np.float32),
            )
        squared = self._distances(queries)
        id_row = np.broadcast_to(self._ids, squared.shape)
        order = np.lexsort((id_row, squared), axis=-1)[:, :k]
        return SearchResult(
            indices=np.take_along_axis(id_row, order, axis=1),
            distances=np.sqrt(np.take_along_axis(squared, order, axis=1)),
        )

    def ranks_of(self, queries: np.ndarray, truth_ids: np.ndarray) -> np.ndarray:
        queries = self._check_ready(queries)
        truth = np.asarray(truth_ids, dtype=np.int64)
        if truth.shape != (queries.shape[0],):
            raise ValueError("truth_ids must have one entry per query row")
        truth_rows = self._truth_rows(truth)
        squared = self._distances(queries)
        truth_d = squared[np.arange(squared.shape[0]), truth_rows]
        ids = self._ids[None, :]
        not_truth = ids != truth[:, None]
        closer = squared < truth_d[:, None]
        tie_before = (squared == truth_d[:, None]) & (ids < truth[:, None])
        return ((closer | tie_before) & not_truth).sum(axis=1).astype(np.int64) + 1


@register_backend("sharded")
class ShardedBackend:
    """The production sharded index (:class:`ShardedIndex`) as a backend.

    Thin adapter: appends stream into append-only shards, removals are
    tombstones, ``compact`` reclaims them, queries fan out and k-way merge.
    The only built-in backend supporting the full mutation surface.
    """

    name = "sharded"
    supports_removal = True
    is_exact = True

    def __init__(
        self,
        dim: int | None = None,
        *,
        shard_capacity: int = DEFAULT_SHARD_CAPACITY,
        query_chunk_size: int = DEFAULT_QUERY_CHUNK,
        database_chunk_size: int = DEFAULT_DATABASE_CHUNK,
    ) -> None:
        self._index = ShardedIndex(
            dim=dim,
            shard_capacity=shard_capacity,
            query_chunk_size=query_chunk_size,
            database_chunk_size=database_chunk_size,
        )

    def __len__(self) -> int:
        return len(self._index)

    @property
    def dim(self) -> int | None:
        return self._index.dim

    @property
    def generation(self) -> int:
        return self._index.generation

    @property
    def next_id(self) -> int:
        return self._index.next_id

    @next_id.setter
    def next_id(self, value: int) -> None:
        self._index.next_id = value

    @property
    def num_shards(self) -> int:
        return self._index.num_shards

    def add(self, vectors: np.ndarray, ids: np.ndarray | None = None) -> np.ndarray:
        return self._index.add(vectors, ids=ids)

    def remove(self, ids) -> int:
        return self._index.remove(ids)

    def compact(self, *, min_tombstones: int = 1) -> bool:
        return self._index.compact(min_tombstones=min_tombstones)

    def top_k(self, queries: np.ndarray, k: int) -> SearchResult:
        return self._index.top_k(queries, k)

    def ranks_of(self, queries: np.ndarray, truth_ids: np.ndarray) -> np.ndarray:
        return self._index.ranks_of(queries, truth_ids)

    def segments(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        for shard in self._index.shards:
            if len(shard):
                yield shard.vectors, shard.ids, shard.dead


# The ANN backends live below this layer (repro.ann imports only the serving
# kernels); they are registered here so `import repro.api` is the single
# point where the built-in registry is assembled.
register_backend("ivf", IVFBackend)
register_backend("ivfpq", IVFPQBackend)
