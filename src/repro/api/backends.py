"""Index backends behind the :class:`~repro.api.engine.Engine` facade.

The engine never touches a concrete index class: it talks to the
:class:`IndexBackend` protocol and obtains instances from a string-keyed
registry, so a new backend (an ANN index, a quantised store, a remote
service) is a one-file drop-in — implement the protocol, call
:func:`register_backend`, and every caller of the facade can select it with
``EngineConfig(backend="your-name")``.

Built-in backends
-----------------
Every built-in backend keeps its rows in the one row store,
:class:`~repro.streaming.shards.ShardedIndex` segments (float32 vectors,
cached norms, global ids, tombstones), so all five support ``add``,
``remove`` and ``compact`` and snapshot the same way; they differ in how
they scan.

``"bruteforce"``
    Reference implementation: the full ``(Q, D)`` float32 distance matrix
    plus a stable full sort over one never-sealing segment.  The semantics
    oracle in tests and fine for tiny corpora; memory and time are
    unbounded in the database size.
``"chunked"``
    One never-sealing segment scanned by the monolithic chunked kernel:
    bounded memory (one ``query_chunk × database_chunk`` block at a time),
    one ``argpartition`` on the first chunk, then each later chunk compared
    against each query's running k-th distance so only the rows at or below
    it are merged.  Ignores ``shard_capacity``.
``"sharded"``
    :class:`~repro.streaming.shards.ShardedIndex` itself: segments seal at
    ``shard_capacity``, and a query block's one running top-k is carried
    through the segments in order by the same chunked kernel.  The exact
    production serving path.
``"ivf"``
    :class:`~repro.ann.ivf.IVFBackend`: k-means inverted lists, per-query
    ``nprobe`` probing with exact re-ranking of every probed candidate.
    Approximate (recall < 1 when the true neighbour's list is unprobed) but
    sub-linear in the corpus; ``nprobe >= nlist`` degenerates to the exact
    bruteforce scan bit-identically.
``"ivfpq"``
    :class:`~repro.ann.ivfpq.IVFPQBackend`: IVF + product-quantized residual
    codes scanned with ADC lookup tables, exact re-rank of the best
    ``rerank`` candidates per query.

The ANN backends take their knobs (``nlist``, ``nprobe``, ``train_size``,
``seed``, ``pq_m``, ``pq_bits``, ``rerank``) through
:func:`create_backend`'s extra keyword arguments — from the facade, set
``EngineConfig(backend_params={...})``.  Every registered backend must pass
the conformance suite in ``tests/backend_conformance.py``.

Bit-identity: ``"chunked"`` and ``"sharded"`` run the same chunked GEMM
kernel, so whenever ``shard_capacity`` is a multiple of
``database_chunk_size`` (the defaults: 8192 and 4096) they return
bit-identical ids *and* distances over the same rows — verified by a
hypothesis property in ``tests/test_api.py``.  Because ``"sharded"``
carries one running top-k through its segments, it then issues the same
chunk sequence as ``"chunked"`` and as the monolithic
:class:`~repro.serving.index.SimilarityIndex`, so the ids agree exactly
even where exact-equal distances straddle the k boundary
(``TestShardedIndexBitIdentity`` in ``tests/test_streaming.py`` pins this on
an integer-valued corpus).  The conformance kit still accepts either member
of a boundary tie, as misaligned geometry and other backends may keep
either.

Registry contract (for third-party backends)
--------------------------------------------
A backend factory is registered under a unique name and must accept the
keyword arguments ``dim`` (``int | None`` — ``None`` means "fix it on first
add"), ``shard_capacity``, ``query_chunk_size`` and ``database_chunk_size``
(geometry hints a backend may ignore).  The returned object must implement
the :class:`IndexBackend` protocol.  A backend may be append-only (no
built-in is): it sets ``supports_removal = False``, raises
:class:`UnsupportedOperation` from ``remove`` and returns ``False`` from
``compact``.  Global row ids are assigned by the caller and must be echoed
back verbatim in results (never re-numbered).
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
    full_matrix_top_k,
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
    ``segments()`` exposes the stored rows for snapshots and replaying
    restores as ``(vectors, ids, dead)`` triples (a live restore of a
    :class:`~repro.streaming.shards.ShardedIndex` uses its ``replica()``
    instead).  ``supports_removal`` declares whether
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
# Built-in backends: every one stores its rows in ShardedIndex segments
# --------------------------------------------------------------------- #
register_backend("sharded", ShardedIndex)


@register_backend("chunked")
class ChunkedBackend(ShardedIndex):
    """One segment that never seals, scanned by the chunked kernel.

    The bounded-memory scan of
    :class:`~repro.serving.index.SimilarityIndex` — one
    ``query_chunk x database_chunk`` GEMM block at a time, running-threshold
    selection — with the store's mutation surface.  ``shard_capacity`` is
    ignored.
    """

    name = "chunked"
    seals = False


@register_backend("bruteforce")
class BruteforceBackend(ShardedIndex):
    """Full distance matrix + stable full sort — the reference semantics.

    Every query materialises the whole ``(Q, D)`` float32 distance matrix
    over the one never-sealing segment and sorts it per row by
    ``(distance, id)``.  This is the oracle the other backends are tested
    against and the right choice for tiny corpora; it is *not* bounded in
    memory or time.
    """

    name = "bruteforce"
    seals = False

    def top_k(self, queries: np.ndarray, k: int) -> SearchResult:
        queries, k = self._check_top_k(queries, k)
        if k == 0:
            return SearchResult(
                indices=np.empty((queries.shape[0], 0), dtype=np.int64),
                distances=np.empty((queries.shape[0], 0), dtype=np.float32),
            )
        segment = self._shards[0]
        return full_matrix_top_k(
            queries,
            segment.vectors,
            segment.norms,
            segment.ids,
            k,
            exclude=segment.dead if segment.dead_count else None,
        )

    def ranks_of(self, queries: np.ndarray, truth_ids: np.ndarray) -> np.ndarray:
        queries, truth, positions = self._check_ranks(queries, truth_ids)
        if truth.size == 0:
            return np.zeros(0, dtype=np.int64)
        segment = self._shards[0]
        squared = pairwise_squared_euclidean(
            queries,
            segment.vectors,
            query_norms=squared_norms(queries),
            database_norms=segment.norms,
        )
        truth_d = squared[np.arange(truth.size), positions][:, None]
        ids = segment.ids[None, :]
        before = (squared < truth_d) | ((squared == truth_d) & (ids < truth[:, None]))
        before &= ids != truth[:, None]
        if segment.dead_count:
            before &= ~segment.dead
        return before.sum(axis=1).astype(np.int64) + 1


# The ANN backends live below this layer (repro.ann imports only the serving
# kernels and the row store); they are registered here so `import repro.api`
# is the single point where the built-in registry is assembled.
register_backend("ivf", IVFBackend)
register_backend("ivfpq", IVFPQBackend)
