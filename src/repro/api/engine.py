"""The :class:`Engine` facade: one typed surface over the whole loop.

Everything the paper's end-to-end story needs — pre-train START, bulk-encode
trajectories, index the vectors, serve similarity queries, persist and
restore both the model and the index — is reachable from one object
configured by one :class:`EngineConfig`.  Callers above this layer
(``repro.eval``, ``repro.experiments``, ``examples/``) never construct
indexes directly; they pick a backend by config string and talk
requests/responses (:mod:`repro.api.types`).

The engine wraps *any* encoder with the shared
``encode(trajectories) -> (N, d)`` contract: a :class:`STARTModel`, any
baseline from :mod:`repro.baselines`, or a bare callable (used by tests and
by evaluation harnesses that only have a function).
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.api.backends import IndexBackend, create_backend
from repro.api.types import (
    EncodeRequest,
    IngestBatch,
    QueryRequest,
    QueryResponse,
    SnapshotInfo,
)
from repro.core.config import StartConfig
from repro.core.model import STARTModel
from repro.core.pretraining import Pretrainer
from repro.nn import length_bucketed_indices, no_grad
from repro.nn.serialization import load_checkpoint, read_metadata, save_checkpoint
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
)
from repro.serving.index import DEFAULT_DATABASE_CHUNK, DEFAULT_QUERY_CHUNK, as_float32_matrix
from repro.streaming.reader import TrajectoryStreamReader
from repro.streaming.shards import DEFAULT_SHARD_CAPACITY, ShardedIndex
from repro.utils.clock import Clock, SystemClock

#: Bump when the engine snapshot layout changes; readers refuse newer formats.
SNAPSHOT_FORMAT_VERSION = 1

_MANIFEST_NAME = "manifest.json"

#: Bump when a segment file's layout changes; readers refuse newer segments.
_SEGMENT_FORMAT_VERSION = 1

#: The name of a segment npz's JSON metadata entry (part of the on-disk format).
_SEGMENT_META_KEY = "__embedding_store_meta__"

DEFAULT_ENCODE_BATCH = 64

DEFAULT_QUERY_CACHE_SIZE = 128


class _LRUCache:  # thread: shared
    """A tiny ordered-dict LRU for query responses.

    Thread-safe: the serving runtime hits one engine's cache from many
    worker threads at once, and even a *read* mutates an LRU
    (``move_to_end`` reorders the dict), so every operation — including the
    hit/miss counters, which lose increments under a data race — takes the
    internal lock.  Entries are immutable response objects shared by
    reference, so the lock never guards more than dict bookkeeping.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._entries: OrderedDict[tuple, QueryResponse] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: tuple) -> QueryResponse | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: tuple, value: QueryResponse) -> None:
        with self._lock:
            if self.capacity < 1:
                return
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)


@dataclass(frozen=True)
class EngineConfig:
    """Every knob of an engine in one place.

    ``start`` configures the model built by :meth:`Engine.from_dataset` and
    reconstructed by :meth:`Engine.load`; ``backend`` selects the index
    implementation from the :mod:`repro.api.backends` registry; the geometry
    fields flow into whichever backend is chosen (backends may ignore hints
    that do not apply to them).  ``backend_params`` is the passthrough for
    backend-*specific* knobs the shared geometry fields cannot name — e.g.
    ``{"nlist": 128, "nprobe": 8}`` for ``backend="ivf"``, or ``pq_m`` /
    ``pq_bits`` / ``rerank`` / ``train_size`` for ``"ivfpq"``; a knob the
    chosen backend does not take raises ``TypeError`` at construction.
    """

    start: StartConfig | None = None
    backend: str = "sharded"
    encode_batch_size: int | None = None
    shard_capacity: int = DEFAULT_SHARD_CAPACITY
    query_chunk_size: int = DEFAULT_QUERY_CHUNK
    database_chunk_size: int = DEFAULT_DATABASE_CHUNK
    cache_size: int = DEFAULT_QUERY_CACHE_SIZE
    pretrain_epochs: int | None = None
    backend_params: dict | None = None

    def __post_init__(self) -> None:
        if self.shard_capacity < 1:
            raise ValueError("shard_capacity must be >= 1")
        if self.query_chunk_size < 1 or self.database_chunk_size < 1:
            raise ValueError("chunk sizes must be positive")
        if self.encode_batch_size is not None and self.encode_batch_size < 1:
            raise ValueError("encode_batch_size must be >= 1")
        if self.backend_params is not None and not isinstance(self.backend_params, dict):
            raise ValueError("backend_params must be a dict of keyword arguments (or None)")

    def variant(self, **overrides) -> "EngineConfig":
        """A modified copy (mirrors :meth:`StartConfig.variant`)."""
        return replace(self, **overrides)


class Engine:
    """Train → encode → index → stream → query, behind one typed facade.

    The engine owns three things:

    * the **encoder lifecycle** — pre-training (START or any baseline with a
      ``pretrain`` method), checkpoint ``save``/``load``;
    * **bulk encoding** — length-bucketed no-grad batches, identical row
      order to the input (:meth:`encode`);
    * **query serving** — an :class:`~repro.api.backends.IndexBackend`
      selected by ``config.backend``, fed by :meth:`ingest`/:meth:`drain`,
      queried through :meth:`query`/:meth:`ranks_of`, persisted with
      :meth:`snapshot`/:meth:`restore`, all behind a generation-keyed LRU
      query cache.

    Any (pre-)training resets the index: vectors encoded by the old weights
    must never be served against queries encoded by the new ones.
    """

    def __init__(
        self,
        encoder,
        config: EngineConfig | None = None,
        *,
        metrics: "MetricsRegistry | None" = None,
        clock: Clock | None = None,
    ) -> None:
        if encoder is None:
            raise ValueError("Engine requires an encoder (model or callable)")
        self.config = config or EngineConfig()
        self.model = encoder
        self._encode_fn: Callable = encoder.encode if hasattr(encoder, "encode") else encoder
        if not callable(self._encode_fn):
            raise TypeError("encoder must be callable or expose an .encode method")
        self._backend: IndexBackend = self._new_backend()
        self._cache = _LRUCache(self.config.cache_size)
        self._trajectory_ids: dict[int, int] = {}
        self._encode_calls = 0
        self._clock: Clock = clock if clock is not None else SystemClock()
        self.bind_metrics(metrics)

    def bind_metrics(
        self, metrics: "MetricsRegistry | None" = None, *, clock: Clock | None = None
    ) -> None:
        """(Re-)attach a metrics registry; ``None`` detaches to the no-op default.

        Resolves every instrument handle once, so the query/encode hot paths
        pay method calls on pre-bound children, never registry lookups.  The
        serving runtime calls this to pull a user-constructed engine into its
        own registry (and clock) when the engine was built without one.
        """
        self._metrics = metrics if metrics is not None else NULL_REGISTRY
        if clock is not None:
            self._clock = clock
        cache = self._metrics.counter_family(
            "engine_cache_requests_total",
            "query-cache lookups by result",
            labels=("result",),
        )
        self._m_cache_hits = cache.labels(result="hit")
        self._m_cache_misses = cache.labels(result="miss")
        self._m_encode_batch = self._metrics.histogram(
            "engine_encode_batch_size",
            "trajectories per underlying encoder call",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._m_query_latency = self._metrics.histogram_family(
            "engine_query_seconds",
            "index top_k scan latency by backend",
            labels=("backend",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        ).labels(backend=self.config.backend)

    @property
    def metrics_registry(self) -> "MetricsRegistry":
        """The registry this engine reports into (the no-op one by default)."""
        return self._metrics

    # ------------------------------------------------------------------ #
    # Construction / lifecycle
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dataset(cls, dataset, config: EngineConfig | None = None) -> "Engine":
        """Build a fresh START model for ``dataset`` and wrap it.

        The transfer-probability matrix is derived from the dataset's
        training split, exactly as :meth:`STARTModel.from_dataset` does.
        The model starts in eval mode, as after :meth:`load` and
        :meth:`pretrain`, so encodes reuse its cached road table.
        """
        config = config or EngineConfig()
        model = STARTModel.from_dataset(dataset, config.start)
        model.eval()
        return cls(model, config)

    def pretrain(self, trajectories: list, epochs: int | None = None, verbose: bool = False):
        """Pre-train the wrapped encoder in place; returns the loss history.

        START models run the two self-supervised tasks through
        :class:`~repro.core.pretraining.Pretrainer`; baselines dispatch to
        their own ``pretrain``.  Defaults to ``config.pretrain_epochs`` and
        falls back to the model's own schedule when both are ``None``.
        Resets the index: previously ingested vectors are stale.
        """
        epochs = epochs if epochs is not None else self.config.pretrain_epochs
        if isinstance(self.model, STARTModel):
            trainer = Pretrainer(self.model, self.model.config)
            history = trainer.pretrain(trajectories, epochs=epochs, verbose=verbose)
        elif hasattr(self.model, "pretrain"):
            kwargs = {} if epochs is None else {"epochs": epochs}
            history = self.model.pretrain(trajectories, **kwargs)
        else:
            raise TypeError(
                f"{type(self.model).__name__} is not trainable "
                "(no pretrain method and not a STARTModel)"
            )
        self.reset_index()
        return history

    def save(self, path: str | Path) -> Path:
        """Checkpoint the wrapped model's weights (+ its config) to ``path``."""
        if not hasattr(self.model, "state_dict"):
            raise TypeError(f"{type(self.model).__name__} has no state_dict; cannot save")
        metadata: dict = {
            "engine_backend": self.config.backend,
            "model_class": type(self.model).__name__,
        }
        if isinstance(self.model, STARTModel):
            metadata["start_config"] = asdict(self.model.config)
        return save_checkpoint(self.model, path, metadata=metadata)

    @classmethod
    def load(
        cls,
        path: str | Path,
        dataset=None,
        *,
        network=None,
        transfer_probability: np.ndarray | None = None,
        config: EngineConfig | None = None,
    ) -> "Engine":
        """Rebuild an engine from a :meth:`save` checkpoint.

        START's stage-one graph constants are functions of the road network
        and the transfer-probability matrix, which a checkpoint does not
        carry — pass the ``dataset`` the model was built from (the matrix is
        re-derived from its training split) or an explicit ``network`` (+
        optional ``transfer_probability``).  The stored
        :class:`~repro.core.config.StartConfig` overrides ``config.start``.
        """
        metadata = read_metadata(path)
        if "start_config" not in metadata:
            model_class = metadata.get("model_class")
            if model_class:
                raise ValueError(
                    f"{path} checkpoints a {model_class}, which Engine.load cannot "
                    "rebuild — reconstruct the model yourself, load the weights with "
                    "repro.nn.serialization.load_checkpoint, and wrap it in Engine(model)"
                )
            raise ValueError(f"{path} was not saved by Engine.save (no start_config)")
        raw = dict(metadata["start_config"])
        for key in ("gat_heads", "augmentations"):
            if key in raw and isinstance(raw[key], list):
                raw[key] = tuple(raw[key])
        start_config = StartConfig(**raw)
        if dataset is not None:
            model = STARTModel.from_dataset(dataset, start_config)
        elif network is not None:
            model = STARTModel(network, start_config, transfer_probability=transfer_probability)
        else:
            raise ValueError("Engine.load needs a dataset or a network to rebuild the model")
        load_checkpoint(model, path)
        model.eval()
        if config is None:
            config = EngineConfig(backend=metadata.get("engine_backend", EngineConfig.backend))
        config = config.variant(start=start_config)
        return cls(model, config)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Alive (queryable) rows in the index."""
        return len(self._backend)

    @property
    def backend(self) -> IndexBackend:
        """The live index backend (mutate through the engine, not directly)."""
        return self._backend

    @property
    def dim(self) -> int | None:
        """Representation dimensionality (``None`` until first encode/ingest)."""
        return self._backend.dim

    @property
    def encode_calls(self) -> int:
        """Underlying encoder invocations so far (one per encode batch)."""
        return self._encode_calls

    @property
    def cache_stats(self) -> dict[str, int]:
        return {
            "hits": self._cache.hits,
            "misses": self._cache.misses,
            "entries": len(self._cache),
        }

    def trajectory_ids(self, row_ids: np.ndarray) -> np.ndarray:
        """Map global row ids (as reported in responses) to trajectory ids."""
        rows = np.asarray(row_ids, dtype=np.int64)
        return np.array(
            [self._trajectory_ids.get(int(r), int(r)) for r in rows.ravel()], dtype=np.int64
        ).reshape(rows.shape)

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def _counted_encode(self, batch: list) -> np.ndarray:
        self._encode_calls += 1
        self._m_encode_batch.observe(len(batch))
        return self._encode_fn(batch)

    def encode(self, request: "EncodeRequest | Sequence") -> np.ndarray:
        """Bulk-encode trajectories into an ``(N, d)`` float32 matrix.

        Accepts an :class:`EncodeRequest` or a plain sequence.  Batches are
        length-bucketed (each batch pads to its own longest member) and run
        under ``no_grad``; row ``i`` always corresponds to input ``i``.  The
        returned matrix is read-only — copy before mutating.
        """
        if isinstance(request, EncodeRequest):
            trajectories, batch_size = list(request.trajectories), request.batch_size
        else:
            trajectories, batch_size = list(request), None
        if batch_size is None:
            batch_size = self.config.encode_batch_size or DEFAULT_ENCODE_BATCH
        if not trajectories:
            return np.zeros((0, self._backend.dim or 0), dtype=np.float32)
        vectors: np.ndarray | None = None
        with no_grad():
            for rows in length_bucketed_indices([len(t) for t in trajectories], batch_size):
                batch = [trajectories[i] for i in rows]
                encoded = np.asarray(self._counted_encode(batch), dtype=np.float32)
                if encoded.shape[0] != len(batch):
                    raise ValueError(
                        f"encoder returned {encoded.shape[0]} rows for a batch of {len(batch)}"
                    )
                if vectors is None:
                    vectors = np.empty((len(trajectories), encoded.shape[1]), dtype=np.float32)
                vectors[rows] = encoded
        vectors.flags.writeable = False
        return vectors

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def ingest(self, batch: "IngestBatch | Iterable") -> np.ndarray:
        """Encode one wave of trajectories and add it to the index.

        Returns the assigned global row ids (one per trajectory, in input
        order).  Encoding is length-bucketed per wave; rows already indexed
        are never re-encoded or re-indexed.
        """
        if isinstance(batch, IngestBatch):
            trajectories = list(batch.trajectories)
            source_ids = batch.trajectory_ids
        else:
            trajectories = list(batch)
            source_ids = None
        if not trajectories:
            return np.zeros(0, dtype=np.int64)
        if source_ids is None:
            # Objects without a trajectory_id fall back to their global row
            # id (a wave-local position would collide across waves).
            source_ids = [getattr(t, "trajectory_id", None) for t in trajectories]
        elif len(source_ids) != len(trajectories):
            raise ValueError("trajectory_ids must have one entry per trajectory")
        vectors = self.encode(trajectories)
        return self.ingest_vectors(vectors, trajectory_ids=source_ids)

    def ingest_vectors(
        self, vectors: np.ndarray, trajectory_ids: Sequence[int | None] | None = None
    ) -> np.ndarray:
        """Add pre-encoded vectors to the index (the encode-free ingest path).

        Useful when the same vectors feed several engines (cross-backend
        checks) or were encoded elsewhere.  ``trajectory_ids`` defaults
        to the assigned global row ids; individual ``None`` entries take the
        same default.
        """
        vectors = as_float32_matrix(vectors)
        row_ids = self._backend.add(vectors)
        if trajectory_ids is not None:
            if len(trajectory_ids) != vectors.shape[0]:
                raise ValueError("trajectory_ids must have one entry per vector row")
            # Only ids that differ from the row id are stored: the row id is
            # what trajectory_ids() answers for an unmapped row anyway.
            for row_id, source_id in zip(row_ids, trajectory_ids):
                if source_id is not None and int(source_id) != int(row_id):
                    self._trajectory_ids[int(row_id)] = int(source_id)
        return row_ids

    def drain(self, reader: TrajectoryStreamReader, max_records: int | None = None) -> np.ndarray:
        """Ingest one poll of a stream reader (records appended since last poll).

        Corrupt lines are stepped over, as the serving runtime's stream
        ingest does (:meth:`TrajectoryStreamReader.poll_quarantined`): the
        records around them are ingested and the reader moves past them.
        """
        records, _ = reader.poll_quarantined(max_records)
        return self.ingest(records)

    def remove(self, row_ids) -> int:
        """Remove rows by global id; returns how many were alive.

        Every built-in backend tombstones; an append-only third-party backend
        (``supports_removal = False``) raises
        :class:`~repro.api.backends.UnsupportedOperation`.
        """
        removed = self._backend.remove(row_ids)
        for row_id in np.atleast_1d(np.asarray(row_ids, dtype=np.int64)):
            self._trajectory_ids.pop(int(row_id), None)
        return removed

    def compact(self, *, min_tombstones: int = 1) -> bool:
        """Reclaim tombstoned rows (no-op ``False`` on append-only backends)."""
        return self._backend.compact(min_tombstones=min_tombstones)

    def reset_index(self) -> None:
        """Drop all indexed rows (fresh backend, empty cache, clean id map)."""
        self._backend = self._new_backend()
        self._cache = _LRUCache(self.config.cache_size)
        self._trajectory_ids = {}

    def _new_backend(self) -> IndexBackend:
        return create_backend(
            self.config.backend,
            shard_capacity=self.config.shard_capacity,
            query_chunk_size=self.config.query_chunk_size,
            database_chunk_size=self.config.database_chunk_size,
            **(self.config.backend_params or {}),
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def _query_vectors(self, queries) -> np.ndarray:
        if isinstance(queries, np.ndarray):
            return as_float32_matrix(queries, "queries")
        return self.encode(queries)

    def _timed_top_k(self, vectors: np.ndarray, k: int):
        """One backend scan, timed into the per-backend latency histogram.

        The clock read is gated on registry enablement so the disabled
        default pays exactly one attribute check per scan.
        """
        if not self._metrics.enabled:
            return self._backend.top_k(vectors, k)
        started = self._clock.monotonic()
        result = self._backend.top_k(vectors, k)
        self._m_query_latency.observe(self._clock.monotonic() - started)
        return result

    def query(self, request: "QueryRequest | np.ndarray", k: int | None = None) -> QueryResponse:
        """Top-k most-similar rows for each query; served through the cache.

        Accepts a :class:`QueryRequest` or a raw ``(Q, d)`` vector array plus
        ``k``.  Responses carry per-hit ``(id, distance, trajectory_id)``
        with arrays frozen (cached responses are shared between callers).
        """
        if isinstance(request, QueryRequest):
            if k is not None:
                raise ValueError("pass k inside the QueryRequest, not alongside it")
            vectors = self._query_vectors(request.queries)
            k = request.k
        else:
            vectors = self._query_vectors(request)
            k = 5 if k is None else k
        digest = hashlib.blake2b(vectors.tobytes(), digest_size=16).hexdigest()
        key = (self._backend.generation, vectors.shape, int(k), digest)
        cached = self._cache.get(key)
        if cached is not None:
            self._m_cache_hits.inc()
            return cached
        self._m_cache_misses.inc()
        result = self._timed_top_k(vectors, k)
        response = QueryResponse(
            ids=result.indices,
            distances=result.distances,
            trajectory_ids=self.trajectory_ids(result.indices),
        )
        for array in (response.ids, response.distances, response.trajectory_ids):
            array.flags.writeable = False
        self._cache.put(key, response)
        return response

    def most_similar(self, queries) -> QueryResponse:
        """The single nearest row per query (:meth:`query` with ``k=1``)."""
        return self.query(QueryRequest(queries=queries, k=1))

    def query_many(
        self, requests: Sequence["QueryRequest | np.ndarray"], *, coalesce: str = "aligned"
    ) -> list[QueryResponse]:
        """Answer a batch of concurrent-caller requests in one call.

        This is the execution primitive behind the serving runtime's batch
        aggregator; the ``coalesce`` mode decides what may be amortised
        across the callers:

        ``"aligned"`` (default)
            Each request runs through :meth:`query` with its *own* kernel
            shapes.  Responses are **bitwise identical** to the same
            requests issued sequentially — BLAS reduction order is not
            shape-invariant (a ``(1, d)`` matvec and a row of a ``(32, d)``
            GEMM differ in the last ulps), so matching shapes is the only
            way to guarantee it (the same doctrine as the sharded/chunked
            bit-identity contract).
        ``"fused"``
            Cache-missing requests are grouped by ``k``, their query rows
            stacked, and each group is answered by **one** scan over the
            index — one GEMM amortising the database read across callers.
            Distances may drift from the sequential answer in the last ulps
            (and neighbour order may flip across a genuine distance tie);
            use it when throughput matters more than bit-reproducibility.

        Both modes consult and fill the engine's LRU query cache per
        request, and return one :class:`QueryResponse` per request, in
        request order.
        """
        normalised = [
            request if isinstance(request, QueryRequest) else QueryRequest(queries=request)
            for request in requests
        ]
        if coalesce == "aligned":
            return [self.query(request) for request in normalised]
        if coalesce != "fused":
            raise ValueError(f"unknown coalesce mode '{coalesce}' (use 'aligned' or 'fused')")
        responses: list[QueryResponse | None] = [None] * len(normalised)
        misses: dict[int, list[tuple[int, np.ndarray, tuple]]] = {}
        for position, request in enumerate(normalised):
            vectors = self._query_vectors(request.queries)
            digest = hashlib.blake2b(vectors.tobytes(), digest_size=16).hexdigest()
            key = (self._backend.generation, vectors.shape, int(request.k), digest)
            cached = self._cache.get(key)
            if cached is not None:
                self._m_cache_hits.inc()
                responses[position] = cached
            else:
                self._m_cache_misses.inc()
                misses.setdefault(int(request.k), []).append((position, vectors, key))
        for k, group in misses.items():
            if len(group) == 1:
                stacked = group[0][1]
            else:
                stacked = np.concatenate([vectors for _, vectors, _ in group], axis=0)
            result = self._timed_top_k(stacked, k)
            row = 0
            for position, vectors, key in group:
                rows = vectors.shape[0]
                ids = result.indices[row : row + rows]
                distances = result.distances[row : row + rows]
                row += rows
                response = QueryResponse(
                    ids=ids,
                    distances=distances,
                    trajectory_ids=self.trajectory_ids(ids),
                )
                for array in (response.ids, response.distances, response.trajectory_ids):
                    array.flags.writeable = False
                self._cache.put(key, response)
                responses[position] = response
        return responses

    def ranks_of(self, queries, truth_ids: np.ndarray) -> np.ndarray:
        """1-based rank of ``truth_ids[i]`` among query ``i``'s neighbours.

        The exact counting semantics of the serving layer: one plus the
        number of rows sorting strictly before the truth row (smaller
        distance, or equal distance and smaller id).
        """
        vectors = self._query_vectors(queries)
        return self._backend.ranks_of(vectors, np.asarray(truth_ids, dtype=np.int64))

    # ------------------------------------------------------------------ #
    # Index persistence
    # ------------------------------------------------------------------ #
    def snapshot(self, directory: str | Path) -> SnapshotInfo:
        """Write the index state under ``directory``; returns what was written.

        One npz per backend segment — ``vectors``, global row ``ids`` and a
        JSON metadata entry (segment format version, count, dim, tombstoned
        ids, every row's trajectory id) — plus ``manifest.json`` recording
        the backend name and geometry.  A restored replica answers
        bit-identically to the original — the model is not needed.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        segment_files: list[str] = []
        for number, (vectors, ids, dead) in enumerate(self._backend.segments()):
            name = f"segment_{number:05d}.npz"
            vectors = as_float32_matrix(vectors)
            ids = np.asarray(ids, dtype=np.int64)
            meta = {
                "format_version": _SEGMENT_FORMAT_VERSION,
                "count": int(vectors.shape[0]),
                "dim": int(vectors.shape[1]),
                "metadata": {
                    "deleted_ids": [int(i) for i in ids[dead]],
                    "trajectory_ids": [self._trajectory_ids.get(int(i), int(i)) for i in ids],
                },
            }
            blob = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
            np.savez(directory / name, vectors=vectors, ids=ids, **{_SEGMENT_META_KEY: blob})
            segment_files.append(name)
        manifest = {
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "backend": self.config.backend,
            "segments": segment_files,
            "shard_capacity": self.config.shard_capacity,
            "query_chunk_size": self.config.query_chunk_size,
            "database_chunk_size": self.config.database_chunk_size,
            "backend_params": self.config.backend_params or {},
            "next_id": self._backend.next_id,
            "dim": self._backend.dim,
        }
        with open(directory / _MANIFEST_NAME, "w") as handle:
            json.dump(manifest, handle, indent=2)
        return SnapshotInfo(
            path=directory,
            backend=self.config.backend,
            rows=len(self._backend),
            dim=int(self._backend.dim or 0),
            segments=len(segment_files),
            format_version=SNAPSHOT_FORMAT_VERSION,
        )

    def replicate(self) -> "Engine":
        """A bit-stable read replica of this engine: :meth:`restore` from it, in memory.

        The replica keeps this engine's :class:`EngineConfig` and answers
        vector queries **bit-identically** to this engine at the moment of
        the call.  It shares the stored rows read-only, owns its tombstones
        and copies before any write (see :meth:`restore`), so neither
        engine's later mutations reach the other; no file is read or
        written.  This engine must not be mutated during the call — the
        serving runtime publishes each generation this way on its ingest
        thread, the primary's only writer.  The replica shares this engine's
        encoder object; replicas queried with pre-encoded vectors never touch
        it (callers that encode on replicas concurrently must serialise those
        encodes themselves — the model is not thread-safe).
        """
        # Replicas report into this engine's registry: their counters are
        # this engine's traffic, just answered from another copy.
        metrics = self._metrics if self._metrics.enabled else None
        return Engine.restore(self, self.model, metrics=metrics, clock=self._clock)

    @classmethod
    def restore(
        cls,
        source: "str | Path | Engine",
        encoder,
        config: EngineConfig | None = None,
        *,
        metrics: "MetricsRegistry | None" = None,
        clock: Clock | None = None,
    ) -> "Engine":
        """Rebuild an engine's index from a :meth:`snapshot` directory or a live engine.

        A live ``source`` whose backend is a
        :class:`~repro.streaming.shards.ShardedIndex` (every built-in is),
        restored under its own config, **shares** its stored rows:
        the new backend is ``source.backend.replica()``, whose segments read
        the source's vectors, norms and ids in place, own their tombstone
        masks and copy their buffers before any write — O(segments) plus
        one byte per stored row.  Every other source feeds one replay: a
        snapshot directory, a live source restored under a different config
        (another backend or geometry), or a backend that is not a
        ``ShardedIndex``.  Its segments are re-added in order with their ids
        (tombstoned rows included, then re-removed in sorted order), then
        ``next_id`` is carried over.  Either way the restored layout is the
        original's row for row, so queries against the restored engine are
        bit-identical to the original.  A live source must not be mutated
        during the call; no file is touched, ``config`` defaults to
        ``source.config`` and the trajectory-id map is copied.  A
        directory's manifest backend and geometry win unless ``config`` is
        given.

        Snapshots of the retired pre-facade ``IngestService`` restore too:
        their manifest lists ``shards`` instead of ``segments`` and names no
        backend, and each shard file already is a sharded-backend segment.
        Their manifest's user ``metadata`` block is not carried over.
        """
        if isinstance(source, Engine):
            config = config or source.config
            if config == source.config and isinstance(source._backend, ShardedIndex):
                engine = cls(encoder, config, metrics=metrics, clock=clock)
                engine._backend = source._backend.replica()
                engine._trajectory_ids = dict(source._trajectory_ids)
                return engine
            segments = source._backend.segments()
            trajectory_ids = dict(source._trajectory_ids)
            next_id = source._backend.next_id
        else:
            directory = Path(source)
            manifest_path = directory / _MANIFEST_NAME
            if not manifest_path.exists():
                raise ValueError(f"{directory} is not an Engine snapshot (no {_MANIFEST_NAME})")
            with open(manifest_path) as handle:
                manifest = json.load(handle)
            version = int(manifest.get("format_version", 0))
            if version > SNAPSHOT_FORMAT_VERSION:
                raise ValueError(
                    f"{directory} uses snapshot format v{version}; "
                    f"this build reads up to v{SNAPSHOT_FORMAT_VERSION}"
                )
            segment_files = manifest.get("segments", manifest.get("shards"))
            if segment_files is None:
                raise ValueError(f"{directory} is not an Engine snapshot (no segments listed)")
            if config is None:
                config = EngineConfig(
                    backend=manifest.get("backend", "sharded"),
                    shard_capacity=int(manifest["shard_capacity"]),
                    query_chunk_size=int(manifest["query_chunk_size"]),
                    database_chunk_size=int(manifest["database_chunk_size"]),
                    backend_params=manifest.get("backend_params") or None,
                )
            trajectory_ids = {}
            segments = _snapshot_segments(directory, segment_files, trajectory_ids)
            next_id = manifest.get("next_id")
        engine = cls(encoder, config, metrics=metrics, clock=clock)
        # Backends with tombstone support replay the exact original layout
        # (add everything, then re-remove — bit-identical to the source);
        # append-only backends get the dead rows filtered out up front, so a
        # cross-backend restore of a tombstoned source still works.
        replay_tombstones = engine._backend.supports_removal
        deleted: list[int] = []
        for vectors, ids, dead in segments:
            if replay_tombstones:
                # Sorted, so the tombstone replay order (and thus the restored
                # layout) never depends on the source's id order.
                deleted.extend(sorted(ids[dead].tolist()))
            elif dead.any():
                vectors, ids = vectors[~dead], ids[~dead]
            engine._backend.add(vectors, ids=ids)
        engine._trajectory_ids = trajectory_ids
        if deleted:
            engine.remove(deleted)
        if next_id is not None:
            engine._backend.next_id = int(next_id)
        return engine


def _snapshot_segments(directory: Path, names: list[str], trajectory_ids: dict[int, int]):
    """A snapshot's segments as ``(vectors, ids, dead)``, loaded one at a time.

    Fills ``trajectory_ids`` for the alive rows whose trajectory id is not
    their row id (the default of :meth:`Engine.trajectory_ids`).  A file
    with no metadata entry, a newer segment format, or a count/dim that
    disagrees with its arrays raises ``ValueError``.
    """
    for name in names:
        path = directory / name
        with np.load(path, allow_pickle=False) as archive:
            if _SEGMENT_META_KEY not in archive.files:
                raise ValueError(f"{path} is not a snapshot segment (no metadata entry)")
            meta = json.loads(archive[_SEGMENT_META_KEY].tobytes().decode("utf-8"))
            version = int(meta.get("format_version", 0))
            if version > _SEGMENT_FORMAT_VERSION:
                raise ValueError(
                    f"{path} uses segment format v{version}; "
                    f"this build reads up to v{_SEGMENT_FORMAT_VERSION}"
                )
            vectors = as_float32_matrix(archive["vectors"])
            ids = np.asarray(archive["ids"], dtype=np.int64)
        count = int(meta.get("count", vectors.shape[0]))
        dim = int(meta.get("dim", vectors.shape[1]))
        if vectors.shape != (count, dim) or ids.shape != (count,):
            raise ValueError(f"{path} metadata does not match its arrays")
        metadata = meta.get("metadata", {})
        dead = np.isin(ids, metadata.get("deleted_ids", []))
        mapped = np.asarray(metadata.get("trajectory_ids", ids), dtype=np.int64)
        keep = ~dead & (mapped != ids)
        trajectory_ids.update(zip(ids[keep].tolist(), mapped[keep].tolist()))
        yield vectors, ids, dead
