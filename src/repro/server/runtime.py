"""The concurrent serving runtime: many callers, one engine, zero drift.

:class:`ServingRuntime` turns the single-threaded :class:`repro.api.Engine`
into a server.  Four cooperating pieces, each individually simple:

**Batch aggregation** (caller threads, no thread of its own).  Concurrent
:class:`~repro.api.QueryRequest`\\ s land in one pending buffer, a
:class:`~repro.server.aggregator.BatchAggregator`, and a free worker takes
up to ``max_batch`` of the oldest as soon as ``max_batch`` are pending, the
oldest has waited ``linger``, or for ``linger / 8`` no request has arrived
and no worker has come back from a batch.
Callers block on futures; nothing about a caller's answer depends on who it
shared a batch with — in the default ``"aligned"`` mode responses are
**bitwise identical** to the same requests issued sequentially through
``Engine.query`` (see :meth:`Engine.query_many
<repro.api.Engine.query_many>` for why shape matching is what buys this).

**Query workers over one shared replica** (``num_workers`` daemon
threads).  Each *published generation* is one read-only replica engine,
built once at publish time by :meth:`Engine.replicate
<repro.api.Engine.replicate>` — an in-memory ``Engine.restore`` from the
primary itself, bit-identical by the facade's restore contract, with no
staging snapshot or file — and every worker answers from it.  The
replica's segments read the primary's stored rows in place and own only
their tombstone masks (rows are append-only, and the ingest thread writes
only past every replica's row count), so the runtime holds one copy of the
rows however many generations and workers are live.  A worker
reads the published replica at each batch boundary and executes the whole
batch against it, so concurrent ingestion can never tear a batch's view of
the index.  Workers encode trajectory queries under a shared encode lock
(the model is not thread-safe); the index scans release the GIL and run
genuinely in parallel.

**Ingest/compaction thread** (one daemon).  Direct waves
(:meth:`submit_ingest`) and tailed JSONL records
(:meth:`attach_stream`) feed the primary.  Stream records are ingested in
deterministic groups of exactly ``ingest_group_size`` records — the unit of
crash-restart replay — and after every ``publish_every_groups`` groups the
primary is compacted (optionally) and replicated, publishing a new replica
generation that workers adopt at their next batch boundary.

**Checkpointing + graceful shutdown.**  With a ``checkpoint_dir``, publishes
periodically commit a :class:`~repro.server.checkpoint.Checkpointer`
checkpoint: index snapshot + the stream byte offset *before* any buffered
records.  Because checkpoints align with group boundaries, a killed server
restarted via :meth:`ServingRuntime.restore` re-reads the stream from the
recorded offset and re-forms **exactly** the encode groups the uninterrupted
run would have formed — the restarted index is bit-identical, not merely
equivalent.  :meth:`shutdown` stops accepting queries, lets the workers
take what is pending without waiting, joins them, flushes any partial
ingest group and commits a final checkpoint.

Every blocking wait goes through an injected
:class:`~repro.utils.clock.Clock`, so the whole runtime is drivable by the
deterministic test-kit in ``tests/serving_runtime_kit.py`` with no real
sleeps anywhere.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from concurrent.futures import Future
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.api.engine import Engine, EngineConfig
from repro.api.types import QueryRequest, QueryResponse
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.metrics import dump_metrics as _dump_metrics
from repro.server.aggregator import BatchAggregator, PendingQuery
from repro.server.checkpoint import Checkpointer
from repro.server.config import KillWorker, ServerClosed, ServerConfig, ServerHooks
from repro.streaming.reader import TrajectoryStreamReader
from repro.trajectory.types import Trajectory
from repro.utils.clock import Clock, SystemClock

_log = logging.getLogger(__name__)


class _QueryWorker(threading.Thread):
    """One query worker: takes batches from the buffer and runs each on the
    published replica."""

    def __init__(self, runtime: "ServingRuntime", worker_id: int) -> None:
        super().__init__(name=f"repro-server-worker-{worker_id}", daemon=True)
        self.runtime = runtime
        self.worker_id = worker_id

    def run(self) -> None:
        reason = "stop"
        try:
            while (batch := self.runtime._aggregator.take()) is not None:
                with self.runtime._state_lock:
                    generation, replica = self.runtime._published
                try:
                    self.runtime._hooks.on_batch_start(self.worker_id, len(batch), generation)
                    self.runtime._execute_batch(batch, replica)
                    self.runtime._hooks.on_batch_done(self.worker_id, len(batch), generation)
                except KillWorker:
                    reason = "killed"
                    # The batch outlives its worker: its unanswered requests
                    # go back to the front for a surviving (or respawned)
                    # worker to serve.
                    self.runtime._aggregator.put_back(
                        [entry for entry in batch if not entry.future.done()]
                    )
                    return
                except Exception as exc:
                    # Batch-level failure (hook or backend error): fail
                    # this batch's callers, keep serving the next one.
                    for entry in batch:
                        if not entry.future.done():
                            entry.future.set_exception(exc)
                # An idle worker must not keep a superseded generation alive.
                replica = None
        finally:
            self.runtime._worker_exited(self, reason)


class ServingRuntime:
    """Concurrent query/ingest serving over one :class:`~repro.api.Engine`.

    The wrapped ``engine`` becomes the runtime's **primary**: only the
    ingest thread mutates it, and queries are served from the bit-stable
    replica of the latest publish — callers must stop driving it directly.
    Use as a context manager, or call :meth:`start` / :meth:`shutdown`
    explicitly.

    >>> runtime = ServingRuntime(engine, ServerConfig(num_workers=4))
    >>> with runtime:
    ...     runtime.attach_stream("trajectories.jsonl")
    ...     response = runtime.query(QueryRequest(queries=vectors, k=5))
    """

    def __init__(
        self,
        engine: Engine,
        config: ServerConfig | None = None,
        *,
        hooks: ServerHooks | None = None,
        clock: Clock | None = None,
        replica_dir: str | Path | None = None,
        metrics: "MetricsRegistry | NullRegistry | None" = None,
    ) -> None:
        """``replica_dir`` is ignored: publishes stage no files.  It is still
        accepted so existing callers keep working."""
        self.primary = engine
        self.config = config or ServerConfig()
        self._hooks = hooks or ServerHooks()
        self._clock = clock if clock is not None else SystemClock()
        self._aggregator = BatchAggregator(
            max_batch=self.config.max_batch,
            linger=self.config.linger,
            clock=self._clock,
        )
        self._encode_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._inflight = 0
        self._inflight_cond = threading.Condition(self._state_lock)
        self._workers: list[_QueryWorker] = []
        self._next_worker_id = 0
        self._started = False
        self._closed = False
        self._poisoned = False
        # Replica publication.
        self._published: tuple[int, Engine] | None = None
        self._generation = 0
        # Ingestion.
        self._ingest_lock = threading.Lock()
        self._ingest_queue: deque[list[Trajectory]] = deque()
        self._ingest_wake = self._clock.make_event()
        self._stop_ingest = False
        self._ingester: threading.Thread | None = None
        self._reader: TrajectoryStreamReader | None = None
        self._stream_buffer: list[Trajectory] = []
        self._stream_base_state: dict[str, int] | None = None
        self._groups_since_publish = 0
        self._publishes_since_checkpoint = 0
        self._ingested_records = 0
        self._ingested_waves = 0
        self._rejected_records = 0
        self._ingest_errors = 0
        self._last_ingest_error: str | None = None
        # Records are vetted where they enter, by the encoder's own batch
        # builder when it has one: a record it refuses never reaches the
        # ingest thread, whose encode would otherwise raise on it.
        make_builder = getattr(engine.model, "make_builder", None)
        self._record_builder = make_builder() if make_builder is not None else None
        self._checkpointer = (
            Checkpointer(self.config.checkpoint_dir)
            if self.config.checkpoint_dir is not None
            else None
        )
        # Counters.
        self._queries = 0
        self._batches = 0
        self._worker_deaths = 0
        self._respawns = 0
        self._publishes = 0
        self._checkpoints = 0
        # Observability: the server defaults to a live registry (pass
        # ``NULL_REGISTRY`` to opt out); an engine that already carries a
        # live registry keeps it, otherwise the primary is bound to ours so
        # encode/cache/backend metrics land in the same snapshot.
        if metrics is not None:
            self._metrics_registry = metrics
        elif engine.metrics_registry.enabled:
            self._metrics_registry = engine.metrics_registry
        else:
            self._metrics_registry = MetricsRegistry()
        if self._metrics_registry.enabled and not engine.metrics_registry.enabled:
            engine.bind_metrics(self._metrics_registry, clock=self._clock)
        registry = self._metrics_registry
        self._m_queries = registry.counter("server_queries_total", "queries answered")
        self._m_batches = registry.counter("server_batches_total", "batches executed")
        self._m_occupancy = registry.histogram(
            "server_batch_occupancy", "queries per released batch", buckets=DEFAULT_SIZE_BUCKETS
        )
        self._m_queue_wait = registry.histogram(
            "server_queue_wait_seconds",
            "submit-to-execution wait per query",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._m_service = registry.histogram(
            "server_batch_service_seconds",
            "encode + scan service time per batch",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._m_worker_deaths = registry.counter(
            "server_worker_deaths_total", "query workers killed"
        )
        self._m_worker_respawns = registry.counter(
            "server_worker_respawns_total", "query workers respawned"
        )
        self._m_publishes = registry.counter(
            "server_publishes_total", "replica generations published"
        )
        self._m_checkpoints = registry.counter(
            "server_checkpoints_total", "checkpoints committed"
        )
        self._m_checkpoint_latency = registry.histogram(
            "server_checkpoint_seconds",
            "checkpoint commit latency",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._m_ingested_records = registry.counter(
            "server_ingested_records_total", "records ingested (waves + stream)"
        )
        self._m_ingested_waves = registry.counter(
            "server_ingested_waves_total", "direct ingest waves applied"
        )
        self._m_stream_bytes = registry.counter(
            "server_stream_bytes_total", "stream bytes consumed"
        )
        self._m_rejected_records = registry.counter(
            "server_rejected_records_total",
            "stream records dropped: corrupt lines and records the encoder refuses",
        )
        self._m_ingest_errors = registry.counter(
            "server_ingest_errors_total", "background ingest cycles that raised"
        )
        self._m_lag_records = registry.gauge(
            "server_ingest_lag_records", "records accepted but not yet ingested"
        )
        self._m_lag_bytes = registry.gauge(
            "server_ingest_lag_bytes", "stream bytes on disk not yet consumed"
        )
        cache = registry.counter_family(
            "engine_cache_requests_total", "query-cache lookups by result", labels=("result",)
        )
        self._m_cache_hits = cache.labels(result="hit")
        self._m_cache_misses = cache.labels(result="miss")
        self._started_at: float | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ServingRuntime":
        """Publish the initial generation and start every thread (idempotent)."""
        with self._state_lock:
            if self._closed:
                raise ServerClosed("this runtime has been shut down")
            if self._started:
                return self
            self._started = True
            self._started_at = self._clock.monotonic()
        with self._ingest_lock:
            self._publish_locked()
        with self._state_lock:
            for _ in range(self.config.num_workers):
                self._spawn_worker_locked()
        self._ingester = threading.Thread(
            target=self._ingest_loop, name="repro-server-ingester", daemon=True
        )
        self._ingester.start()
        return self

    def __enter__(self) -> "ServingRuntime":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    def shutdown(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the runtime; with ``drain`` (default) no accepted work is lost.

        Order matters: close the aggregator (workers then take what is
        pending without waiting, and exit once it is empty), wait until every
        accepted query future is resolved, join the workers, stop the ingest
        thread, ingest any remaining stream records and buffered partial
        group, and commit a final checkpoint when checkpointing is
        configured.  ``drain=False`` skips the waiting and the final ingest
        flush.  A wave or stream group whose encode still raises raises out
        of shutdown, after what did go in is published and checkpointed
        (with the stream position before that group).
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
        self._aggregator.close()
        if drain:
            with self._inflight_cond:
                self._inflight_cond.wait_for(lambda: self._inflight == 0, timeout)
        for worker in workers:
            worker.join()
        self._stop_ingest = True
        self._ingest_wake.set()
        if self._ingester is not None:
            self._ingester.join()
            self._ingester = None
        if drain and self._started:
            with self._ingest_lock:
                try:
                    self._drain_ingest_locked(force_partial=True)
                finally:
                    if self._groups_since_publish or self._checkpointer is not None:
                        self._publish_locked(force_checkpoint=self._checkpointer is not None)

    @classmethod
    def restore(
        cls,
        checkpoint_dir: str | Path,
        encoder,
        *,
        config: ServerConfig | None = None,
        engine_config: EngineConfig | None = None,
        stream_path: str | Path | None = None,
        hooks: ServerHooks | None = None,
        clock: Clock | None = None,
        metrics: "MetricsRegistry | NullRegistry | None" = None,
    ) -> "ServingRuntime":
        """Rebuild a runtime from its last committed checkpoint (lossless restart).

        The primary engine is restored from the checkpoint snapshot and the
        stream reader (when ``stream_path`` is given) is repositioned at the
        checkpointed byte offset, so records that arrived after the crash —
        and records consumed but not yet checkpointed — are (re-)ingested in
        the same deterministic groups the uninterrupted run would have used.
        """
        engine, manifest = Checkpointer.restore_engine(
            checkpoint_dir, encoder, engine_config=engine_config
        )
        config = (config or ServerConfig()).variant(checkpoint_dir=checkpoint_dir)
        runtime = cls(engine, config, hooks=hooks, clock=clock, metrics=metrics)
        runtime._generation = int(manifest["generation"])
        runtime._ingested_records = int(manifest.get("ingested_records", 0))
        if stream_path is not None:
            runtime.attach_stream(stream_path, resume_state=manifest.get("stream"))
        return runtime

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def generation(self) -> int:
        """The replica generation currently served to query workers."""
        published = self._published
        return published[0] if published is not None else 0

    def stats(self) -> dict[str, object]:
        """A point-in-time counters snapshot (queries, batches, faults, …)."""
        pending = self._aggregator.pending
        with self._state_lock:
            snapshot = {
                "queries": self._queries,
                "batches": self._batches,
                "mean_occupancy": self._queries / self._batches if self._batches else 0.0,
                "pending": pending,
                "inflight": self._inflight,
                "workers_alive": len(self._workers),
                "worker_deaths": self._worker_deaths,
                "respawns": self._respawns,
                "publishes": self._publishes,
                "checkpoints": self._checkpoints,
                "generation": self.generation,
                "ingested_records": self._ingested_records,
                "ingested_waves": self._ingested_waves,
                "rejected_records": self._rejected_records,
                "ingest_errors": self._ingest_errors,
                "last_ingest_error": self._last_ingest_error,
                "closed": self._closed,
            }
        return snapshot

    @property
    def metrics_registry(self) -> "MetricsRegistry | NullRegistry":
        """The registry this runtime (and its engines) report into."""
        return self._metrics_registry

    def metrics(self) -> dict[str, object]:
        """The registry snapshot plus a derived ``"slo"`` roll-up block.

        The SLO block condenses the raw series into the handful of numbers
        an operator actually watches: throughput (QPS over runtime uptime),
        cache hit rate, queue-wait and batch-service percentiles, batch
        occupancy, ingest lag (current and peak, records and bytes) and
        worker health.  With metrics disabled every derived value is zero
        and the ``"metrics"`` map is empty — the shape stays stable.
        """
        snapshot = self._metrics_registry.snapshot()
        uptime = 0.0
        if self._started_at is not None:
            uptime = max(0.0, self._clock.monotonic() - self._started_at)
        queries = self._m_queries.value
        hits = self._m_cache_hits.value
        misses = self._m_cache_misses.value
        lookups = hits + misses
        with self._state_lock:
            workers_alive = len(self._workers)
        snapshot["slo"] = {
            "uptime_seconds": uptime,
            "qps": queries / uptime if uptime > 0 else 0.0,
            "queries": queries,
            "batches": self._m_batches.value,
            "mean_batch_occupancy": self._m_occupancy.mean,
            "cache_hit_rate": hits / lookups if lookups else 0.0,
            "queue_wait_p50_ms": self._m_queue_wait.quantile(0.5) * 1e3,
            "queue_wait_p99_ms": self._m_queue_wait.quantile(0.99) * 1e3,
            "batch_service_p50_ms": self._m_service.quantile(0.5) * 1e3,
            "batch_service_p99_ms": self._m_service.quantile(0.99) * 1e3,
            "ingest_lag_records": self._m_lag_records.value,
            "ingest_lag_records_peak": self._m_lag_records.peak,
            "ingest_lag_bytes": self._m_lag_bytes.value,
            "ingest_lag_bytes_peak": self._m_lag_bytes.peak,
            "worker_deaths": self._m_worker_deaths.value,
            "worker_respawns": self._m_worker_respawns.value,
            "workers_alive": workers_alive,
            "generation": self.generation,
        }
        return snapshot

    def dump_metrics(self, path: str | Path) -> Path:
        """Atomically write :meth:`metrics` as JSON to ``path``; returns it."""
        return _dump_metrics(path, self.metrics())

    # ------------------------------------------------------------------ #
    # Query path
    # ------------------------------------------------------------------ #
    def submit(self, request: "QueryRequest | np.ndarray") -> Future:
        """Enqueue one query; returns the future its response resolves on."""
        if not isinstance(request, QueryRequest):
            request = QueryRequest(queries=request)
        with self._state_lock:
            if self._closed or self._poisoned or not self._started:
                raise ServerClosed(
                    "the runtime is not accepting queries "
                    "(not started, shut down, or all workers lost)"
                )
            self._inflight += 1
        try:
            future = self._aggregator.submit(request)
        except BaseException:
            with self._inflight_cond:
                self._inflight -= 1
                self._inflight_cond.notify_all()
            raise
        future.add_done_callback(self._request_done)
        return future

    def query(
        self, request: "QueryRequest | np.ndarray", timeout: float | None = None
    ) -> QueryResponse:
        """Blocking :meth:`submit` — the drop-in for :meth:`Engine.query`."""
        return self.submit(request).result(timeout)

    def _request_done(self, _future: Future) -> None:
        with self._inflight_cond:
            self._inflight -= 1
            self._inflight_cond.notify_all()

    def _execute_batch(self, batch: list[PendingQuery], replica: Engine) -> None:
        """Encode (per request, bit-identically) and answer one batch."""
        observed = self._metrics_registry.enabled
        execute_started = self._clock.monotonic() if observed else 0.0
        if observed:
            self._m_occupancy.observe(len(batch))
            for entry in batch:
                self._m_queue_wait.observe(max(0.0, execute_started - entry.enqueued_at))
        ready: list[tuple[PendingQuery, QueryRequest]] = []
        for entry in batch:
            try:
                request = entry.request
                if not isinstance(request.queries, np.ndarray):
                    # Same arithmetic as Engine.query: this request's
                    # trajectories, alone, through the bucketed encoder.
                    with self._encode_lock:
                        vectors = self.primary.encode(list(request.queries))
                    request = QueryRequest(queries=vectors, k=request.k)
                ready.append((entry, request))
            except Exception as exc:
                # One poisoned request must not fail its batch-mates.
                entry.future.set_exception(exc)
        if not ready:
            return
        responses = replica.query_many(
            [request for _, request in ready], coalesce=self.config.coalesce
        )
        for (entry, _), response in zip(ready, responses):
            entry.future.set_result(response)
        with self._state_lock:
            self._queries += len(ready)
            self._batches += 1
        self._m_queries.inc(len(ready))
        self._m_batches.inc()
        if observed:
            self._m_service.observe(max(0.0, self._clock.monotonic() - execute_started))

    # ------------------------------------------------------------------ #
    # Worker supervision
    # ------------------------------------------------------------------ #
    def _spawn_worker_locked(self) -> None:
        worker = _QueryWorker(self, self._next_worker_id)
        self._next_worker_id += 1
        self._workers.append(worker)
        worker.start()

    def _worker_exited(self, worker: _QueryWorker, reason: str) -> None:
        with self._state_lock:
            if worker in self._workers:
                self._workers.remove(worker)
            if reason == "killed":
                self._worker_deaths += 1
                self._m_worker_deaths.inc()
                if not self._closed and self._respawns < self.config.max_worker_respawns:
                    self._respawns += 1
                    self._m_worker_respawns.inc()
                    self._spawn_worker_locked()
            stranded = not self._workers
            if stranded and not self._closed:
                self._poisoned = True
        self._hooks.on_worker_exit(worker.worker_id, reason)
        if stranded:
            # Nobody is left to serve: fail what is pending (during a
            # shutdown, what a killed worker put back) instead of hanging
            # its callers.
            self._aggregator.close(ServerClosed("no query worker is left to serve the request"))

    # ------------------------------------------------------------------ #
    # Ingest path
    # ------------------------------------------------------------------ #
    def attach_stream(
        self, path: str | Path, *, resume_state: dict[str, int] | None = None
    ) -> TrajectoryStreamReader:
        """Tail ``path`` (a trajectories JSONL); returns the reader used."""
        reader = TrajectoryStreamReader(path)
        if resume_state:
            reader.seek(**resume_state)
        with self._ingest_lock:
            self._reader = reader
            self._stream_buffer = []
            self._stream_base_state = reader.state
        self._ingest_wake.set()
        return reader

    def submit_ingest(self, trajectories: Sequence[Trajectory]) -> int:
        """Queue one wave for the background ingest thread; returns its size.

        Raises ``ValueError``, queueing nothing, when the encoder would
        refuse a record of the wave (a road id outside the network, or a
        timestamp the time features cannot take).
        """
        wave = list(trajectories)
        self._check_records(wave)
        with self._ingest_lock:
            self._check_accepting_ingest_locked()
            if wave:
                self._ingest_queue.append(wave)
                self._note_ingest_lag_locked()
        if wave:
            self._ingest_wake.set()
        return len(wave)

    def ingest(self, trajectories: Iterable[Trajectory]) -> int:
        """Synchronous ingest of one wave into the primary (publishes if due).

        Refuses a wave as :meth:`submit_ingest` does.
        """
        wave = list(trajectories)
        self._check_records(wave)
        with self._ingest_lock:
            self._check_accepting_ingest_locked()
            if wave:
                self._ingest_wave_locked(wave)
                self._maybe_publish_locked()
        return len(wave)

    def _check_records(self, records: list[Trajectory]) -> None:
        """Raise the encoder's ``ValueError`` for the first record it refuses."""
        if self._record_builder is not None and records:
            self._record_builder.check(records)

    def _admit_stream_records_locked(self, records: list[Trajectory]) -> list[Trajectory]:
        """``records`` without those the encoder refuses, each counted.

        Dropping them where they are read keeps replay deterministic: a
        restored reader re-reads a refused record and drops it again.
        """
        try:
            self._check_records(records)  # one pass when every record is fine
        except ValueError:
            admitted = []
            for record in records:
                try:
                    self._check_records([record])
                    admitted.append(record)
                except ValueError:
                    self._count_rejected_locked()
            return admitted
        return records

    def _count_rejected_locked(self, count: int = 1) -> None:
        self._rejected_records += count
        self._m_rejected_records.inc(count)

    def _check_accepting_ingest_locked(self) -> None:
        # Checked under _ingest_lock, in one section with the caller's append
        # or ingest: shutdown's final drain takes that lock after closing, so
        # it sees every wave accepted here.
        with self._state_lock:
            if self._closed:
                raise ServerClosed("the runtime is not accepting ingests")

    def pump(self) -> dict[str, int | bool]:
        """Run one ingest cycle synchronously (the test-kit's deterministic lever).

        Drains queued waves, polls the attached stream into full groups,
        and publishes/checkpoints when due — exactly what the background
        thread does once per ``poll_interval``.  Returns what happened.

        A wave or stream group whose encode raises is kept, ahead of
        everything after it, and the next cycle retries it; the stream's
        checkpointable position stays before the group.  So a record the
        encoder fails on every time holds its wave queue or the stream at
        that record: the stall shows as one more
        ``server_ingest_errors_total`` per background cycle.
        """
        with self._ingest_lock:
            result = self._drain_ingest_locked(force_partial=False)
            result["published"] = self._maybe_publish_locked()
        return result

    def flush_ingest(self) -> dict[str, int | bool]:
        """Like :meth:`pump`, but also force the partial stream group through
        and publish unconditionally (plus checkpoint when configured)."""
        with self._ingest_lock:
            result = self._drain_ingest_locked(force_partial=True)
            self._publish_locked(force_checkpoint=self._checkpointer is not None)
        return result

    def _ingest_loop(self) -> None:
        while True:
            self._clock.wait(self._ingest_wake, timeout=self.config.poll_interval)
            self._ingest_wake.clear()
            if self._stop_ingest:
                return
            try:
                self.pump()
            except Exception as exc:
                # One failed cycle (an encoder error, a full disk at a
                # checkpoint) must not end the thread: count it and poll on.
                # A failed checkpoint is retried by the next publish, whose
                # count of publishes since the last checkpoint still runs.
                _log.exception("an ingest cycle failed; the ingest thread polls on")
                with self._state_lock:
                    self._ingest_errors += 1
                    self._last_ingest_error = f"{type(exc).__name__}: {exc}"
                self._m_ingest_errors.inc()

    def _ingest_wave_locked(self, wave: list[Trajectory]) -> None:
        with self._encode_lock:
            self.primary.ingest(wave)
        self._ingested_waves += 1
        self._groups_since_publish += 1
        self._m_ingested_waves.inc()
        self._m_ingested_records.inc(len(wave))
        self._note_ingest_lag_locked()

    def _poll_stream_locked(self) -> int:
        """Pull full deterministic groups off the stream; returns records ingested."""
        if self._reader is None:
            return 0
        observed = self._metrics_registry.enabled
        offset_before = self._reader.offset
        if observed:
            self._observe_stream_lag_locked()  # backlog at poll start: peak = burst depth
        ingested = self._poll_stream_groups_locked()
        if observed:
            self._m_stream_bytes.inc(max(0, self._reader.offset - offset_before))
            self._observe_stream_lag_locked()
            self._note_ingest_lag_locked()
        return ingested

    def _note_ingest_lag_locked(self) -> None:
        """Publish the records-lag gauge: accepted but not yet in the primary."""
        if not self._metrics_registry.enabled:
            return
        queued = sum(len(wave) for wave in self._ingest_queue) + len(self._stream_buffer)
        self._m_lag_records.set(float(queued))

    def _observe_stream_lag_locked(self) -> None:
        """Publish the bytes-lag gauge: stream bytes on disk the reader has not consumed."""
        if self._reader is None:
            return
        try:
            size = self._reader.path.stat().st_size
        except OSError:
            return
        self._m_lag_bytes.set(float(max(0, size - self._reader.offset)))

    def _poll_stream_groups_locked(self) -> int:
        group_size = self.config.ingest_group_size
        ingested = 0
        while True:
            if not self._stream_buffer:
                # Only boundary offsets are checkpointable: remember the
                # reader position *before* any buffered records.
                self._stream_base_state = self._reader.state
            need = group_size - len(self._stream_buffer)
            if need:  # else a group a failed cycle left buffered is retried
                # A corrupt line is quarantined where it is read, as a
                # refused record is: stepped over and counted.
                polled, skipped = self._reader.poll_quarantined(need)
                self._count_rejected_locked(skipped)
                self._stream_buffer.extend(self._admit_stream_records_locked(polled))
                if len(self._stream_buffer) < group_size:
                    if len(polled) < need:  # the stream is drained for now
                        return ingested
                    continue  # records were dropped: read on to fill the group
            ingested += self._ingest_buffered_group_locked()

    def _ingest_buffered_group_locked(self) -> int:
        """Ingest the stream buffer as one group; returns its size.

        The buffer empties only once the group is in the primary: when the
        encode raises, the group stays buffered at an unmoved base state.
        """
        group = self._stream_buffer
        with self._encode_lock:
            self.primary.ingest(group)
        self._stream_buffer = []
        self._ingested_records += len(group)
        self._groups_since_publish += 1
        self._m_ingested_records.inc(len(group))
        return len(group)

    def _drain_ingest_locked(self, *, force_partial: bool) -> dict[str, int | bool]:
        waves = 0
        while self._ingest_queue:
            wave = self._ingest_queue.popleft()
            try:
                self._ingest_wave_locked(wave)
            except BaseException:
                self._ingest_queue.appendleft(wave)  # the next cycle retries it
                raise
            waves += 1
        records = self._poll_stream_locked()
        if force_partial and self._stream_buffer:
            records += self._ingest_buffered_group_locked()
            self._stream_base_state = self._reader.state
        self._note_ingest_lag_locked()
        return {"waves": waves, "stream_records": records, "published": False}

    # ------------------------------------------------------------------ #
    # Publication + checkpointing
    # ------------------------------------------------------------------ #
    def _maybe_publish_locked(self) -> bool:
        if self._groups_since_publish < self.config.publish_every_groups:
            return False
        self._publish_locked()
        return True

    def _publish_locked(self, *, force_checkpoint: bool = False) -> None:
        """Replicate the primary in memory (no file is read or written) and
        atomically publish it as a new generation; holding ``_ingest_lock``
        keeps the primary unchanged while it is read.  The replica shares
        the primary's stored rows and copies only its tombstone masks and
        trajectory-id map; later ingests append past its rows and
        compactions write fresh segments, so it never changes under a
        held batch."""
        if self.config.compact_min_tombstones > 0:
            self.primary.compact(min_tombstones=self.config.compact_min_tombstones)
        self._generation += 1
        replica = self.primary.replicate()
        # The replica reports into the runtime's registry: the serving path
        # (cache hits, backend scans) runs there, not on the primary.
        registry = self._metrics_registry
        replica.bind_metrics(registry if registry.enabled else None, clock=self._clock)
        with self._state_lock:
            self._published = (self._generation, replica)
        self._groups_since_publish = 0
        self._publishes += 1
        self._publishes_since_checkpoint += 1
        self._m_publishes.inc()
        self._hooks.on_publish(self._generation, len(self.primary))
        if self._checkpointer is not None and (
            force_checkpoint
            or self._publishes_since_checkpoint > self.config.checkpoint_every_publishes
        ):
            self._checkpoint_locked()

    def _checkpoint_locked(self) -> None:
        observed = self._metrics_registry.enabled
        checkpoint_started = self._clock.monotonic() if observed else 0.0
        info = self._checkpointer.save(
            self.primary,
            generation=self._generation,
            stream_state=self._stream_base_state,
            ingested_records=self._ingested_records,
        )
        self._publishes_since_checkpoint = 0
        self._checkpoints += 1
        self._m_checkpoints.inc()
        if observed:
            self._m_checkpoint_latency.observe(
                max(0.0, self._clock.monotonic() - checkpoint_started)
            )
        self._hooks.on_checkpoint(info.path, info.generation)
