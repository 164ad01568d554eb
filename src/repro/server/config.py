"""Configuration, hooks and error types of the serving runtime."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path


class ServerClosed(RuntimeError):
    """The runtime no longer accepts work (shut down or never started)."""


class KillWorker(BaseException):
    """Raised from a hook to terminate the current query worker.

    The fault-injection escape hatch of the concurrency test-kit: a hook
    that raises this makes the worker put its batch's unanswered requests
    back at the front of the pending buffer (no request is lost) and exit,
    exercising the supervision/respawn path.
    Derives from ``BaseException`` so a worker's per-request ``except
    Exception`` error containment cannot swallow it.
    """


@dataclass(frozen=True)
class ServerConfig:
    """Every knob of a :class:`~repro.server.runtime.ServingRuntime`.

    Query path — a free query worker takes up to ``max_batch`` of the
    oldest pending requests once ``max_batch`` are pending, once the oldest
    has waited ``linger`` seconds, or once for ``linger / 8`` no request has
    arrived and no worker has come back from a batch.  So ``linger`` bounds
    how long a request waits for batch-mates, and a lone request on an idle
    runtime waits only the pause.  ``num_workers`` query workers share one
    bit-stable replica of the primary index per published generation;
    ``coalesce`` picks the batch execution mode of
    :meth:`repro.api.Engine.query_many` — ``"aligned"`` (default) is
    bitwise identical to sequential
    :meth:`~repro.api.Engine.query`, ``"fused"`` amortises one index scan
    across the batch at last-ulp distance drift.

    Ingest path — stream records are ingested in deterministic groups of
    exactly ``ingest_group_size`` records (the unit of crash-restart
    replay); after every ``publish_every_groups`` ingested groups the
    primary is replicated in memory (one restore, no files) and the replica
    is published to the workers as a new generation;
    ``compact_min_tombstones > 0`` compacts the primary before each
    publish.  ``poll_interval`` is the background thread's stream polling
    cadence (clock seconds).

    Durability — with a ``checkpoint_dir``, every ``checkpoint_every_publishes``-th
    publish also writes a restartable checkpoint (index snapshot + stream
    byte offset); ``0`` checkpoints on every publish.  ``None`` disables
    checkpointing.

    Supervision — a worker killed by a fault (see :class:`KillWorker`) is
    replaced until ``max_worker_respawns`` replacements have been spawned;
    after that, the surviving workers serve what is pending, and if none
    survive, pending requests are failed with :class:`ServerClosed`.
    """

    max_batch: int = 32
    linger: float = 0.002
    num_workers: int = 2
    coalesce: str = "aligned"
    ingest_group_size: int = 64
    publish_every_groups: int = 1
    poll_interval: float = 0.05
    compact_min_tombstones: int = 0
    checkpoint_dir: str | Path | None = None
    checkpoint_every_publishes: int = 0
    max_worker_respawns: int = 2

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.linger < 0:
            raise ValueError("linger must be >= 0")
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.coalesce not in ("aligned", "fused"):
            raise ValueError("coalesce must be 'aligned' or 'fused'")
        if self.ingest_group_size < 1:
            raise ValueError("ingest_group_size must be >= 1")
        if self.publish_every_groups < 1:
            raise ValueError("publish_every_groups must be >= 1")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be > 0")
        if self.compact_min_tombstones < 0:
            raise ValueError("compact_min_tombstones must be >= 0")
        if self.checkpoint_every_publishes < 0:
            raise ValueError("checkpoint_every_publishes must be >= 0")
        if self.max_worker_respawns < 0:
            raise ValueError("max_worker_respawns must be >= 0")

    def variant(self, **overrides) -> "ServerConfig":
        """A modified copy (mirrors :meth:`repro.api.EngineConfig.variant`)."""
        return replace(self, **overrides)


class ServerHooks:
    """Observation points of the runtime (all default to no-ops).

    Subclass and override to observe — or, in tests, to inject faults into —
    the runtime's threads.  Hooks run *on the runtime's own threads*: an
    exception raised from a batch hook fails that batch's requests, and
    :class:`KillWorker` terminates the hosting worker (the test-kit's
    worker-crash lever).  Keep implementations fast; they sit on the hot
    path.
    """

    def on_batch_start(self, worker_id: int, batch_size: int, generation: int) -> None:
        """A query worker is about to execute a batch against ``generation``'s replica."""

    def on_batch_done(self, worker_id: int, batch_size: int, generation: int) -> None:
        """The batch completed and every future in it has been resolved."""

    def on_publish(self, generation: int, rows: int) -> None:
        """A new replica generation was published from the primary."""

    def on_checkpoint(self, path: Path, generation: int) -> None:
        """A restartable checkpoint was committed to disk."""

    def on_worker_exit(self, worker_id: int, reason: str) -> None:
        """A query worker terminated (``reason`` is ``"stop"`` or ``"killed"``)."""
