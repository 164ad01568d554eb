"""Concurrent serving runtime over the :mod:`repro.api` engine facade.

Public surface:

* :class:`~repro.server.runtime.ServingRuntime` — batched queries over one
  shared replica per published generation, background stream ingest +
  compaction, graceful drain and lossless checkpoint/restart.
* :class:`~repro.server.config.ServerConfig` / :class:`~repro.server.config.ServerHooks`
  — knobs and observation/fault-injection points.
* :class:`~repro.server.aggregator.BatchAggregator` — the pending buffer
  workers take their batches from, by size, age or a pause in arrivals
  (usable standalone).
* :class:`~repro.server.checkpoint.Checkpointer` — atomic snapshot +
  stream-offset checkpoints.
"""

from repro.server.aggregator import BatchAggregator, PendingQuery
from repro.server.checkpoint import CHECKPOINT_FORMAT_VERSION, Checkpointer, CheckpointInfo
from repro.server.config import KillWorker, ServerClosed, ServerConfig, ServerHooks
from repro.server.runtime import ServingRuntime

__all__ = [
    "BatchAggregator",
    "CHECKPOINT_FORMAT_VERSION",
    "Checkpointer",
    "CheckpointInfo",
    "KillWorker",
    "PendingQuery",
    "ServerClosed",
    "ServerConfig",
    "ServerHooks",
    "ServingRuntime",
]
