"""`repro.streaming` — streaming ingestion + sharded serving (facade internals).

The layer between :mod:`repro.serving` (frozen store + monolithic index) and
a continuously-growing corpus:

* :class:`TrajectoryStreamReader` tails ``trajectories.jsonl`` incrementally
  (``reader``);
* :class:`~repro.streaming.shards.ShardedIndex` routes queries across
  append-only :class:`IndexShard` segments — add/remove/compact mutations,
  fan-out + ``(distance, id)`` k-way merge queries, bit-identical to the
  monolithic :class:`~repro.serving.index.SimilarityIndex` on the same rows
  (``shards``).

Application code drives both through the :class:`repro.api.Engine` facade:
``EngineConfig(backend="sharded")`` selects the sharded index, and
``Engine.drain`` / ``ServingRuntime.attach_stream`` consume a reader.  The
index classes are importable from their submodules only.
"""

from repro.streaming.reader import TrajectoryStreamReader
from repro.streaming.shards import DEFAULT_SHARD_CAPACITY, IndexShard

__all__ = [
    "DEFAULT_SHARD_CAPACITY",
    "IndexShard",
    "TrajectoryStreamReader",
]
