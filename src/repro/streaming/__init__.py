"""`repro.streaming` — streaming ingestion + the row store (facade internals).

The layer between :mod:`repro.serving` (frozen store + scan kernels) and
a continuously-growing corpus:

* :class:`TrajectoryStreamReader` tails ``trajectories.jsonl`` incrementally
  (``reader``);
* :class:`~repro.streaming.shards.ShardedIndex` is the one row store of
  every index backend: append-only :class:`IndexShard` segments of vectors,
  cached norms, ids and tombstones behind one id → position map —
  add/remove/compact mutations, queries that carry one running top-k
  through the segments in order, bit-identical to the monolithic
  :class:`~repro.serving.index.SimilarityIndex` on the same rows
  (``shards``).

Application code drives both through the :class:`repro.api.Engine` facade:
``EngineConfig(backend="sharded")`` selects the sharded index itself (the
other built-in backends subclass it), and ``Engine.drain`` /
``ServingRuntime.attach_stream`` consume a reader.  The index classes are
importable from their submodules only.
"""

from repro.streaming.reader import TrajectoryStreamReader
from repro.streaming.shards import DEFAULT_SHARD_CAPACITY, IndexShard

__all__ = [
    "DEFAULT_SHARD_CAPACITY",
    "IndexShard",
    "TrajectoryStreamReader",
]
