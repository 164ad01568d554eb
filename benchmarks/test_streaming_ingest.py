"""Gate for the streaming subsystem: incremental ingest + sharded serving.

Two hard promises are checked at a serving-ish scale (6k rows, 64-d), with
the corpus arriving in waves through a tailed JSONL file that
:meth:`Engine.drain <repro.api.Engine.drain>` consumes:

1. **Incremental appends never re-encode existing shards** — every
   trajectory is encoded exactly once across all waves, and the shards
   filled by earlier waves are the same memory, bit for bit, after later
   ones.
2. **Sharding does not change answers** — after all waves, the sharded
   fan-out returns bit-identical neighbour ids and distances to a monolithic
   :class:`SimilarityIndex` over the same vectors, at several shard counts.

Timings for the ingest loop and the sharded query path land in
``benchmark.extra_info``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.api import Engine, EngineConfig, QueryRequest
from repro.serving.index import SimilarityIndex
from repro.streaming.reader import TrajectoryStreamReader
from repro.streaming.shards import ShardedIndex
from repro.trajectory import Trajectory, append_trajectories

TOTAL_ROWS = 6_000
WAVES = 4
DIM = 64
NUM_QUERIES = 200
K = 10
CHUNK = 512
SHARD_CAPACITY = 1_024  # 2 x CHUNK: aligned, 6 shards at full fill
ENCODE_BATCH = 256


def make_trajectory(trajectory_id: int, rng: np.random.Generator) -> Trajectory:
    length = int(rng.integers(4, 40))
    return Trajectory(
        roads=list(range(length)),
        timestamps=[float(1000 + 15 * i) for i in range(length)],
        trajectory_id=trajectory_id,
    )


def hashing_encode(batch: list[Trajectory]) -> np.ndarray:
    """Deterministic per-trajectory vectors (independent of batch layout)."""
    out = np.empty((len(batch), DIM), dtype=np.float32)
    for row, trajectory in enumerate(batch):
        out[row] = np.random.default_rng(trajectory.trajectory_id).standard_normal(DIM)
    return out


def test_streaming_ingest_and_sharded_query_exactness(benchmark, once, tmp_path):
    rng = np.random.default_rng(41)
    path = tmp_path / "arrivals.jsonl"
    reader = TrajectoryStreamReader(path)

    encoded_ids: list[int] = []

    def counting_encode(batch):
        encoded_ids.extend(t.trajectory_id for t in batch)
        return hashing_encode(batch)

    engine = Engine(
        counting_encode,
        EngineConfig(
            backend="sharded",
            shard_capacity=SHARD_CAPACITY,
            database_chunk_size=CHUNK,
            encode_batch_size=ENCODE_BATCH,
        ),
    )

    # --- Waves of arrivals: append to the JSONL, drain, repeat. ------------
    wave_size = TOTAL_ROWS // WAVES
    full_before_last_wave: list[tuple[np.ndarray, bytes]] = []
    ingest_started = time.perf_counter()
    for wave in range(WAVES):
        ids = range(wave * wave_size, (wave + 1) * wave_size)
        append_trajectories(path, [make_trajectory(i, rng) for i in ids])
        if wave == WAVES - 1:
            full_before_last_wave = [
                (vectors, vectors.tobytes())
                for vectors, _, _ in engine.backend.segments()
                if len(vectors) == SHARD_CAPACITY
            ]
        ingested = engine.drain(reader)
        assert len(ingested) == wave_size
    ingest_seconds = time.perf_counter() - ingest_started

    # Promise 1: every trajectory encoded exactly once, and the shards that
    # were full before the last wave are the same untouched memory after.
    assert sorted(encoded_ids) == list(range(TOTAL_ROWS))
    assert len(engine) == TOTAL_ROWS
    segments = [vectors for vectors, _, _ in engine.backend.segments()]
    assert full_before_last_wave
    for (vectors, frozen), now in zip(full_before_last_wave, segments):
        assert np.shares_memory(now, vectors)
        assert now.tobytes() == frozen
    assert engine.backend.num_shards == -(-TOTAL_ROWS // SHARD_CAPACITY)

    # --- Promise 2: sharded == monolithic, bit for bit. --------------------
    # Rows are numbered in arrival order; the monolithic reference indexes
    # the segments' rows in that same order.
    vectors = np.concatenate(segments)
    queries = rng.standard_normal((NUM_QUERIES, DIM)).astype(np.float32)
    mono = SimilarityIndex(vectors, database_chunk_size=CHUNK).topk(queries, K)

    query_started = time.perf_counter()
    result = engine.query(QueryRequest(queries=queries, k=K))
    query_seconds = time.perf_counter() - query_started
    np.testing.assert_array_equal(result.ids, mono.indices)
    assert (result.distances.view(np.uint32) == mono.distances.view(np.uint32)).all()

    # Same answer at other (aligned) shard geometries.
    for capacity in (CHUNK, 3 * CHUNK):
        other = ShardedIndex.from_vectors(
            vectors, shard_capacity=capacity, database_chunk_size=CHUNK
        ).top_k(queries, K)
        np.testing.assert_array_equal(other.indices, mono.indices)
        assert (other.distances.view(np.uint32) == mono.distances.view(np.uint32)).all()

    once(benchmark, lambda: engine.backend.top_k(queries, K))
    benchmark.extra_info["rows"] = TOTAL_ROWS
    benchmark.extra_info["shards"] = engine.backend.num_shards
    benchmark.extra_info["ingest_seconds"] = ingest_seconds
    benchmark.extra_info["rows_per_second_ingest"] = TOTAL_ROWS / ingest_seconds
    benchmark.extra_info["query_seconds"] = query_seconds
    benchmark.extra_info["queries_per_second"] = NUM_QUERIES / query_seconds
