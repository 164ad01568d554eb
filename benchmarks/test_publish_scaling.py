"""Micro-benchmark: publishing a replica by reference vs. replaying its rows.

``Engine.replicate`` builds the serving runtime's read replica from the live
primary.  Its backend is ``ShardedIndex.replica()``: segments that read the
primary's stored vectors, norms and ids in place and copy only their
tombstone masks, so a publish costs O(segments) plus one byte per stored
row.  The build it replaced replayed every row into a fresh backend — ``add``
of each ``segments()`` entry with its ids, then ``remove`` of the tombstones
— at O(rows x dim).  Both are timed on 64-d ``sharded`` engines of 20k, 50k
and 200k rows, filled in 4096-row waves with 1% tombstones, and the replica
must answer 16 top-10 queries bitwise like the primary.  The gate is the
share at 200k rows; the 20k -> 200k growth is recorded, not gated, because
what remains is per segment (3 segments at 20k rows, 25 at 200k).
"""

from __future__ import annotations

import time

import numpy as np

from repro.api import Engine, EngineConfig, create_backend

SIZES = (20_000, 50_000, 200_000)  # ascending: the last is the gated size
DIM = 64
WAVE = 4096
TOMBSTONE_FRACTION = 0.01
K = 10
QUERIES = 16
CALLS_PER_REPEAT = 10
REPEATS = 3
GATED_SIZE = 200_000
MAX_SHARE = 0.05


def _unused_encoder(batch):  # pragma: no cover - the benchmark ingests vectors
    raise AssertionError("publish scaling ingests vectors, never trajectories")


def build_engine(rows: int, rng: np.random.Generator) -> Engine:
    engine = Engine(_unused_encoder, EngineConfig(backend="sharded"))
    for start in range(0, rows, WAVE):
        wave = min(WAVE, rows - start)
        engine.ingest_vectors(rng.standard_normal((wave, DIM)).astype(np.float32))
    engine.remove(rng.choice(rows, size=int(rows * TOMBSTONE_FRACTION), replace=False))
    return engine


def replay(engine: Engine):
    """The replica build ``replicate`` replaced: every stored row, re-added."""
    backend = create_backend("sharded")
    deleted: list[int] = []
    for vectors, ids, dead in engine.backend.segments():
        deleted.extend(sorted(ids[dead].tolist()))
        backend.add(vectors, ids=ids)
    backend.remove(deleted)
    return backend


def best_of_interleaved(functions, repeats: int = REPEATS) -> list[float]:
    """Each function's per-call seconds: the best of ``repeats`` medians of
    ``CALLS_PER_REPEAT`` calls.  Calls alternate between the functions, so
    a busy neighbour slows both sides alike."""
    best = [float("inf")] * len(functions)
    for _ in range(repeats):
        samples = [[] for _ in functions]
        for _ in range(CALLS_PER_REPEAT):
            for slot, function in enumerate(functions):
                started = time.perf_counter()
                function()
                samples[slot].append(time.perf_counter() - started)
        for slot, seconds in enumerate(samples):
            best[slot] = min(best[slot], float(np.median(seconds)))
    return best


def test_publish_cost_does_not_grow_with_rows(benchmark, once):
    rng = np.random.default_rng(41)
    queries = rng.standard_normal((QUERIES, DIM)).astype(np.float32)
    shares = {}
    for rows in SIZES:
        engine = build_engine(rows, rng)
        served = engine.backend.top_k(queries, K)
        answered = engine.replicate().backend.top_k(queries, K)
        np.testing.assert_array_equal(answered.indices, served.indices)
        assert answered.distances.tobytes() == served.distances.tobytes()
        replay_seconds, replicate_seconds = best_of_interleaved(
            [lambda: replay(engine), engine.replicate]
        )
        shares[rows] = replicate_seconds / replay_seconds
        benchmark.extra_info[f"replay_ms_{rows}"] = replay_seconds * 1e3
        benchmark.extra_info[f"replicate_ms_{rows}"] = replicate_seconds * 1e3
        benchmark.extra_info[f"share_{rows}"] = shares[rows]
        benchmark.extra_info[f"segments_{rows}"] = engine.backend.num_shards

    share = shares[GATED_SIZE]
    assert share <= MAX_SHARE, (
        f"Engine.replicate takes {share:.1%} of a replay at {GATED_SIZE} rows; "
        f"expected <= {MAX_SHARE:.0%} "
        f"(all: {', '.join(f'{rows}={s:.1%}' for rows, s in shares.items())})"
    )

    once(benchmark, engine.replicate)  # the largest engine, the last one built
