"""Load gates for the serving runtime: batching speedup and metrics overhead.

The serving claim of PR 6 measured at a serving-ish scale (20k rows, 64-d,
production ``chunked`` backend): coalescing concurrent single-row queries
into fused batches must sustain **at least 2x** the QPS of the same
requests issued one by one by a single caller through ``Engine.query``.
PR 9 adds the observability claim: turning the metrics registry **on**
must cost at most a few percent of that QPS.

Four phases, all over the same 512 unique queries (more than the 128-entry
query cache holds, so every query phase is all-miss and comparisons are
fair):

1. **Sequential baseline** — one caller, one ``Engine.query`` per request;
   best of ``ROUNDS`` passes.
2. **Batched, metrics off** — a :class:`ServingRuntime` built with
   ``metrics=NULL_REGISTRY`` (1 worker: this gate must hold on a single
   core, where the win comes from batch amortisation, not parallelism)
   with pipelined callers: the metrics-off runtime of phase 3's first
   pair, best of its first ``ROUNDS`` passes, the cold one included, so
   both sides of this gate are best-of-``ROUNDS``.  Gated:
   ``batched_qps >= REPRO_SERVER_MIN_SPEEDUP (2.0) * sequential_qps``.
3. **Batched, metrics on** — the identical load against a second runtime
   with the default live registry (queue-wait/service histograms, shared
   engine cache/backend instruments, the lot).  ``OVERHEAD_BLOCKS`` fresh
   off/on runtime pairs, started in alternating order; within a pair the
   passes alternate, ``ROUNDS_PER_BLOCK`` each, with the side that goes
   first swapping every round, so machine noise hits both sides alike.
   Each pair yields the ratio of its two sides' best passes (noise only
   ever adds time to a pass); gated on the median ratio: the instrumented
   runtime keeps at least ``1 - REPRO_OBS_MAX_OVERHEAD (0.05)`` of the
   uninstrumented QPS.  Why a median over pairs: the machine's speed
   drifts by ~15% over a run, which the two sides of a pair share, and now
   and then one runtime runs 10-25% slower than an identical twin for its
   whole life — that decides a one-pair comparison, but moves only one
   ratio of the median.
4. **Mixed traffic** — the same query load on a fresh instrumented runtime
   with concurrent ingest waves arriving through ``submit_ingest``
   (background compaction/publication included, forcing mid-run replica
   swaps); one timed pass after an untimed warm pass.  Gated much
   softer: ``REPRO_SERVER_MIN_MIXED_SPEEDUP (0.5)`` — on one core every
   mid-run publish snapshots and restores the whole index, so this gate
   guards against collapse/deadlock under writes, not for a speedup.  Afterwards
   ``runtime.metrics()`` must report the live load: non-zero QPS, batch
   occupancy, cache hit rate, per-backend latency counts and a non-zero
   ingest-lag peak.

QPS plus p50/p99 caller latency of every phase land in
``benchmark.extra_info`` (the pytest-benchmark JSON artefact in CI), which
the session-level trajectory hook folds into ``BENCH_pr9.json``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack

import numpy as np

from repro.api import Engine, EngineConfig, QueryRequest
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.server import ServerConfig, ServingRuntime
from repro.trajectory import Trajectory

ROWS = 20_000
DIM = 64
NUM_QUERIES = 512
K = 10
ROUNDS = 3
OVERHEAD_BLOCKS = 6    # fresh metrics off/on runtime pairs
ROUNDS_PER_BLOCK = 10  # alternating passes per side in each pair
MAX_BATCH = 64
CALLERS = 2          # few submitters, deep pipelines: single-core friendly
PIPELINE_DEPTH = 64  # in-flight futures per caller (an async frontend's window)
INGEST_WAVES = 4
WAVE_SIZE = 64


def hashing_encode(batch: list[Trajectory]) -> np.ndarray:
    """Deterministic per-trajectory vectors (independent of batch layout)."""
    out = np.empty((len(batch), DIM), dtype=np.float32)
    for row, trajectory in enumerate(batch):
        out[row] = np.random.default_rng(trajectory.trajectory_id).standard_normal(DIM)
    return out


def make_trajectory(trajectory_id: int) -> Trajectory:
    return Trajectory(
        roads=[1, 2, 3],
        timestamps=[1.0, 2.0, 3.0],
        trajectory_id=trajectory_id,
    )


def run_callers(runtime: ServingRuntime, requests) -> tuple[float, np.ndarray]:
    """Drive ``requests`` through pipelined callers; returns (wall, latencies)."""
    chunks = [requests[i::CALLERS] for i in range(CALLERS)]

    def caller(chunk):
        latencies = []
        for start in range(0, len(chunk), PIPELINE_DEPTH):
            window = chunk[start : start + PIPELINE_DEPTH]
            futures = [(time.perf_counter(), runtime.submit(r)) for r in window]
            for submitted, future in futures:
                future.result(timeout=120)
                latencies.append(time.perf_counter() - submitted)
        return latencies

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=CALLERS) as pool:
        latencies = [l for chunk_lat in pool.map(caller, chunks) for l in chunk_lat]
    return time.perf_counter() - started, np.asarray(latencies)


def percentiles_ms(latencies: np.ndarray) -> tuple[float, float]:
    return (
        float(np.percentile(latencies, 50) * 1e3),
        float(np.percentile(latencies, 99) * 1e3),
    )


def test_server_load_batched_vs_sequential(benchmark, once):
    rng = np.random.default_rng(2023)
    engine = Engine(hashing_encode, EngineConfig(backend="chunked"))
    engine.ingest_vectors(rng.standard_normal((ROWS, DIM)).astype(np.float32))
    queries = rng.standard_normal((NUM_QUERIES, DIM)).astype(np.float32)
    requests = [QueryRequest(queries=queries[i : i + 1], k=K) for i in range(NUM_QUERIES)]

    # --- Phase 1: the sequential single-caller baseline. -------------------
    sequential_seconds = np.inf
    for _ in range(ROUNDS):
        started = time.perf_counter()
        for request in requests:
            engine.query(request)
        sequential_seconds = min(sequential_seconds, time.perf_counter() - started)
    sequential_qps = NUM_QUERIES / sequential_seconds

    config = ServerConfig(
        max_batch=MAX_BATCH,
        linger=0.001,
        num_workers=1,
        coalesce="fused",
        ingest_group_size=WAVE_SIZE,
        publish_every_groups=1,
        poll_interval=0.01,
    )

    def warm_up(runtime: ServingRuntime, shift: float) -> None:
        # Keep the worker's first batch (one-off first-query costs) out of
        # every timed window; shifted queries stay out of the cache.
        warmup = [
            runtime.submit(QueryRequest(queries=queries[i : i + 1] + shift, k=K))
            for i in range(MAX_BATCH)
        ]
        for future in warmup:
            future.result(timeout=120)

    # --- Phases 2 + 3: metrics off vs on, in alternating passes. ----------
    first_off_passes = []  # (wall, latencies) of the first pair's metrics-off runtime
    keep_ratios = []  # per pair: instrumented / uninstrumented best-pass QPS
    for block in range(OVERHEAD_BLOCKS):
        pair = (
            ServingRuntime(engine, config, metrics=NULL_REGISTRY),
            ServingRuntime(engine, config),
        )
        best = [np.inf, np.inf]
        with ExitStack() as running:
            for side in (0, 1) if block % 2 == 0 else (1, 0):
                running.enter_context(pair[side])
                warm_up(pair[side], shift=100.0 + 100.0 * side)
                # A runtime's first full pass runs cold (page faults,
                # allocator growth) and is ~2x slower; keep it out of the
                # overhead ratio.
                cold = run_callers(pair[side], requests)
                if block == 0 and side == 0:
                    first_off_passes.append(cold)
            for round_number in range(ROUNDS_PER_BLOCK):
                for side in (0, 1) if round_number % 2 == 0 else (1, 0):
                    wall, latencies = run_callers(pair[side], requests)
                    best[side] = min(best[side], wall)
                    if block == 0 and side == 0:
                        first_off_passes.append((wall, latencies))
        keep_ratios.append(best[0] / best[1])
    batched_seconds, batched_latencies = min(first_off_passes[:ROUNDS], key=lambda p: p[0])
    batched_qps = NUM_QUERIES / batched_seconds
    overhead = 1.0 - float(np.median(keep_ratios))

    # --- Phase 4: mixed ingest+query traffic (instrumented). ---------------
    # Its own registry: the snapshot below reports this runtime's load only.
    runtime = ServingRuntime(engine, config, metrics=MetricsRegistry())
    with runtime:
        warm_up(runtime, shift=300.0)
        run_callers(runtime, requests)  # the cold pass, untimed

        def ingest_traffic():
            for wave in range(INGEST_WAVES):
                runtime.submit_ingest(
                    [make_trajectory(10_000_000 + wave * WAVE_SIZE + i) for i in range(WAVE_SIZE)]
                )
                time.sleep(0.02)  # a drip-feed producer, not a flood

        with ThreadPoolExecutor(max_workers=1) as producer:
            ingest_job = producer.submit(ingest_traffic)
            mixed_seconds, mixed_latencies = run_callers(runtime, requests)
            ingest_job.result(timeout=120)
        mixed_qps = NUM_QUERIES / mixed_seconds
        # A short hot pass so the snapshot shows the cache doing its job.
        hot = QueryRequest(queries=queries[:1], k=K)
        for _ in range(32):
            runtime.query(hot, timeout=120)
        runtime.flush_ingest()  # every submitted wave lands before we assert
        stats = runtime.stats()
        metrics_snapshot = runtime.metrics()

    # The serving promise: batching amortises per-query overhead >= 2x even
    # on one core (override the floor via REPRO_SERVER_MIN_SPEEDUP).
    speedup = batched_qps / sequential_qps
    floor = float(os.environ.get("REPRO_SERVER_MIN_SPEEDUP", "2.0"))
    assert speedup >= floor, (
        f"batched {batched_qps:.0f} qps is only {speedup:.2f}x the sequential "
        f"{sequential_qps:.0f} qps (floor {floor}x)"
    )
    # The observability promise: a live registry on the hot path costs at
    # most REPRO_OBS_MAX_OVERHEAD (5%) of the uninstrumented QPS.
    max_overhead = float(os.environ.get("REPRO_OBS_MAX_OVERHEAD", "0.05"))
    per_pair = ", ".join(f"{1.0 - ratio:+.1%}" for ratio in keep_ratios)
    assert overhead <= max_overhead, (
        f"the instrumented runtime loses {overhead:.1%} QPS (median over "
        f"{OVERHEAD_BLOCKS} runtime pairs: {per_pair}; budget {max_overhead:.0%})"
    )
    # Softer floor: queries must keep flowing while publishes snapshot and
    # restore the index mid-run, but on one core that write work is real
    # lost QPS.
    mixed_speedup = mixed_qps / sequential_qps
    mixed_floor = float(os.environ.get("REPRO_SERVER_MIN_MIXED_SPEEDUP", "0.5"))
    assert mixed_speedup >= mixed_floor, (
        f"mixed-traffic {mixed_qps:.0f} qps is only {mixed_speedup:.2f}x the "
        f"sequential {sequential_qps:.0f} qps (floor {mixed_floor}x)"
    )
    # The ingest side of the mixed phase actually happened and landed.
    assert stats["ingested_waves"] == INGEST_WAVES
    assert len(engine) == ROWS + INGEST_WAVES * WAVE_SIZE
    assert stats["publishes"] >= 2  # fresh generations were published mid-run

    # The snapshot reports the load it just served (the PR 9 acceptance bar).
    slo = metrics_snapshot["slo"]
    families = metrics_snapshot["metrics"]
    assert slo["qps"] > 0
    assert slo["mean_batch_occupancy"] > 0
    assert slo["cache_hit_rate"] > 0  # the hot pass hit the query cache
    backend_series = [
        series
        for series in families["engine_query_seconds"]["series"]
        if series["labels"]["backend"] == "chunked" and series["count"] > 0
    ]
    assert backend_series, "per-backend latency histogram recorded no scans"
    assert slo["ingest_lag_records_peak"] > 0  # waves were seen queued mid-run
    assert families["server_ingested_records_total"]["series"][0]["value"] == (
        INGEST_WAVES * WAVE_SIZE
    )

    p50, p99 = percentiles_ms(batched_latencies)
    mixed_p50, mixed_p99 = percentiles_ms(mixed_latencies)
    print(
        f"\nserver load @ {ROWS} rows x {DIM}d, {NUM_QUERIES} queries, k={K}\n"
        f"  sequential   : {sequential_qps:8.0f} qps\n"
        f"  batched (off): {batched_qps:8.0f} qps  ({speedup:.2f}x)  "
        f"p50={p50:.1f}ms p99={p99:.1f}ms\n"
        f"  batched (on) : obs overhead {overhead:+.1%} (budget {max_overhead:.0%}; "
        f"pairs {per_pair})\n"
        f"  mixed        : {mixed_qps:8.0f} qps  ({mixed_speedup:.2f}x)  "
        f"p50={mixed_p50:.1f}ms p99={mixed_p99:.1f}ms  "
        f"(+{INGEST_WAVES * WAVE_SIZE} rows, {stats['publishes']} publishes)\n"
        f"  slo          : qps={slo['qps']:.0f} "
        f"hit_rate={slo['cache_hit_rate']:.2f} "
        f"queue_p99={slo['queue_wait_p99_ms']:.1f}ms "
        f"lag_peak={slo['ingest_lag_records_peak']:.0f} records"
    )

    once(benchmark, lambda: engine.query_many(requests, coalesce="fused"))
    benchmark.extra_info["rows"] = ROWS
    benchmark.extra_info["num_queries"] = NUM_QUERIES
    benchmark.extra_info["sequential_qps"] = sequential_qps
    benchmark.extra_info["batched_qps"] = batched_qps
    benchmark.extra_info["batched_speedup"] = speedup
    benchmark.extra_info["batched_p50_ms"] = p50
    benchmark.extra_info["batched_p99_ms"] = p99
    benchmark.extra_info["mixed_qps"] = mixed_qps
    benchmark.extra_info["mixed_speedup"] = mixed_speedup
    benchmark.extra_info["mixed_p50_ms"] = mixed_p50
    benchmark.extra_info["mixed_p99_ms"] = mixed_p99
    benchmark.extra_info["publishes"] = stats["publishes"]
    benchmark.extra_info["mean_batch_occupancy"] = stats["mean_occupancy"]
    benchmark.extra_info["obs_overhead_frac"] = overhead
    benchmark.extra_info["obs_qps"] = slo["qps"]
    benchmark.extra_info["obs_cache_hit_rate"] = slo["cache_hit_rate"]
    benchmark.extra_info["obs_queue_wait_p99_ms"] = slo["queue_wait_p99_ms"]
    benchmark.extra_info["obs_ingest_lag_records_peak"] = slo["ingest_lag_records_peak"]
