"""The three workloads: online-vectors, online-mixed and offline-pipeline.

Each workload builds its inputs from the seed (the program only ever sees
the generated trajectories, vectors and arrival schedules) and checks every
answer.  All of them report the same end-to-end metrics, each measured on
that workload's own traffic (see README.md), plus the workload's own
figures as per-layer facts.

The run is cut into ``sizes.cycles`` cycles and each cycle yields one
sample of every metric (an online cycle sets the server up from scratch,
then runs an open-loop and a closed-loop slice; an offline cycle encodes,
builds and searches once).  A metric is the median of its samples (for
the timings in ``INTERFERED``, the quartile on the better side): on a
shared machine a slow stretch of a few seconds then moves one sample, not
the reported figure.
"""

from __future__ import annotations

import gc
import shutil
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from common import (
    K,
    check_answers,
    exact_top_k,
    jitter_grow,
    median,
    near_duplicates,
    peak_rss_mb,
    percentile,
    poisson_offsets,
    recall,
    timed,
    zipf_keys,
)
from loadgen import closed_loop, lateness_p99_ms, latencies_ms, open_loop, throughput
from spans import batch_hooks

#: Seconds to wait for answers (and stream visibility) after a slice ends.
GRACE = 20.0
#: Share of each online cycle spent in the open loop (the rest: closed loop).
OPEN_SHARE = {"online-vectors": 0.6, "online-mixed": 0.7}
#: Per-layer facts that are counts: summed over cycles (the rest: median).
COUNTS = {"server.batches", "server.publishes", "server.failed_futures", "loadgen.behind"}
#: Timings that other tenants of a shared machine can only make worse, with
#: their better direction.  Each is reported as the quartile of its per-cycle
#: samples on the better side: cycles a neighbour slowed down cannot move the
#: figure, while a change that slows every cycle still does.
INTERFERED = {
    "query_p50_ms": "lower",
    "query_p90_ms": "lower",
    "index_build_s": "lower",
    "saturation_qps": "higher",
    "encode_traj_per_s": "higher",
}


@dataclass
class Context:
    seed: int
    seconds: float
    sizes: object
    dataset: object
    workdir: Path
    recorder: object = None


@dataclass
class Outcome:
    metrics: dict[str, float]
    layer: dict[str, float]
    phases: list[tuple[str, int, int]]
    windows: list[tuple[float, float]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(attempted for _, attempted, _ in self.phases)

    @property
    def failed(self) -> int:
        return sum(failed for _, _, failed in self.phases)

    @property
    def correct(self) -> bool:
        return self.failed == 0


class _Samples:
    """Per-cycle samples of metrics, layer facts and phase counts."""

    def __init__(self) -> None:
        self.metrics: dict[str, list[float]] = {}
        self.layer: dict[str, list[float]] = {}
        self.phases: dict[str, list[int]] = {}
        self.windows: list[tuple[float, float]] = []
        self.notes: list[str] = []

    def add(self, metrics=None, layer=None, phases=()) -> None:
        for name, value in (metrics or {}).items():
            self.metrics.setdefault(name, []).append(float(value))
        for name, value in (layer or {}).items():
            self.layer.setdefault(name, []).append(float(value))
        for name, attempted, failed in phases:
            counts = self.phases.setdefault(name, [0, 0])
            counts[0] += int(attempted)
            counts[1] += int(failed)

    def outcome(self) -> Outcome:
        metrics = {
            name: float(np.percentile(values, 25 if INTERFERED[name] == "lower" else 75))
            if name in INTERFERED
            else median(values)
            for name, values in self.metrics.items()
        }
        metrics["peak_rss_mb"] = peak_rss_mb()
        layer = {
            name: float(sum(values)) if name in COUNTS else median(values)
            for name, values in self.layer.items()
        }
        phases = [(name, counts[0], counts[1]) for name, counts in self.phases.items()]
        return Outcome(metrics, layer, phases, self.windows, self.notes)


def _rng(ctx: Context, *stream: int) -> np.random.Generator:
    return np.random.default_rng([ctx.seed, *stream])


def _start_config(ctx: Context):
    from repro.core.config import StartConfig

    return StartConfig(seed=ctx.seed % (2**31))


# ---------------------------------------------------------------------- #
# Online set-up (shared by both online workloads)
# ---------------------------------------------------------------------- #
class _Hooks:
    """Hook state: workers seen executing a batch, and every publish."""

    def __init__(self) -> None:
        self.workers: set[int] = set()
        self.publishes: list[tuple[float, int]] = []
        self.lock = threading.Lock()

    def published(self) -> list[tuple[float, int]]:
        with self.lock:
            return list(self.publishes)


def _hooks_for(ctx: Context, state: _Hooks):
    from repro.server import ServerHooks

    class Observed(ServerHooks):
        def on_batch_start(self, worker_id, batch_size, generation):
            state.workers.add(worker_id)

        def on_publish(self, generation, rows):
            with state.lock:
                state.publishes.append((time.perf_counter(), int(rows)))

    return batch_hooks(ctx.recorder, Observed)()


@dataclass
class _Serving:
    engine: object
    runtime: object
    rows: np.ndarray
    hooks: _Hooks
    directory: Path
    setup_s: float
    encode_s: float
    index_s: float


def _start_serving(ctx: Context, rows_count: int, tag: str, *, mixed: bool) -> _Serving:
    """Model -> bulk encode -> index -> runtime started with warm replicas."""
    from repro.api import Engine, EngineConfig, QueryRequest
    from repro.server import ServerConfig, ServingRuntime

    sizes = ctx.sizes
    directory = ctx.workdir / tag
    directory.mkdir(parents=True)
    started = time.perf_counter()
    engine = Engine.from_dataset(ctx.dataset, EngineConfig(start=_start_config(ctx)))
    # Served models run in eval mode (as after Engine.load), which lets the
    # model keep its road table between encodes.
    engine.model.eval()
    encode_s, encoded = timed(engine.encode, ctx.dataset.trajectories)
    model_and_encode = time.perf_counter() - started
    # Growing the corpus is input generation, not set-up work: untimed.
    rows = jitter_grow(encoded, rows_count, _rng(ctx, 1))
    index_started = time.perf_counter()
    engine.ingest_vectors(rows)
    config = ServerConfig(
        max_batch=sizes.max_batch,
        linger=sizes.linger,
        num_workers=sizes.workers,
        coalesce="fused",
        ingest_group_size=sizes.ingest_group,
        publish_every_groups=1,
        checkpoint_dir=directory / "checkpoints" if mixed else None,
        checkpoint_every_publishes=0,
    )
    hooks = _Hooks()
    runtime = ServingRuntime(
        engine, config, hooks=_hooks_for(ctx, hooks), replica_dir=directory / "replicas"
    )
    runtime.start()
    if mixed:
        runtime.attach_stream(directory / "stream.jsonl")
    # Ready = every worker has restored its replica and answered a batch.
    warm = rows[: sizes.max_batch] + 100.0
    for _ in range(50):
        futures = [
            runtime.submit(QueryRequest(queries=warm[i : i + 1], k=K)) for i in range(len(warm))
        ]
        for future in futures:
            future.result(timeout=GRACE)
        if len(hooks.workers) >= sizes.workers:
            break
    index_s = time.perf_counter() - index_started
    return _Serving(
        engine=engine,
        runtime=runtime,
        rows=rows,
        hooks=hooks,
        directory=directory,
        setup_s=model_and_encode + index_s,
        encode_s=encode_s,
        index_s=index_s,
    )


def _run_cycles(ctx: Context, name: str, rows_count: int, mixed: bool, cycle) -> Outcome:
    """Set up, measure with ``cycle(serving, number, samples)``, tear down; repeat."""
    samples = _Samples()
    first_rows = None
    for number in range(ctx.sizes.cycles):
        serving = _start_serving(ctx, rows_count, f"{name}-{number}", mixed=mixed)
        try:
            if first_rows is None:
                first_rows = serving.rows
            # The same seed must rebuild the same corpus, bit for bit.
            drifted = int(not np.array_equal(serving.rows, first_rows))
            samples.add(
                {
                    "setup_s": serving.setup_s,
                    "encode_traj_per_s": len(ctx.dataset.trajectories) / serving.encode_s,
                    "index_build_s": serving.index_s,
                },
                phases=[("set-up", 1, drifted)],
            )
            started = time.perf_counter()
            cycle(serving, number, samples)
            samples.windows.append((started, time.perf_counter()))
        finally:
            serving.runtime.shutdown()
            shutil.rmtree(serving.directory, ignore_errors=True)
        # Free this cycle's engine and replicas before the next set-up, so
        # the peak resident set does not depend on when the collector runs.
        del serving
        gc.collect()
    return samples.outcome()


def _server_layer(serving: _Serving, records) -> dict[str, float]:
    slo = serving.runtime.metrics()["slo"]
    stats = serving.runtime.stats()
    return {
        "server.batch_occupancy_mean": slo["mean_batch_occupancy"],
        "server.batch_service_p50_ms": slo["batch_service_p50_ms"],
        "server.queue_wait_p50_ms": slo["queue_wait_p50_ms"],
        "server.queue_wait_p99_ms": slo["queue_wait_p99_ms"],
        "server.ingest_lag_records_peak": slo["ingest_lag_records_peak"],
        "server.batches": stats["batches"],
        "server.publishes": stats["publishes"],
        "server.failed_futures": sum(1 for r in records if r.error is not None),
        "api.cache_hit_rate": slo["cache_hit_rate"],
    }


def _traffic_samples(open_records, closed_records, rate: float, samples: _Samples) -> None:
    """End-to-end latency/throughput samples plus the generator's own lateness."""
    lateness = lateness_p99_ms(open_records)
    # A sender waiting for the interpreter lock is routinely a switch interval
    # late; it has fallen behind when it is late by more than that and a gap.
    limit = max(1e3 / rate, 4e3 * sys.getswitchinterval())
    behind = lateness > limit
    if behind:
        samples.notes.append(
            f"generator fell behind: p99 send lateness {lateness:.2f} ms > {limit:.2f} ms"
        )
    latency = latencies_ms(open_records)
    samples.add(
        {
            "query_p50_ms": percentile(latency, 50),
            "query_p90_ms": percentile(latency, 90),
            "saturation_qps": throughput(closed_records),
        },
        {"loadgen.send_lateness_p99_ms": lateness, "loadgen.behind": behind},
    )


def _unanswered(records) -> int:
    return sum(1 for r in records if not r.answered)


def _answers(records):
    """``(records, ids, distances)`` of the answered single-row queries."""
    answered = [r for r in records if r.answered]
    ids = np.array([r.response.ids[0] for r in answered]).reshape(len(answered), K)
    distances = np.array([r.response.distances[0] for r in answered]).reshape(len(answered), K)
    return answered, ids, distances


# ---------------------------------------------------------------------- #
# online-vectors
# ---------------------------------------------------------------------- #
def online_vectors(ctx: Context) -> Outcome:
    """Read-only exact serving of pre-encoded single-row queries (Zipf keys)."""
    from repro.api import QueryRequest

    sizes = ctx.sizes
    per_cycle = ctx.seconds / sizes.cycles
    open_seconds = OPEN_SHARE["online-vectors"] * per_cycle
    oracle = {}

    def cycle(serving: _Serving, number: int, samples: _Samples) -> None:
        if not oracle:
            pool = near_duplicates(serving.rows, sizes.vectors_pool, _rng(ctx, 2))
            oracle["pool"] = pool
            oracle["exact"] = exact_top_k(serving.rows, pool)
            oracle["requests"] = [QueryRequest(queries=pool[i : i + 1], k=K) for i in range(len(pool))]
        pool, (exact_ids, exact_distances), requests = (
            oracle["pool"], oracle["exact"], oracle["requests"]
        )
        rng = _rng(ctx, 3, number)
        offsets = poisson_offsets(rng, sizes.vectors_rate, open_seconds)
        open_keys = zipf_keys(rng, len(pool), len(offsets))
        closed_keys = zipf_keys(rng, len(pool), int(per_cycle * 20_000) + sizes.window)

        def submit(key):
            return serving.runtime.submit(requests[key])

        open_records = open_loop(submit, open_keys, offsets, grace=GRACE)
        closed_records = closed_loop(
            submit, closed_keys, per_cycle - open_seconds, sizes.window, grace=GRACE
        )
        samples.add(layer=_server_layer(serving, open_records + closed_records))
        _traffic_samples(open_records, closed_records, sizes.vectors_rate, samples)
        for phase, records in (("open-loop", open_records), ("closed-loop", closed_records)):
            answered, ids, distances = _answers(records)
            keys = np.array([r.key for r in answered], dtype=np.int64)
            wrong = 0
            if answered:
                good = check_answers(pool[keys], ids, distances, serving.rows, exact_distances[keys])
                wrong = int((~good).sum())
                samples.add({"recall_at_10": recall(ids, exact_ids[keys])})
            samples.add(phases=[(phase, len(records), _unanswered(records) + wrong)])

    return _run_cycles(ctx, "vectors", sizes.vectors_rows, False, cycle)


# ---------------------------------------------------------------------- #
# online-mixed
# ---------------------------------------------------------------------- #
class _StreamWriter(threading.Thread):
    """Appends trajectory records to the JSONL stream at Poisson times."""

    def __init__(self, path: Path, records: list, offsets: np.ndarray, group: int) -> None:
        super().__init__(name="perfbench-stream-writer", daemon=True)
        self.path = path
        self.records = records
        self.offsets = offsets
        self.group = group
        self.appended: list[float] = []
        self.stop = threading.Event()
        self.error: BaseException | None = None

    def run(self) -> None:
        from repro.trajectory.io import append_trajectories

        try:
            origin = time.perf_counter()
            for offset in self.offsets:
                if self.stop.wait(max(0.0, origin + float(offset) - time.perf_counter())):
                    break
                self._append(append_trajectories)
            # Finish on a whole ingest group, so every record gets published.
            while len(self.appended) % self.group:
                self._append(append_trajectories)
        except Exception as exc:  # reported as a failed stream phase
            self.error = exc

    def _append(self, append_trajectories) -> None:
        append_trajectories(self.path, [self.records[len(self.appended)]])
        self.appended.append(time.perf_counter())


def _stream_records(dataset, count: int) -> list:
    """``count`` stream records cycled from the train + validation trips, fresh ids."""
    source = dataset.train_trajectories() + dataset.validation_trajectories()
    return [
        replace(source[n % len(source)], trajectory_id=10_000_000 + n) for n in range(count)
    ]


def online_mixed(ctx: Context) -> Outcome:
    """Raw-trajectory queries beside a tailed JSONL stream (publish + checkpoint)."""
    from repro.api import QueryRequest

    sizes = ctx.sizes
    per_cycle = ctx.seconds / sizes.cycles
    open_seconds = OPEN_SHARE["online-mixed"] * per_cycle
    queries = ctx.dataset.test_trajectories()
    requests = [QueryRequest(queries=[trip], k=K) for trip in queries]

    def cycle(serving: _Serving, number: int, samples: _Samples) -> None:
        runtime, engine = serving.runtime, serving.engine
        base_rows = len(engine)
        rng = _rng(ctx, 4, number)
        stream_offsets = poisson_offsets(rng, sizes.stream_rate, per_cycle)
        records = _stream_records(ctx.dataset, len(stream_offsets) + sizes.ingest_group)
        offsets = poisson_offsets(rng, sizes.mixed_rate, open_seconds)
        open_keys = rng.integers(0, len(queries), size=len(offsets))
        closed_keys = rng.integers(0, len(queries), size=int(per_cycle * 5000) + sizes.window)

        def submit(key):
            return runtime.submit(requests[key])

        writer = _StreamWriter(
            serving.directory / "stream.jsonl", records, stream_offsets, sizes.ingest_group
        )
        writer.start()
        open_records = open_loop(submit, open_keys, offsets, grace=GRACE)
        open_end = time.perf_counter()
        closed_records = closed_loop(
            submit, closed_keys, per_cycle - open_seconds, sizes.window, grace=GRACE
        )
        writer.stop.set()
        writer.join(timeout=GRACE)
        # Every appended record must become visible (be published) in time.
        expected = base_rows + len(writer.appended)
        deadline = time.perf_counter() + GRACE
        while time.perf_counter() < deadline:
            published = serving.hooks.published()
            if published and published[-1][1] >= expected:
                break
            time.sleep(0.01)
        samples.add(layer=_server_layer(serving, open_records + closed_records))
        runtime.shutdown()
        _traffic_samples(open_records, closed_records, sizes.mixed_rate, samples)

        published = serving.hooks.published()
        published_rows = np.maximum.accumulate([rows for _, rows in published])
        published_at = np.array([at for at, _ in published])
        appended = np.array(writer.appended)
        # Record i is row base_rows + i: visible from the first publish holding it.
        first = np.searchsorted(published_rows, base_rows + np.arange(len(appended)) + 1)
        visible = first < len(published)
        freshness = (published_at[np.minimum(first, len(published) - 1)] - appended) * 1e3
        in_open = visible & (appended <= open_end)
        stored_ids = engine.trajectory_ids(np.arange(base_rows, base_rows + len(appended)))
        mislabeled = int((stored_ids != [r.trajectory_id for r in records[: len(appended)]]).sum())
        stream_failed = int((~visible).sum()) + mislabeled + (writer.error is not None)
        samples.add(
            layer={
                "server.freshness_p50_ms": percentile(freshness[in_open], 50),
                "server.freshness_p90_ms": percentile(freshness[in_open], 90),
            },
            phases=[("stream", len(appended), stream_failed)],
        )

        # Answers, checked against the append-only rows as finally stored.
        stored = np.zeros((len(engine), engine.dim), dtype=np.float32)
        for vectors, ids, _dead in engine.backend.segments():
            stored[ids] = vectors
        vectors_of: dict[int, np.ndarray] = {}
        for phase, phase_records in (("open-loop", open_records), ("closed-loop", closed_records)):
            answered, ids, distances = _answers(phase_records)
            wrong = 0
            if answered:
                keys = np.array([r.key for r in answered])
                for key in set(keys.tolist()) - set(vectors_of):
                    vectors_of[key] = engine.encode([queries[key]])[0]
                # The generation that answered held every row up to the largest
                # returned id; the smallest published prefix holding them has the
                # same exact top-k (rows added later can only displace).
                need = np.searchsorted(published_rows, ids.max(axis=1) + 1)
                prefix = published_rows[np.minimum(need, len(published) - 1)]
                pairs, inverse = np.unique(
                    np.stack([keys, prefix], axis=1), axis=0, return_inverse=True
                )
                exact_ids, exact_distances = _prefix_top_k(
                    stored, np.stack([vectors_of[key] for key in pairs[:, 0]]), pairs[:, 1]
                )
                inverse = inverse.reshape(-1)
                query = np.stack([vectors_of[key] for key in keys])
                good = check_answers(query, ids, distances, stored, exact_distances[inverse])
                wrong = int((~good).sum())
                samples.add({"recall_at_10": recall(ids, exact_ids[inverse])})
            samples.add(phases=[(phase, len(phase_records), _unanswered(phase_records) + wrong)])

    return _run_cycles(ctx, "mixed", sizes.mixed_rows, True, cycle)


def _prefix_top_k(stored: np.ndarray, query: np.ndarray, prefix: np.ndarray):
    """Exact top-k of each query over the first ``prefix[i]`` stored rows (float64)."""
    database = stored.astype(np.float64)
    database_norms = (database**2).sum(axis=1)
    columns = np.arange(database.shape[0])
    all_ids, all_distances = [], []
    for start in range(0, len(query), 256):
        block = query[start : start + 256].astype(np.float64)
        squared = (block**2).sum(axis=1)[:, None] - 2.0 * block @ database.T + database_norms
        squared[columns[None, :] >= prefix[start : start + 256, None]] = np.inf
        top = np.argpartition(squared, K - 1, axis=1)[:, :K]
        top_d = np.take_along_axis(squared, top, axis=1)
        order = np.argsort(top_d, axis=1, kind="stable")
        all_ids.append(np.take_along_axis(top, order, axis=1))
        all_distances.append(np.sqrt(np.maximum(np.take_along_axis(top_d, order, axis=1), 0.0)))
    return np.concatenate(all_ids), np.concatenate(all_distances)


# ---------------------------------------------------------------------- #
# offline-pipeline
# ---------------------------------------------------------------------- #
def offline_pipeline(ctx: Context) -> Outcome:
    """Pre-train -> bulk encode -> IVF build -> batched search -> mean rank."""
    from repro.api import Engine, EngineConfig, QueryRequest
    from repro.eval.similarity import search_report_on_index
    from repro.trajectory.detour import build_similarity_benchmark

    sizes = ctx.sizes
    dataset = ctx.dataset
    train = dataset.train_trajectories()[: sizes.offline_train]
    to_encode = list(dataset.trajectories) * sizes.offline_encode_copies
    detours = build_similarity_benchmark(
        dataset.network,
        dataset.test_trajectories(),
        sizes.detour_queries,
        sizes.detour_negatives,
        rng=_rng(ctx, 5),
    )
    ivf_config = EngineConfig(
        backend="ivf", backend_params={"nlist": sizes.nlist, "nprobe": sizes.nprobe}
    )
    samples = _Samples()
    started = time.perf_counter()
    setup_s, engine = timed(Engine.from_dataset, dataset, EngineConfig(start=_start_config(ctx)))
    samples.add({"setup_s": setup_s})
    pretrain_s, history = timed(engine.pretrain, train, epochs=1)
    steps = max(len(train) // engine.model.config.batch_size, 1)
    samples.add(
        layer={"core.pretrain_traj_per_s": len(train) / pretrain_s},
        phases=[("pretrain", steps, int(not np.all(np.isfinite(history.total))))],
    )

    rng = _rng(ctx, 6)
    first_encoding = rows = queries = exact_ids = requests = None
    rounds = 0
    while rounds < sizes.cycles or time.perf_counter() - started < ctx.seconds:
        rounds += 1
        if rounds > 1:  # one more set-up sample per cycle, spread over the run
            samples.add({"setup_s": timed(Engine.from_dataset, dataset, EngineConfig(start=_start_config(ctx)))[0]})
        seconds, encoded = timed(engine.encode, to_encode)
        if first_encoding is None:
            first_encoding = encoded
            rows = jitter_grow(encoded, sizes.offline_rows, rng)
            queries = near_duplicates(rows, sizes.offline_queries, rng)
            exact_ids, _ = exact_top_k(rows, queries)
            requests = [QueryRequest(queries=queries[i : i + 1], k=K) for i in range(len(queries))]
        # Encoding is deterministic: every cycle must reproduce the first.
        bad_rows = int(
            (~np.all(encoded == first_encoding, axis=1) | ~np.isfinite(encoded).all(axis=1)).sum()
        )
        ivf = Engine(engine.model, ivf_config)
        with _span(ctx, "ann.build"):
            build_s, _ = timed(_build_ivf, ivf, rows, queries[:1])
        batch_ms, responses = [], []
        search_started = time.perf_counter()
        for start in range(0, len(requests), sizes.offline_batch):
            batch_s, answers = timed(
                ivf.query_many, requests[start : start + sizes.offline_batch], coalesce="fused"
            )
            batch_ms.append(batch_s * 1e3)
            responses.extend(answers)
        search_s = time.perf_counter() - search_started
        ids = np.concatenate([r.ids for r in responses])
        distances = np.concatenate([r.distances for r in responses])
        samples.add(
            {
                "encode_traj_per_s": len(to_encode) / seconds,
                "index_build_s": build_s,
                # Each query waits for its whole batch of offline_batch.
                "query_p50_ms": percentile(batch_ms, 50),
                "query_p90_ms": percentile(batch_ms, 90),
                "saturation_qps": len(requests) / search_s,
                "recall_at_10": recall(ids, exact_ids),
            },
            phases=[
                ("encode", len(to_encode), bad_rows),
                ("index-build", 1, 0),
                ("search", len(requests), int((~check_answers(queries, ids, distances, rows)).sum())),
            ],
        )
        cache = ivf.cache_stats
        samples.add(layer={"api.cache_hit_rate": cache["hits"] / max(1, cache["hits"] + cache["misses"])})
    samples.windows.append((started, time.perf_counter()))

    ranker = Engine(engine.model)
    ranker.ingest(detours.database)
    report = search_report_on_index(ranker, ranker.encode(detours.queries), detours.ground_truth)
    samples.add(
        layer={"eval.mean_rank": report["MR"]},
        phases=[("mean-rank", len(detours.queries), int(not np.isfinite(report["MR"])))],
    )
    return samples.outcome()


def _build_ivf(engine, rows: np.ndarray, probe: np.ndarray) -> None:
    engine.ingest_vectors(rows)
    engine.backend.top_k(probe, K)  # the first scan trains k-means and fills the lists


def _span(ctx: Context, name: str):
    return nullcontext() if ctx.recorder is None else ctx.recorder.span(name)


WORKLOADS = {
    "online-vectors": online_vectors,
    "online-mixed": online_mixed,
    "offline-pipeline": offline_pipeline,
}
