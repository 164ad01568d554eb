"""Tests for the serving runtime — deterministic concurrency, no sleeps.

Built entirely on ``tests/serving_runtime_kit.py``: virtual time for every
timer, synchronous :meth:`ServingRuntime.pump` stepping for ingest, armed
one-shot faults for crashes.  The acceptance pins:

* batched concurrent responses are **bitwise identical** to sequential
  :meth:`Engine.query` (per backend, both query flavours);
* every batch executes against exactly one published replica generation;
* a kill + restart from the last checkpoint is bit-identical to the
  uninterrupted run (hypothesis, over kill points — with an encoder whose
  output depends on batch composition, so replay grouping is actually
  proven);
* shutdown drains accepted work; faults stay contained to their blast
  radius (one request, one worker — never the runtime).
"""

from __future__ import annotations

import errno
import importlib.util
import json
import sys
import tempfile
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine, EngineConfig, QueryRequest
from repro.api.engine import _LRUCache
from repro.core.config import StartConfig
from repro.obs import NULL_REGISTRY
from repro.server import (
    BatchAggregator,
    Checkpointer,
    ServerClosed,
    ServerConfig,
    ServingRuntime,
)
from repro.streaming.reader import TrajectoryStreamReader
from repro.trajectory.io import append_trajectories
from repro.trajectory.presets import build_dataset
from serving_runtime_kit import (
    DIM,
    SMALL_GEOMETRY,
    BatchGate,
    FaultInjector,
    FlakyEncoder,
    HookRecorder,
    VirtualClock,
    assert_responses_identical,
    batch_sensitive_encode,
    engine_fingerprint,
    id_encode,
    make_engine,
    make_runtime,
    make_trajectory,
    probe_queries,
    seed_engine,
    sequential_reference,
    write_stream,
)

# Server tests involve real threads: cap each test well below the suite-wide
# CI timeout so a deadlock fails fast with a stack dump (satellite of PR 6).
if importlib.util.find_spec("pytest_timeout") is not None:
    pytestmark = [pytest.mark.timeout(120, method="thread")]


# ---------------------------------------------------------------------- #
# Virtual clock
# ---------------------------------------------------------------------- #
class TestVirtualClock:
    def test_advance_fires_deadline_exactly(self):
        clock = VirtualClock()
        event = clock.make_event()
        observed = []

        def waiter():
            observed.append(clock.wait(event, timeout=1.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        clock.wait_for_waiters(1)
        clock.advance(0.999)
        assert thread.is_alive()  # deterministic: now < deadline, still parked
        clock.advance(0.001)
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert observed == [False]  # timed out, event never set

    def test_set_wakes_waiter_without_time_moving(self):
        clock = VirtualClock()
        event = clock.make_event()
        results = []
        thread = threading.Thread(target=lambda: results.append(clock.wait(event)))
        thread.start()
        clock.wait_for_waiters(1)
        event.set()
        thread.join(timeout=5)
        assert results == [True]
        assert clock.monotonic() == 0.0

    def test_foreign_event_is_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ValueError, match="make_event"):
            clock.wait(VirtualClock().make_event(), timeout=0.1)

    def test_wait_for_waiters_times_out(self):
        with pytest.raises(TimeoutError):
            VirtualClock().wait_for_waiters(1, timeout=0.05)


# ---------------------------------------------------------------------- #
# Batch aggregator: the buffer workers take their batches from
# ---------------------------------------------------------------------- #
class Taker(threading.Thread):
    """A stand-in worker: one ``take()``, plus the virtual time it returned at."""

    def __init__(self, aggregator: BatchAggregator, clock: VirtualClock) -> None:
        super().__init__(daemon=True)
        self.aggregator, self.clock = aggregator, clock
        self.batch, self.taken_at = None, None

    def run(self) -> None:
        self.batch = self.aggregator.take()
        self.taken_at = self.clock.monotonic()

    def parked(self) -> "Taker":
        """Start, and return once the take is provably waiting on the clock."""
        self.start()
        self.clock.wait_for_waiters(1)
        return self

    def result(self) -> list:
        self.join(timeout=30)
        assert not self.is_alive(), "take() never returned"
        return self.batch


def buffer(clock: VirtualClock, *, max_batch: int = 10, linger: float = 8.0) -> BatchAggregator:
    """An aggregator whose pause window (``linger / 8``) is one clock second."""
    return BatchAggregator(max_batch=max_batch, linger=linger, clock=clock)


def submit(aggregator: BatchAggregator, count: int = 1) -> list:
    return [aggregator.submit(QueryRequest(queries=probe_queries(1))) for _ in range(count)]


class TestBatchAggregator:
    def test_a_lone_request_leaves_after_the_pause_not_the_linger(self):
        clock = VirtualClock()
        aggregator = buffer(clock)
        taker = Taker(aggregator, clock).parked()  # an idle worker, buffer empty
        (future,) = submit(aggregator)
        clock.wait_for_waiters(1)
        clock.advance(0.5)
        clock.wait_for_waiters(1)
        assert aggregator.pending == 1  # inside the pause window: still waiting
        clock.advance(0.5)  # the pause (linger / 8) has passed
        assert [entry.future for entry in taker.result()] == [future]
        assert taker.taken_at == 1.0 < aggregator.linger

    def test_arrivals_spaced_inside_the_pause_leave_as_one_batch(self):
        clock = VirtualClock()
        aggregator = buffer(clock)
        taker = Taker(aggregator, clock).parked()
        futures = submit(aggregator)
        for _ in range(3):  # each arrival comes before the pause has passed
            clock.advance(0.75)
            futures += submit(aggregator)
        assert aggregator.pending == 4
        clock.advance(1.0)  # a pause after the last arrival
        assert [entry.future for entry in taker.result()] == futures
        assert taker.taken_at == 3.25

    def test_the_age_trigger_caps_a_steady_trickle(self):
        clock = VirtualClock()
        aggregator = buffer(clock, max_batch=100)
        taker = Taker(aggregator, clock).parked()
        futures = []
        for _ in range(16):  # one arrival every half pause: it never pauses
            futures += submit(aggregator)
            clock.advance(0.5)
        # Now the first arrival has waited linger (8 s).
        assert [entry.future for entry in taker.result()] == futures
        assert taker.taken_at == aggregator.linger

    def test_max_batch_caps_a_batch(self):
        clock = VirtualClock()
        aggregator = buffer(clock, max_batch=3)
        futures = submit(aggregator, 5)
        # Five pending: the size trigger holds without time moving.
        assert [entry.future for entry in aggregator.take()] == futures[:3]
        assert aggregator.pending == 2
        taker = Taker(aggregator, clock).parked()
        clock.advance(1.0)  # the two left over leave after the pause
        assert [entry.future for entry in taker.result()] == futures[3:]

    def test_a_worker_back_from_a_batch_waits_a_pause_for_resubmissions(self):
        """The pause runs from the later of the last arrival and a worker's
        return: callers answered by that worker re-submit only then."""
        clock = VirtualClock()
        aggregator = buffer(clock)
        futures = submit(aggregator)  # arrives while every worker is busy
        clock.advance(0.75)
        taker = Taker(aggregator, clock).parked()  # a worker comes back
        clock.advance(0.5)
        clock.wait_for_waiters(1)
        assert aggregator.pending == 1  # a pause after the arrival, not the return
        futures += submit(aggregator)  # a caller it answered re-submits
        clock.advance(1.0)
        assert [entry.future for entry in taker.result()] == futures
        assert taker.taken_at == 2.25

    def test_killed_worker_survivors_are_served_first(self):
        clock = VirtualClock()
        aggregator = buffer(clock, max_batch=3)
        futures = submit(aggregator, 3)
        taken = aggregator.take()
        taken[0].future.set_result(None)  # answered before its worker died
        futures += submit(aggregator, 2)
        aggregator.put_back([entry for entry in taken if not entry.future.done()])
        assert [entry.future for entry in aggregator.take()] == futures[1:4]

    def test_close_drains_without_waiting_then_fails_or_refuses(self):
        clock = VirtualClock()
        aggregator = buffer(clock, linger=60.0)
        taker = Taker(aggregator, clock).parked()
        futures = submit(aggregator, 2)
        clock.wait_for_waiters(1)
        aggregator.close()
        assert [entry.future for entry in taker.result()] == futures
        assert aggregator.take() is None  # closed and empty: workers exit
        assert clock.monotonic() == 0.0
        with pytest.raises(ServerClosed):
            submit(aggregator)
        # A poisoned buffer fails what is pending instead.
        poisoned = buffer(clock)
        (future,) = submit(poisoned)
        poisoned.close(ServerClosed("nobody left"))
        with pytest.raises(ServerClosed, match="nobody left"):
            future.result(timeout=0)
        assert poisoned.take() is None

    def test_shutdown_takes_what_is_pending_without_waiting(self):
        clock = VirtualClock()
        engine = make_engine()
        seed_engine(engine, 16)
        requests = [QueryRequest(queries=probe_queries(1, seed=s), k=3) for s in range(3)]
        runtime = make_runtime(engine, clock=clock, max_batch=8, linger=60.0)
        runtime.start()
        futures = [runtime.submit(request) for request in requests]
        assert runtime.stats()["pending"] == 3  # no trigger holds in frozen time
        runtime.shutdown()
        assert clock.monotonic() == 0.0
        for future, reference in zip(futures, sequential_reference(engine, requests)):
            assert_responses_identical(future.result(timeout=0), reference)


# ---------------------------------------------------------------------- #
# Engine.query_many and Engine.replicate
# ---------------------------------------------------------------------- #
class TestQueryMany:
    @pytest.fixture()
    def engine(self):
        engine = make_engine()
        seed_engine(engine, 24)
        return engine

    def test_aligned_matches_sequential_bitwise(self, engine):
        requests = [QueryRequest(queries=probe_queries(2, seed=s), k=3) for s in range(5)]
        expected = sequential_reference(engine, requests)
        for actual, reference in zip(engine.query_many(requests), expected):
            assert_responses_identical(actual, reference)

    def test_fused_same_ids_close_distances(self, engine):
        requests = [QueryRequest(queries=probe_queries(2, seed=s), k=3) for s in range(5)]
        expected = sequential_reference(engine, requests)
        for actual, reference in zip(engine.query_many(requests, coalesce="fused"), expected):
            np.testing.assert_array_equal(actual.ids, reference.ids)
            np.testing.assert_allclose(actual.distances, reference.distances, rtol=1e-5)

    def test_fused_serves_and_fills_the_cache(self, engine):
        request = QueryRequest(queries=probe_queries(2), k=3)
        first = engine.query(request)
        assert engine.query_many([request], coalesce="fused")[0] is first  # cache hit
        fresh = QueryRequest(queries=probe_queries(2, seed=99), k=3)
        fused = engine.query_many([fresh], coalesce="fused")[0]
        assert engine.query(fresh) is fused  # fused miss populated the cache

    def test_unknown_coalesce_mode_raises(self, engine):
        with pytest.raises(ValueError, match="coalesce"):
            engine.query_many([], coalesce="sideways")

    def test_replicate_is_bit_stable_and_isolated(self, engine):
        replica = engine.replicate()
        request = QueryRequest(queries=probe_queries(3), k=4)
        assert_responses_identical(replica.query(request), engine.query(request))
        engine.ingest([make_trajectory(777)])  # later primary growth...
        assert len(replica) == len(engine) - 1  # ...never leaks into the replica

    def test_replicate_shares_the_stored_rows_and_copies_only_tombstones(self):
        """A replica reads its primary's stored rows in place: every replica
        segment's vectors, norms and ids share memory with the primary's, its
        tombstone mask does not, and replicating 50k x 64 rows with 1%
        tombstones retains well under a MiB (a copy of the rows is ~18 MiB)."""
        rng = np.random.default_rng(1901)
        engine = Engine(id_encode, EngineConfig(backend="sharded"))
        for start in range(0, 50_000, 4096):
            rows = min(4096, 50_000 - start)
            engine.ingest_vectors(rng.standard_normal((rows, 64)).astype(np.float32))
        engine.remove(rng.choice(50_000, size=500, replace=False))
        tracemalloc.start()
        try:
            replica = engine.replicate()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 0.5 * 2**20, f"replicate retained {retained / 2**20:.2f} MiB"
        shards = engine.backend.shards
        assert len(replica.backend.shards) == len(shards) == 7
        for own, shared in zip(shards, replica.backend.shards):
            assert np.shares_memory(shared.vectors, own.vectors)
            assert np.shares_memory(shared.norms, own.norms)
            assert np.shares_memory(shared.ids, own.ids)
            assert not np.shares_memory(shared.dead, own.dead)
            np.testing.assert_array_equal(shared.dead, own.dead)

    def test_primary_and_replica_never_write_into_each_others_rows(self):
        """Write isolation both ways.  After a replicate, the primary appends
        rows that fit its tail segment's spare allocation and removes one;
        then the replica ingests, removes and compacts.  The primary's stored
        rows, row count and answers stay bitwise as they were, and the
        replica answers like an engine given the replica's operations."""
        rng = np.random.default_rng(1902)
        base, grow, extra = (
            rng.standard_normal((rows, DIM)).astype(np.float32) for rows in (20, 3, 5)
        )
        probes = probe_queries()

        def answers(engine):  # through the backend: no query cache can hide a change
            result = engine.backend.top_k(probes, 5)
            return (
                len(engine),
                result.indices.tobytes(),
                result.distances.tobytes(),
                engine.trajectory_ids(result.indices).tobytes(),
            )

        primary = make_engine(backend="sharded")  # 16-row segments
        primary.ingest_vectors(base)
        tail = primary.backend.shards[-1]
        assert len(tail) + len(grow) <= tail._vectors.shape[0]  # room to append in place
        replica = primary.replicate()
        primary.ingest_vectors(grow)
        primary.remove([3])
        stored = [shard.vectors.tobytes() for shard in primary.backend.shards]
        expected = answers(primary)

        replica.ingest_vectors(extra, trajectory_ids=range(900, 905))
        replica.remove([2, 21, 22])
        assert replica.compact()
        assert [shard.vectors.tobytes() for shard in primary.backend.shards] == stored
        assert answers(primary) == expected

        reference = make_engine(backend="sharded")
        reference.ingest_vectors(base)
        reference.ingest_vectors(extra, trajectory_ids=range(900, 905))
        reference.remove([2, 21, 22])
        assert reference.compact()
        assert answers(replica) == answers(reference)

    def test_replica_keeps_the_engine_config(self):
        """A replica serves with its primary's whole ``EngineConfig``, not
        only the backend and geometry a snapshot manifest records."""
        engine = make_engine(cache_size=0, encode_batch_size=7)
        seed_engine(engine, 24)
        replica = engine.replicate()
        assert replica.config == engine.config
        request = QueryRequest(queries=probe_queries(3), k=4)
        replica.query(request)
        replica.query(request)
        assert replica.cache_stats["entries"] == 0  # cache_size=0: nothing cached


# ---------------------------------------------------------------------- #
# Batched-vs-sequential bit identity (the tentpole pin)
# ---------------------------------------------------------------------- #
class TestBitIdentity:
    @pytest.mark.parametrize("backend", ["bruteforce", "chunked", "sharded", "ivf", "ivfpq"])
    def test_batched_concurrent_equals_sequential(self, backend):
        engine = make_engine(backend=backend)
        seed_engine(engine, 30)
        requests = [QueryRequest(queries=probe_queries(2, seed=s), k=4) for s in range(8)]
        requests += [QueryRequest(queries=[make_trajectory(1000 + s)], k=3) for s in range(4)]
        with make_runtime(engine, max_batch=4, num_workers=2) as runtime:
            futures = [runtime.submit(request) for request in requests]
            responses = [future.result(timeout=30) for future in futures]
        # The primary never mutated: it IS the sequential ground truth.
        for actual, reference in zip(responses, sequential_reference(engine, requests)):
            assert_responses_identical(actual, reference)

    def test_threaded_callers_are_bit_identical(self):
        engine = make_engine()
        seed_engine(engine, 30)
        requests = [QueryRequest(queries=probe_queries(1, seed=s), k=5) for s in range(16)]
        with make_runtime(engine, max_batch=4, num_workers=3) as runtime:
            with ThreadPoolExecutor(max_workers=8) as pool:
                responses = list(pool.map(lambda r: runtime.query(r, timeout=30), requests))
        for actual, reference in zip(responses, sequential_reference(engine, requests)):
            assert_responses_identical(actual, reference)

    def test_fused_runtime_same_ids_close_distances(self):
        engine = make_engine()
        seed_engine(engine, 30)
        requests = [QueryRequest(queries=probe_queries(2, seed=s), k=4) for s in range(8)]
        with make_runtime(engine, coalesce="fused", max_batch=4) as runtime:
            futures = [runtime.submit(request) for request in requests]
            responses = [future.result(timeout=30) for future in futures]
        for actual, reference in zip(responses, sequential_reference(engine, requests)):
            np.testing.assert_array_equal(actual.ids, reference.ids)
            np.testing.assert_allclose(actual.distances, reference.distances, rtol=1e-5)


# ---------------------------------------------------------------------- #
# Generation consistency between replicas and the primary
# ---------------------------------------------------------------------- #
class TestGenerationConsistency:
    def test_batches_run_on_one_published_generation(self):
        hooks = HookRecorder()
        engine = make_engine()
        seed_engine(engine, 12)
        with make_runtime(engine, hooks=hooks, publish_every_groups=1) as runtime:
            assert runtime.query(QueryRequest(queries=probe_queries(1), k=2))
            runtime.ingest([make_trajectory(5000)])  # publishes generation 2
            target = id_encode([make_trajectory(5000)])
            response = runtime.query(QueryRequest(queries=target, k=1), timeout=30)
            assert response.trajectory_ids.tolist() == [[5000]]
        starts = hooks.of("batch_start")
        dones = hooks.of("batch_done")
        # A batch never straddles generations, and generations only advance.
        assert [s["generation"] for s in starts] == [d["generation"] for d in dones]
        generations = [s["generation"] for s in starts]
        assert generations == sorted(generations)
        assert generations[0] == 1 and generations[-1] == 2
        publishes = [p["generation"] for p in hooks.of("publish")]
        assert publishes[:2] == [1, 2]

    def test_stream_groups_publish_new_generations(self, tmp_path):
        hooks = HookRecorder()
        engine = make_engine()
        runtime = make_runtime(engine, hooks=hooks, ingest_group_size=4)
        stream = tmp_path / "arrivals.jsonl"
        write_stream(stream, range(10))
        runtime.attach_stream(stream)
        outcome = runtime.pump()  # synchronous stepping: no threads involved
        assert outcome["stream_records"] == 8  # two full groups of 4
        assert runtime.stats()["ingested_records"] == 8
        assert len(engine) == 8
        runtime.flush_ingest()  # the partial tail group of 2
        assert len(engine) == 10
        rows = [p["rows"] for p in hooks.of("publish")]
        assert rows[-1] == 10 and rows == sorted(rows)

    def test_held_batch_keeps_its_generation_while_publishes_land(self):
        """A batch answers on the generation it read at its boundary however
        many publishes land meanwhile."""
        gate = BatchGate()
        engine = make_engine()
        seed_engine(engine, 12)
        runtime = ServingRuntime(
            engine,
            ServerConfig(max_batch=1, num_workers=2, publish_every_groups=1),
            hooks=gate,
            clock=VirtualClock(),
        )
        request = QueryRequest(queries=probe_queries(2), k=3)
        expected = engine.query(request)  # the primary as generation 1 sees it
        with runtime:
            held = runtime.submit(request)  # size trigger: released inline
            try:
                assert gate.holding.wait(timeout=30)  # a worker holds generation 1
                for wave in range(10):
                    runtime.ingest([make_trajectory(2000 + wave)])  # one publish each
            finally:
                gate.release()
            assert_responses_identical(held.result(timeout=30), expected)
            fresh = runtime.query(request, timeout=30)
        latest = engine.query(request)
        assert not np.array_equal(latest.ids, expected.ids)  # the waves moved the answer
        assert_responses_identical(fresh, latest)
        assert [start["generation"] for start in gate.of("batch_start")] == [1, 11]

    def test_publishes_race_with_queries(self):
        """Stress: more workers than cores serve queries while every ingest
        publishes a new replica; every future resolves."""
        engine = make_engine()
        seed_engine(engine, 12)
        workers = 4
        runtime = ServingRuntime(
            engine, ServerConfig(max_batch=1, num_workers=workers, publish_every_groups=1)
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with runtime:
                futures = []
                for wave in range(30):
                    futures += [
                        runtime.submit(QueryRequest(queries=probe_queries(1, seed=s), k=3))
                        for s in range(workers)
                    ]
                    runtime.ingest([make_trajectory(4000 + wave)])
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)

    def test_one_restore_per_publish_on_the_publishing_thread(self, monkeypatch):
        """Each publish restores its replica once, on the thread that
        publishes it, never on a query worker; restores never overlap (each
        one reads the primary, which must not change meanwhile)."""
        original_restore = Engine.restore
        guard = threading.Lock()
        active, concurrency, restore_threads = [0], [], []

        def tracked_restore(*args, **kwargs):
            with guard:
                active[0] += 1
                concurrency.append(active[0])
                restore_threads.append(threading.get_ident())
            try:
                time.sleep(0.005)  # widen the window a second restore could enter
                return original_restore(*args, **kwargs)
            finally:
                with guard:
                    active[0] -= 1

        class PublishThreads(HookRecorder):
            def on_publish(self, generation, rows) -> None:
                super().on_publish(generation, rows)
                self._record("publish_thread", ident=threading.get_ident())

        monkeypatch.setattr(Engine, "restore", tracked_restore)
        hooks = PublishThreads()
        engine = make_engine()
        seed_engine(engine, 12)
        workers = 4
        config = ServerConfig(max_batch=1, num_workers=workers, publish_every_groups=1)
        with ServingRuntime(engine, config, hooks=hooks) as runtime:
            for wave in range(5):
                requests = [
                    QueryRequest(queries=probe_queries(1, seed=s), k=3) for s in range(2 * workers)
                ]
                expected = [engine.query(request) for request in requests]
                futures = [runtime.submit(request) for request in requests]
                for future, reference in zip(futures, expected):
                    assert_responses_identical(future.result(timeout=60), reference)
                runtime.ingest([make_trajectory(6000 + wave)])  # the next generation
        assert len(restore_threads) == runtime.stats()["publishes"] == 6
        publish_threads = [event["ident"] for event in hooks.of("publish_thread")]
        assert restore_threads == publish_threads
        assert max(concurrency) == 1

    def test_publish_never_touches_the_filesystem(self, tmp_path, monkeypatch):
        """Each replica is built in memory from the primary: with snapshot
        file I/O disabled, a runtime without checkpoints starts, publishes
        after every ingest and answers bitwise like the primary, and nothing
        appears in its working directory."""

        def no_file_io(*args, **kwargs):
            raise AssertionError("a publish read or wrote a snapshot file")

        monkeypatch.setattr(Engine, "snapshot", no_file_io)
        monkeypatch.setattr("repro.api.engine._snapshot_segments", no_file_io)
        engine = make_engine()
        seed_engine(engine, 12)
        monkeypatch.chdir(tmp_path)
        runtime = ServingRuntime(
            engine,
            ServerConfig(max_batch=1, num_workers=2, publish_every_groups=1),
            clock=VirtualClock(),
        )
        request = QueryRequest(queries=probe_queries(2), k=3)
        with runtime:
            for wave in range(3):
                runtime.ingest([make_trajectory(8000 + wave)])  # one publish each
                served = runtime.query(request, timeout=30)
                assert_responses_identical(served, engine.query(request))
            assert runtime.stats()["publishes"] == 4
        assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------- #
# Fault injection: worker kills, respawn, encode failures
# ---------------------------------------------------------------------- #
class TestWorkerFaults:
    def test_killed_worker_loses_no_request(self):
        faults = FaultInjector()
        faults.arm_kill(1)
        engine = make_engine()
        seed_engine(engine, 20)
        requests = [QueryRequest(queries=probe_queries(1, seed=s), k=3) for s in range(4)]
        with make_runtime(engine, hooks=faults, max_batch=4, num_workers=2) as runtime:
            futures = [runtime.submit(request) for request in requests]
            responses = [future.result(timeout=30) for future in futures]
            stats = runtime.stats()
        for actual, reference in zip(responses, sequential_reference(engine, requests)):
            assert_responses_identical(actual, reference)
        assert stats["worker_deaths"] == 1 and stats["respawns"] == 1
        assert {"killed"} <= {e["reason"] for e in faults.of("worker_exit")}

    def test_respawn_exhaustion_poisons_the_runtime(self):
        faults = FaultInjector()
        faults.arm_kill(1)
        engine = make_engine()
        seed_engine(engine, 12)
        runtime = make_runtime(
            engine, hooks=faults, max_batch=2, num_workers=1, max_worker_respawns=0
        )
        with runtime:
            futures = [
                runtime.submit(QueryRequest(queries=probe_queries(1, seed=s), k=2))
                for s in range(2)
            ]
            for future in futures:
                with pytest.raises(ServerClosed):
                    future.result(timeout=30)
            with pytest.raises(ServerClosed):
                runtime.submit(QueryRequest(queries=probe_queries(1), k=2))
        assert faults.of("worker_exit") == [{"worker_id": 0, "reason": "killed"}]

    def test_encode_failure_hits_only_its_own_request(self):
        encoder = FlakyEncoder(poison_ids={666})
        engine = make_engine(encoder)
        seed_engine(engine, 12)
        requests = [
            QueryRequest(queries=probe_queries(1), k=3),
            QueryRequest(queries=[make_trajectory(666)], k=3),
            QueryRequest(queries=[make_trajectory(1003)], k=3),
        ]
        with make_runtime(engine, max_batch=3, num_workers=1) as runtime:
            futures = [runtime.submit(request) for request in requests]
            with pytest.raises(RuntimeError, match="poisoned trajectory 666"):
                futures[1].result(timeout=30)
            good = [futures[0].result(timeout=30), futures[2].result(timeout=30)]
        reference = sequential_reference(engine, [requests[0], requests[2]])
        for actual, expected in zip(good, reference):
            assert_responses_identical(actual, expected)


# ---------------------------------------------------------------------- #
# Shutdown semantics
# ---------------------------------------------------------------------- #
class TestShutdown:
    def test_shutdown_drains_in_flight_requests(self):
        gate = BatchGate()
        engine = make_engine()
        seed_engine(engine, 16)
        requests = [QueryRequest(queries=probe_queries(1, seed=s), k=3) for s in range(11)]
        runtime = make_runtime(engine, hooks=gate, max_batch=8, linger=60.0, num_workers=1)
        runtime.start()
        futures = [runtime.submit(request) for request in requests[:8]]  # leaves by size
        assert gate.holding.wait(timeout=30)  # the only worker holds that batch
        futures += [runtime.submit(request) for request in requests[8:]]
        assert runtime.stats()["pending"] == 3  # nobody is free to take them
        gate.release()
        runtime.shutdown()  # no trigger holds for the three; closing takes them
        responses = [future.result(timeout=0) for future in futures]
        for actual, reference in zip(responses, sequential_reference(engine, requests)):
            assert_responses_identical(actual, reference)

    def test_runtime_rejects_work_unless_started(self):
        runtime = make_runtime()
        with pytest.raises(ServerClosed):
            runtime.submit(QueryRequest(queries=probe_queries(1)))
        runtime.start()
        runtime.shutdown()
        with pytest.raises(ServerClosed):
            runtime.submit(QueryRequest(queries=probe_queries(1)))
        runtime.shutdown()  # idempotent

    def test_wave_submitted_across_shutdown_is_never_lost(self):
        """``submit_ingest`` either refuses a wave or gets it into the
        primary, however its lock acquire interleaves with ``shutdown``:
        here its first ``_ingest_lock`` acquire is held until ``shutdown()``
        has returned."""
        engine = make_engine()
        seed_engine(engine, 8)
        runtime = make_runtime(engine)
        runtime.start()
        lock = runtime._ingest_lock
        at_lock, shut_down = threading.Event(), threading.Event()

        class HeldFirstAcquire:
            held = False

            def __enter__(self):
                if threading.current_thread() is submitter and not self.held:
                    self.held = True
                    at_lock.set()
                    assert shut_down.wait(timeout=30)
                return lock.__enter__()

            def __exit__(self, *exc):
                return lock.__exit__(*exc)

        runtime._ingest_lock = HeldFirstAcquire()
        outcome = []

        def submit() -> None:
            try:
                outcome.append(runtime.submit_ingest([make_trajectory(900)]))
            except ServerClosed as closed:
                outcome.append(closed)

        submitter = threading.Thread(target=submit)
        submitter.start()
        assert at_lock.wait(timeout=30)
        runtime.shutdown()
        shut_down.set()
        submitter.join(timeout=30)
        assert not submitter.is_alive()
        (result,) = outcome
        assert isinstance(result, ServerClosed) or len(engine) == 9

    def test_ingest_after_shutdown_is_refused(self):
        engine = make_engine()
        seed_engine(engine, 8)
        runtime = make_runtime(engine, publish_every_groups=1)
        # Before start, the synchronous levers work (the crash-restart kit
        # drives runtimes this way).
        assert runtime.ingest([make_trajectory(901)]) == 1
        runtime.submit_ingest([make_trajectory(902)])
        assert runtime.pump()["waves"] == 1
        runtime.flush_ingest()
        assert len(engine) == 10
        runtime.start()
        runtime.shutdown()
        rows, publishes = len(engine), runtime.stats()["publishes"]
        with pytest.raises(ServerClosed):
            runtime.ingest([make_trajectory(903)])
        with pytest.raises(ServerClosed):
            runtime.submit_ingest([make_trajectory(904)])
        assert len(engine) == rows
        assert runtime.stats()["publishes"] == publishes

    def test_final_flush_and_checkpoint_on_shutdown(self, tmp_path):
        engine = make_engine()
        runtime = make_runtime(
            engine, ingest_group_size=4, checkpoint_dir=tmp_path / "ckpt"
        )
        stream = tmp_path / "arrivals.jsonl"
        write_stream(stream, range(6))
        with runtime:
            runtime.attach_stream(stream)
        # Drained shutdown ingested the full group AND the partial tail...
        assert len(engine) == 6
        manifest = Checkpointer.load_manifest(tmp_path / "ckpt")
        # ...and the final checkpoint covers all six records.
        assert manifest["ingested_records"] == 6
        assert manifest["stream"]["records_read"] == 6


# ---------------------------------------------------------------------- #
# The query-cache under concurrency (the PR's latent-bug satellite)
# ---------------------------------------------------------------------- #
class TestCacheThreadSafety:
    def test_lru_cache_survives_a_hammer(self):
        cache = _LRUCache(capacity=16)
        errors = []
        gets_per_thread = 2000

        def hammer(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for _ in range(gets_per_thread):
                    key = int(rng.integers(0, 48))
                    if cache.get(key) is None:
                        cache.put(key, object())
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(cache) <= 16
        # Counter increments are lock-protected: none may be lost to a race.
        assert cache.hits + cache.misses == 8 * gets_per_thread

    def test_engine_query_cache_is_thread_safe(self):
        engine = make_engine()
        seed_engine(engine, 24)
        pool_requests = [QueryRequest(queries=probe_queries(1, seed=s), k=3) for s in range(6)]
        reference = sequential_reference(engine, pool_requests)

        def worker(seed: int):
            rng = np.random.default_rng(seed)
            for _ in range(50):
                pick = int(rng.integers(0, len(pool_requests)))
                assert_responses_identical(engine.query(pool_requests[pick]), reference[pick])

        with ThreadPoolExecutor(max_workers=8) as pool:
            for result in [pool.submit(worker, seed) for seed in range(8)]:
                result.result(timeout=60)


# ---------------------------------------------------------------------- #
# Checkpointing and crash-restart equivalence
# ---------------------------------------------------------------------- #
class TestCheckpointer:
    @pytest.mark.parametrize(
        "generations, expected_kept",
        [
            ((1, 2, 3), ["gen_000002", "gen_000003"]),
            # Seven-digit names sort before six-digit ones as strings.
            ((999_999, 1_000_000, 1_000_001), ["gen_1000000", "gen_1000001"]),
        ],
        ids=["six-digit", "past-a-million"],
    )
    def test_commit_is_atomic_and_pruned(self, tmp_path, generations, expected_kept):
        engine = make_engine()
        seed_engine(engine, 8)
        checkpointer = Checkpointer(tmp_path, keep=2)
        for generation in generations:
            info = checkpointer.save(engine, generation=generation)
            assert info.generation == generation
        assert not (tmp_path / "CHECKPOINT.json.tmp").exists()
        kept = sorted(p.name for p in (tmp_path / "snapshots").iterdir())
        assert kept == expected_kept
        manifest = Checkpointer.load_manifest(tmp_path)
        assert manifest["generation"] == generations[-1] and manifest["rows"] == 8

    def test_missing_and_future_checkpoints_are_refused(self, tmp_path):
        assert Checkpointer.load_manifest(tmp_path) is None
        with pytest.raises(ValueError, match="no CHECKPOINT.json"):
            Checkpointer.restore_engine(tmp_path, id_encode)
        (tmp_path / "CHECKPOINT.json").write_text(json.dumps({"format_version": 99}))
        with pytest.raises(ValueError, match="format v99"):
            Checkpointer.load_manifest(tmp_path)

    def test_reader_state_seek_round_trip(self, tmp_path):
        stream = tmp_path / "arrivals.jsonl"
        write_stream(stream, range(6))
        reader = TrajectoryStreamReader(stream)
        head = reader.poll(max_records=3)
        state = reader.state
        resumed = TrajectoryStreamReader(stream)
        resumed.seek(**state)
        tail = resumed.poll()
        assert [t.trajectory_id for t in head + tail] == list(range(6))
        assert resumed.records_read == 6
        with pytest.raises(ValueError):
            resumed.seek(-1)


#: A stream entry that is no record: ``_append_stream`` writes a corrupt line.
CORRUPT = None


def _append_stream(path: Path, entries) -> None:
    for entry in entries:
        if entry is CORRUPT:
            with open(path, "a") as handle:
                handle.write("{not json\n")
        else:
            write_stream(path, [entry])


def _crash_restart_fingerprints(root: Path, ids, group_size, publish_every, kill_point):
    """Fingerprints of (uninterrupted, killed-and-restored) runs over ``ids``
    (trajectory ids, and ``CORRUPT`` for a corrupt line)."""
    config = ServerConfig(
        ingest_group_size=group_size,
        publish_every_groups=publish_every,
        num_workers=1,
    )
    # Reference: every record, one run, no crash.  Grouping depends only on
    # record order, so feeding the stream up-front is equivalent.
    reference_stream = root / "reference.jsonl"
    _append_stream(reference_stream, ids)
    reference = ServingRuntime(
        make_engine(batch_sensitive_encode),
        config.variant(checkpoint_dir=root / "reference_ckpt"),
    )
    reference.attach_stream(reference_stream)
    reference.pump()
    reference.flush_ingest()
    expected = engine_fingerprint(reference.primary)

    # Crashed run: records arrive one by one; the process dies (no shutdown,
    # no flush) just before record ``kill_point`` arrives.
    stream = root / "crash.jsonl"
    checkpoint_dir = root / "crash_ckpt"
    victim = ServingRuntime(
        make_engine(batch_sensitive_encode),
        config.variant(checkpoint_dir=checkpoint_dir),
    )
    victim.attach_stream(stream)
    victim.flush_ingest()  # the initial checkpoint a server commits on boot
    for entry in ids[:kill_point]:
        _append_stream(stream, [entry])
        victim.pump()
    del victim  # the crash: nothing flushed, nothing drained

    restored = ServingRuntime.restore(
        checkpoint_dir,
        batch_sensitive_encode,
        config=config,
        stream_path=stream,
    )
    for entry in ids[kill_point:]:
        _append_stream(stream, [entry])
        restored.pump()
    restored.flush_ingest()
    actual = engine_fingerprint(restored.primary)
    reference.shutdown()
    restored.shutdown()
    return expected, actual


class TestCrashRestartEquivalence:
    def test_kill_mid_stream_restores_bit_identically(self, tmp_path):
        expected, actual = _crash_restart_fingerprints(
            tmp_path, list(range(10)), group_size=3, publish_every=1, kill_point=5
        )
        assert actual == expected

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_any_kill_point_restores_bit_identically(self, data):
        count = data.draw(st.integers(min_value=3, max_value=12), label="records")
        group_size = data.draw(st.integers(min_value=1, max_value=4), label="group_size")
        publish_every = data.draw(st.integers(min_value=1, max_value=3), label="publish_every")
        kill_point = data.draw(st.integers(min_value=0, max_value=count), label="kill_point")
        with tempfile.TemporaryDirectory(prefix="repro-server-crash-") as root:
            expected, actual = _crash_restart_fingerprints(
                Path(root), list(range(count)), group_size, publish_every, kill_point
            )
        assert actual == expected

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_any_kill_point_around_a_corrupt_line_restores_bit_identically(self, data):
        count = data.draw(st.integers(min_value=3, max_value=12), label="records")
        entries = list(range(count))
        entries.insert(data.draw(st.integers(min_value=0, max_value=count), label="corrupt_at"), CORRUPT)
        group_size = data.draw(st.integers(min_value=1, max_value=4), label="group_size")
        publish_every = data.draw(st.integers(min_value=1, max_value=3), label="publish_every")
        kill_point = data.draw(st.integers(min_value=0, max_value=len(entries)), label="kill_point")
        with tempfile.TemporaryDirectory(prefix="repro-server-crash-") as root:
            expected, actual = _crash_restart_fingerprints(
                Path(root), entries, group_size, publish_every, kill_point
            )
        assert expected[0] == count
        assert actual == expected

    def test_restored_runtime_serves_queries(self, tmp_path):
        engine = make_engine()
        seed_engine(engine, 12)
        runtime = make_runtime(engine, checkpoint_dir=tmp_path / "ckpt")
        with runtime:
            runtime.flush_ingest()
        request = QueryRequest(queries=probe_queries(2), k=3)
        expected = engine.query(request)
        restored = ServingRuntime.restore(
            tmp_path / "ckpt", id_encode, config=runtime.config
        )
        with restored:
            assert_responses_identical(restored.query(request, timeout=30), expected)


@pytest.fixture(scope="module")
def road_model():
    """A START model over a small road network, and eight of its trips."""
    dataset = build_dataset("synthetic-bj", scale=0.2)
    engine = Engine.from_dataset(dataset, EngineConfig(start=StartConfig(seed=5)))
    return engine.model, dataset.trajectories[:8]


def road_engine(model) -> Engine:
    return Engine(model, EngineConfig(**SMALL_GEOMETRY))


def with_road(trajectory, road: int):
    refused = trajectory.copy()
    refused.roads[1] = road
    return refused


class TestRefusedRecords:
    """Records the encoder refuses are stopped where they enter the runtime,
    so they never reach (and stop) the ingest thread."""

    def test_a_wave_holding_a_refused_record_is_rejected_whole(self, road_model):
        model, trips = road_model
        runtime = ServingRuntime(road_engine(model), ServerConfig(num_workers=1))
        wave = [trips[0], with_road(trips[1], -1)]
        with runtime:
            for ingest in (runtime.submit_ingest, runtime.ingest):
                with pytest.raises(ValueError, match="batch row 1: road id -1 is outside"):
                    ingest(wave)
            runtime.flush_ingest()
            assert len(runtime.primary) == 0
            assert runtime.submit_ingest(trips[:2]) == 2
            runtime.flush_ingest()
            assert len(runtime.primary) == 2

    @pytest.mark.parametrize("kill_point", [3, 4, 6, 8])
    def test_refused_stream_record_is_dropped_across_a_crash(
        self, tmp_path, road_model, kill_point
    ):
        model, trips = road_model
        records = list(trips)
        records[3] = with_road(records[3], -1)
        config = ServerConfig(ingest_group_size=3, publish_every_groups=1, num_workers=1)
        probes = model.encode(trips[:3])

        reference = ServingRuntime(road_engine(model), config)
        append_trajectories(tmp_path / "reference.jsonl", records)
        reference.attach_stream(tmp_path / "reference.jsonl")
        reference.flush_ingest()
        assert reference.stats()["rejected_records"] == 1
        families = reference.metrics()["metrics"]
        assert families["server_rejected_records_total"]["series"][0]["value"] == 1
        assert len(reference.primary) == len(records) - 1
        expected = engine_fingerprint(reference.primary, probes)

        # Killed after reading ``kill_point`` records, then restored from the
        # last checkpoint, which may lie before the refused record.
        stream = tmp_path / "crash.jsonl"
        victim = ServingRuntime(road_engine(model), config.variant(checkpoint_dir=tmp_path / "ckpt"))
        victim.attach_stream(stream)
        victim.flush_ingest()
        for record in records[:kill_point]:
            append_trajectories(stream, [record])
            victim.pump()
        del victim
        restored = ServingRuntime.restore(
            tmp_path / "ckpt", model, config=config, stream_path=stream
        )
        for record in records[kill_point:]:
            append_trajectories(stream, [record])
            restored.pump()
        restored.flush_ingest()
        assert engine_fingerprint(restored.primary, probes) == expected
        reference.shutdown()
        restored.shutdown()


class TestCorruptStreamLines:
    """A corrupt JSONL line is quarantined where it is read: the records
    around it are ingested, the line is counted, and ingest goes on."""

    @pytest.mark.parametrize(
        "line",
        [
            "{not json",
            '{"roads": [1e400], "timestamps": [0.0], "user_id": 0, "occupied": 0, "trajectory_id": 9}',
            "\udcff",  # written as the byte 0xff: not UTF-8
        ],
        ids=["bad-json", "road-overflow", "not-utf8"],
    )
    def test_records_around_a_corrupt_line_are_ingested(self, tmp_path, line):
        stream = tmp_path / "stream.jsonl"
        write_stream(stream, [1, 2])
        with open(stream, "a", encoding="utf-8", errors="surrogateescape") as handle:
            handle.write(line + "\n")
        write_stream(stream, [3, 4])
        runtime = make_runtime(make_engine(), ingest_group_size=64)
        reader = runtime.attach_stream(stream)
        runtime.flush_ingest()
        assert len(runtime.primary) == 4
        assert runtime.stats()["rejected_records"] == 1
        families = runtime.metrics()["metrics"]
        assert families["server_rejected_records_total"]["series"][0]["value"] == 1
        assert (reader.records_read, reader.line_number) == (4, 5)
        assert reader.offset == stream.stat().st_size
        runtime.shutdown()

    def test_the_ingest_thread_steps_over_a_corrupt_line(self, tmp_path):
        stream = tmp_path / "stream.jsonl"
        _append_stream(stream, [1, 2, CORRUPT, 3, 4])
        runtime = make_runtime(make_engine(), ingest_group_size=1, poll_interval=0.01)
        with runtime:
            runtime.attach_stream(stream)
            deadline = time.monotonic() + 30
            while runtime.stats()["ingested_records"] < 4 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert runtime.stats()["ingested_records"] == 4
            _append_stream(stream, [5])  # read only if the thread still runs
            while runtime.stats()["ingested_records"] < 5 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert runtime.stats()["ingested_records"] == 5
        assert runtime.stats()["rejected_records"] == 1


def full_disk(monkeypatch, times: int = 1) -> None:
    """Make the next ``times`` ``Checkpointer.save`` calls fail as on a full disk."""
    save = Checkpointer.save
    left = [times]

    def save_or_fail(self, *args, **kwargs):
        if left[0] > 0:
            left[0] -= 1
            raise OSError(errno.ENOSPC, "No space left on device")
        return save(self, *args, **kwargs)

    monkeypatch.setattr(Checkpointer, "save", save_or_fail)


class TestIngestErrors:
    """A failed background ingest cycle is counted, and the thread polls on."""

    def test_the_ingest_thread_outlives_a_failed_checkpoint(self, tmp_path, monkeypatch):
        class Signals(HookRecorder):
            def __init__(self) -> None:
                super().__init__()
                self.published, self.checkpointed = threading.Event(), threading.Event()

            def on_publish(self, generation, rows) -> None:
                super().on_publish(generation, rows)
                if generation == 2:
                    self.published.set()

            def on_checkpoint(self, path, generation) -> None:
                super().on_checkpoint(path, generation)
                self.checkpointed.set()

        full_disk(monkeypatch)
        hooks = Signals()
        engine = make_engine()
        checkpoints = tmp_path / "ckpt"
        runtime = make_runtime(
            engine, hooks=hooks, checkpoint_dir=checkpoints, checkpoint_every_publishes=1
        )
        with runtime:
            runtime.submit_ingest([make_trajectory(7000)])  # its checkpoint fails
            assert hooks.published.wait(timeout=30)
            runtime.submit_ingest([make_trajectory(7001)])  # retried at this publish
            assert hooks.checkpointed.wait(timeout=30)
            stats = runtime.stats()
            families = runtime.metrics()["metrics"]
        assert (stats["ingested_waves"], stats["checkpoints"], stats["ingest_errors"]) == (2, 1, 1)
        assert "No space left on device" in stats["last_ingest_error"]
        assert families["server_ingest_errors_total"]["series"][0]["value"] == 1
        assert [event["generation"] for event in hooks.of("checkpoint")][0] == 3
        assert len(engine) == 2

    def test_synchronous_levers_raise_to_their_caller(self, tmp_path, monkeypatch):
        full_disk(monkeypatch, times=3)
        runtime = make_runtime(make_engine(), checkpoint_dir=tmp_path / "ckpt")
        with pytest.raises(OSError, match="No space left"):
            runtime.ingest([make_trajectory(7002)])  # publishes, then checkpoints
        runtime.submit_ingest([make_trajectory(7003)])
        with pytest.raises(OSError, match="No space left"):
            runtime.pump()
        with pytest.raises(OSError, match="No space left"):
            runtime.flush_ingest()
        runtime.flush_ingest()  # the disk has room again
        stats = runtime.stats()
        assert (stats["checkpoints"], stats["ingest_errors"], len(runtime.primary)) == (1, 0, 2)


class TestRuntimeMetrics:
    """The PR 9 observability contract: the runtime reports what it serves."""

    def test_metrics_report_served_queries(self):
        clock = VirtualClock()
        runtime = make_runtime(clock=clock)  # default: a live registry
        assert runtime.metrics_registry.enabled
        with runtime:
            requests = [
                QueryRequest(queries=probe_queries(1, seed=seed), k=3) for seed in range(4)
            ]
            futures = [runtime.submit(request) for request in requests]
            for future in futures:  # max_batch=4: the batch flushes on size
                future.result(timeout=30)
            # A second full batch (size-flushed again: the virtual clock never
            # fires the linger timer) of identical queries -> replica-cache hits.
            repeats = [runtime.submit(requests[0]) for _ in range(4)]
            for future in repeats:
                future.result(timeout=30)
            clock.advance(2.0)  # virtual uptime, so qps is well-defined
            snapshot = runtime.metrics()
        slo = snapshot["slo"]
        assert slo["queries"] == 8
        assert slo["uptime_seconds"] == 2.0
        assert slo["qps"] == 4.0
        assert slo["mean_batch_occupancy"] > 0
        assert slo["cache_hit_rate"] > 0
        families = snapshot["metrics"]
        assert families["server_batch_occupancy"]["series"][0]["count"] >= 1
        assert families["server_queue_wait_seconds"]["series"][0]["count"] == 8
        (backend,) = families["engine_query_seconds"]["series"]
        assert backend["labels"]["backend"] == "bruteforce"
        assert backend["count"] >= 1  # replica scans land in the shared registry

    def test_ingest_lag_stream_and_checkpoint_metrics(self, tmp_path):
        clock = VirtualClock()
        engine = make_engine()
        seed_engine(engine, 8)
        runtime = make_runtime(
            engine,
            clock=clock,
            checkpoint_dir=tmp_path / "ckpt",
            publish_every_groups=1,
        )
        with runtime:
            stream = tmp_path / "stream.jsonl"
            write_stream(stream, range(2000, 2006))
            runtime.attach_stream(stream)
            runtime.submit_ingest([make_trajectory(3000 + i) for i in range(3)])
            runtime.flush_ingest()  # drains the wave + all 6 stream records
            snapshot = runtime.metrics()
        slo = snapshot["slo"]
        families = snapshot["metrics"]
        # The lag gauges drained to zero but their peaks recorded the burst.
        assert slo["ingest_lag_records"] == 0
        assert slo["ingest_lag_records_peak"] >= 3
        assert slo["ingest_lag_bytes"] == 0
        assert slo["ingest_lag_bytes_peak"] > 0
        assert families["server_ingested_records_total"]["series"][0]["value"] == 9
        assert families["server_ingested_waves_total"]["series"][0]["value"] == 1
        assert families["server_stream_bytes_total"]["series"][0]["value"] > 0
        # flush_ingest force-checkpoints; its latency was observed (0 virtual s).
        assert families["server_checkpoints_total"]["series"][0]["value"] >= 1
        assert families["server_checkpoint_seconds"]["series"][0]["count"] >= 1

    def test_null_registry_disables_collection_but_not_serving(self, tmp_path):
        engine = make_engine()
        seed_engine(engine, 8)
        runtime = ServingRuntime(
            engine,
            ServerConfig(max_batch=2, linger=0.01, num_workers=1),
            metrics=NULL_REGISTRY,
        )
        assert not runtime.metrics_registry.enabled
        assert not engine.metrics_registry.enabled  # the primary stays unbound
        with runtime:
            response = runtime.query(QueryRequest(queries=probe_queries(2), k=3), timeout=30)
            assert response.ids.shape == (2, 3)
            snapshot = runtime.metrics()
        assert snapshot["metrics"] == {}
        assert snapshot["slo"]["queries"] == 0.0  # zeros, same shape as enabled
        target = tmp_path / "snapshot.json"
        assert runtime.dump_metrics(target) == target
        assert json.loads(target.read_text())["slo"]["qps"] == 0.0

    def test_runtime_adopts_a_prebound_engine_registry(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        engine = make_engine()
        seed_engine(engine, 8)
        engine.bind_metrics(registry)
        runtime = make_runtime(engine)
        assert runtime.metrics_registry is registry  # one registry, one snapshot

    def test_worker_death_and_respawn_are_counted(self):
        hooks = FaultInjector()
        hooks.arm_kill()
        runtime = make_runtime(hooks=hooks, num_workers=2, max_worker_respawns=2)
        with runtime:
            request = QueryRequest(queries=probe_queries(1), k=2)
            runtime.query(request, timeout=30)  # first batch trips the kill
            runtime.query(request, timeout=30)
            families = runtime.metrics()["metrics"]
        assert families["server_worker_deaths_total"]["series"][0]["value"] == 1
        assert families["server_worker_respawns_total"]["series"][0]["value"] == 1
