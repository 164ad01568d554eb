"""The deterministic concurrency test-kit for :mod:`repro.server`.

Concurrency tests usually buy coverage with ``sleep()`` and pay for it in
flakes.  This kit removes real time from the equation entirely:

* **Virtual time** — runtimes and aggregators under test take a
  :class:`~repro.utils.clock.VirtualClock`; linger timeouts and poll
  intervals fire exactly when the test calls ``clock.advance``, and
  ``clock.wait_for_waiters`` is the rendezvous that proves a background
  thread is parked before time moves.  No test in ``tests/test_server.py``
  sleeps, ever.
* **Synchronous stepping** — :meth:`ServingRuntime.pump` runs one ingest
  cycle on the calling thread, so stream grouping, publication and
  checkpointing are driven step-by-step without the background thread
  (a runtime never ``start()``-ed is a perfectly good single-threaded
  harness; the crash-restart property test exploits exactly that).
* **Fault injection** — :class:`FaultInjector` arms one-shot
  :class:`~repro.server.KillWorker` faults on the batch hooks, and
  :class:`FlakyEncoder` poisons chosen trajectory ids so a single request's
  encode fails mid-batch.  Both fire at deterministic points (batch
  boundaries), not at timers.  :class:`BatchGate` parks the next batch at
  its start until the test releases it, so publishes can land while that
  batch holds the generation it read.
* **Bit-level oracles** — :func:`assert_responses_identical` compares
  responses array-bitwise, and :func:`engine_fingerprint` reduces an entire
  engine to a comparable tuple (rows, probe answers, id mapping) for
  crash-restart equivalence.

Encoders: :func:`id_encode` is per-trajectory deterministic (batching
cannot change it); :func:`batch_sensitive_encode` deliberately mixes the
whole encode wave into every row (mean-centering), so any test asserting
bit-identity through it proves the *batch composition* was replayed
exactly — the property that makes checkpoint replay lossless.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.api import Engine, EngineConfig, QueryRequest, QueryResponse
from repro.server import KillWorker, ServerConfig, ServerHooks, ServingRuntime
from repro.trajectory import Trajectory, append_trajectories
from repro.utils.clock import VirtualClock  # noqa: F401  (re-export for tests)

#: Geometry small enough that tens of rows cross chunk and shard boundaries
#: (mirrors ``tests/backend_conformance.py``).
SMALL_GEOMETRY = dict(shard_capacity=16, query_chunk_size=4, database_chunk_size=8)

#: Embedding dimensionality of the kit encoders.
DIM = 3


# ---------------------------------------------------------------------- #
# Trajectories and encoders
# ---------------------------------------------------------------------- #
def make_trajectory(trajectory_id: int, length: int | None = None) -> Trajectory:
    """A deterministic trajectory; lengths vary by id to exercise bucketing."""
    if length is None:
        length = 3 + (trajectory_id % 3)
    return Trajectory(
        roads=list(range(length)),
        timestamps=[float(1000 + 10 * i) for i in range(length)],
        user_id=trajectory_id % 5,
        trajectory_id=trajectory_id,
    )


def write_stream(path, trajectory_ids) -> None:
    """Append one JSONL record per id to ``path`` (the runtime's stream format)."""
    append_trajectories(path, [make_trajectory(i) for i in trajectory_ids])


def id_encode(batch) -> np.ndarray:
    """Per-trajectory deterministic embedding — batching cannot change it."""
    return np.array(
        [[len(t), t.trajectory_id % 7, (t.trajectory_id * 13) % 11] for t in batch],
        dtype=np.float32,
    )


def batch_sensitive_encode(batch) -> np.ndarray:
    """Mean-centered :func:`id_encode`: every row depends on its batch-mates.

    The adversarial encoder of the crash-restart tests: replaying records in
    different groups than the original run produces *different bits*, so
    bit-identical results prove the deterministic-grouping contract.
    """
    vectors = id_encode(batch)
    return (vectors - vectors.mean(axis=0, keepdims=True)).astype(np.float32)


# ---------------------------------------------------------------------- #
# Engines and runtimes
# ---------------------------------------------------------------------- #
def make_engine(encoder=id_encode, backend: str = "bruteforce", **overrides) -> Engine:
    config = dict(SMALL_GEOMETRY)
    config.update(overrides)
    return Engine(encoder, EngineConfig(backend=backend, **config))


def seed_engine(engine: Engine, rows: int, *, first_id: int = 1000) -> list[int]:
    """Ingest ``rows`` deterministic trajectories; returns their trajectory ids."""
    ids = list(range(first_id, first_id + rows))
    engine.ingest([make_trajectory(i) for i in ids])
    return ids


def make_runtime(
    engine: Engine | None = None,
    *,
    hooks: ServerHooks | None = None,
    clock=None,
    **config_overrides,
) -> ServingRuntime:
    """A small-knob runtime (2 workers, batch 4) over a seeded engine."""
    if engine is None:
        engine = make_engine()
        seed_engine(engine, 24)
    defaults = dict(max_batch=4, linger=0.01, num_workers=2, ingest_group_size=4)
    defaults.update(config_overrides)
    return ServingRuntime(engine, ServerConfig(**defaults), hooks=hooks, clock=clock)


def probe_queries(count: int = 6, *, seed: int = 7) -> np.ndarray:
    """Deterministic query vectors in the kit's embedding space."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, DIM)).astype(np.float32)


# ---------------------------------------------------------------------- #
# Hooks: recording and fault injection
# ---------------------------------------------------------------------- #
class HookRecorder(ServerHooks):
    """Thread-safe log of every runtime hook invocation.

    Events are ``(kind, payload)`` tuples in arrival order; :meth:`of`
    filters one kind.  Safe to read while the runtime is live.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[tuple[str, dict]] = []

    def _record(self, kind: str, **payload) -> None:
        with self._lock:
            self._events.append((kind, payload))

    @property
    def events(self) -> list[tuple[str, dict]]:
        with self._lock:
            return list(self._events)

    def of(self, kind: str) -> list[dict]:
        return [payload for event_kind, payload in self.events if event_kind == kind]

    def on_batch_start(self, worker_id, batch_size, generation) -> None:
        self._record(
            "batch_start", worker_id=worker_id, batch_size=batch_size, generation=generation
        )

    def on_batch_done(self, worker_id, batch_size, generation) -> None:
        self._record(
            "batch_done", worker_id=worker_id, batch_size=batch_size, generation=generation
        )

    def on_publish(self, generation, rows) -> None:
        self._record("publish", generation=generation, rows=rows)

    def on_checkpoint(self, path, generation) -> None:
        self._record("checkpoint", path=path, generation=generation)

    def on_worker_exit(self, worker_id, reason) -> None:
        self._record("worker_exit", worker_id=worker_id, reason=reason)


class FaultInjector(HookRecorder):
    """A :class:`HookRecorder` that can kill workers at batch boundaries.

    :meth:`arm_kill` schedules the next ``count`` batch starts to raise
    :class:`~repro.server.KillWorker` — each armed fault fires exactly once,
    so a test arms precisely the crashes it wants and nothing re-fires
    later.  The runtime re-enqueues the killed worker's batch, making the
    fault invisible to callers (which is exactly what tests assert).
    """

    def __init__(self) -> None:
        super().__init__()
        self._kills_remaining = 0

    def arm_kill(self, count: int = 1) -> None:
        with self._lock:
            self._kills_remaining += count

    def on_batch_start(self, worker_id, batch_size, generation) -> None:
        super().on_batch_start(worker_id, batch_size, generation)
        with self._lock:
            fire = self._kills_remaining > 0
            if fire:
                self._kills_remaining -= 1
        if fire:
            raise KillWorker(f"armed fault: killing worker {worker_id}")


class BatchGate(HookRecorder):
    """A :class:`HookRecorder` that holds the next batch at its start.

    The first ``on_batch_start`` blocks until :meth:`release`; :attr:`holding`
    is set once a worker is parked there, so a test can publish new
    generations while that batch waits on the generation it already read.
    A hold never outlives a minute (the batch then fails), so a test that
    forgets to release cannot hang its worker forever.
    """

    def __init__(self) -> None:
        super().__init__()
        self.holding = threading.Event()
        self._released = threading.Event()
        self._armed = True

    def release(self) -> None:
        self._released.set()

    def on_batch_start(self, worker_id, batch_size, generation) -> None:
        super().on_batch_start(worker_id, batch_size, generation)
        with self._lock:
            hold, self._armed = self._armed, False
        if hold:
            self.holding.set()
            if not self._released.wait(timeout=60):
                raise TimeoutError("the held batch was never released")


class FlakyEncoder:
    """Wraps an encoder; any batch containing a poisoned trajectory id fails.

    Used to fail *one request's* encode inside a multi-request batch: the
    runtime encodes per request, so only the poisoned caller sees the error.
    """

    def __init__(self, base=id_encode, poison_ids=()) -> None:
        self.base = base
        self.poison_ids = set(poison_ids)
        self.calls = 0

    def __call__(self, batch) -> np.ndarray:
        self.calls += 1
        for trajectory in batch:
            if trajectory.trajectory_id in self.poison_ids:
                raise RuntimeError(f"poisoned trajectory {trajectory.trajectory_id}")
        return self.base(batch)


# ---------------------------------------------------------------------- #
# Oracles
# ---------------------------------------------------------------------- #
def sequential_reference(engine: Engine, requests) -> list[QueryResponse]:
    """The ground truth: the same requests, one by one, through Engine.query."""
    return [engine.query(request) for request in requests]


def assert_responses_identical(actual: QueryResponse, expected: QueryResponse) -> None:
    """Array-bitwise equality — ids, distances (exact ulps) and source ids."""
    np.testing.assert_array_equal(actual.ids, expected.ids)
    assert actual.distances.tobytes() == expected.distances.tobytes(), (
        "distances differ at the bit level"
    )
    np.testing.assert_array_equal(actual.trajectory_ids, expected.trajectory_ids)


def engine_fingerprint(engine: Engine, probes: np.ndarray | None = None) -> tuple:
    """Reduce an engine's queryable state to a bit-comparable tuple."""
    if probes is None:
        probes = probe_queries()
    rows = len(engine)
    if rows == 0:
        return (0,)
    response = engine.query(QueryRequest(queries=probes, k=min(5, rows)))
    return (
        rows,
        response.ids.tobytes(),
        response.distances.tobytes(),
        response.trajectory_ids.tobytes(),
    )
