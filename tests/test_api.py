"""Tests for the `repro.api` facade: Engine, typed messages, backend registry.

Two layers of coverage:

* fast, model-free tests drive the engine with a deterministic fake encoder
  (backend equivalence, registry, cache, mutation, snapshot/restore);
* one full round trip drives a real tiny START model through
  config → train → encode → ingest waves → query → snapshot → restore.

The hypothesis property pins the PR 2 invariant at the facade level: the
``"chunked"`` and ``"sharded"`` backends are **bit-identical** (ids and
distances) whenever ``shard_capacity`` is a multiple of
``database_chunk_size``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    EncodeRequest,
    Engine,
    EngineConfig,
    IngestBatch,
    QueryHit,
    QueryRequest,
    UnsupportedOperation,
    available_backends,
    create_backend,
    register_backend,
    unregister_backend,
)
from repro.api.engine import _snapshot_segments
from backend_conformance import append_only_backend
from repro.core import STARTModel, tiny_config
from repro.roadnet import CityConfig, generate_city
from repro.streaming.reader import TrajectoryStreamReader
from repro.trajectory import (
    CongestionModel,
    DemandConfig,
    Trajectory,
    TrajectoryDataset,
    TrajectoryGenerator,
    append_trajectories,
)

#: A snapshot written by the retired pre-facade ``IngestService.snapshot``
#: (see ``test_restore_reads_ingest_service_snapshots`` for its recipe).
LEGACY_SNAPSHOT = Path(__file__).parent / "data" / "ingest_service_snapshot"
#: Every snapshot segment's JSON metadata entry; part of the on-disk format.
SEGMENT_META_KEY = "__embedding_store_meta__"


@dataclass
class FakeTrajectory:
    """Minimal stand-in: only ``__len__`` and ``trajectory_id`` are used."""

    length: int
    trajectory_id: int

    def __len__(self) -> int:
        return self.length


def linear_encode(batch: list[FakeTrajectory]) -> np.ndarray:
    """Deterministic per-trajectory embedding (independent of batching)."""
    return np.array(
        [[t.length, t.trajectory_id % 7, t.trajectory_id % 3] for t in batch],
        dtype=np.float32,
    )


def fake_corpus(count: int, start: int = 0) -> list[FakeTrajectory]:
    return [FakeTrajectory(length=3 + (i % 11), trajectory_id=100 + i) for i in range(start, start + count)]


def legacy_encode(batch) -> np.ndarray:
    """The encoder the checked-in ``IngestService`` snapshot was built with."""
    return np.array(
        [
            [
                (t.trajectory_id * 37) % 17,
                (t.trajectory_id * 13) % 11,
                t.length,
                0.5 * (t.trajectory_id % 3),
            ]
            for t in batch
        ],
        dtype=np.float32,
    )


def stream_trajectory(trajectory_id: int) -> Trajectory:
    length = 3 + trajectory_id % 5
    return Trajectory(
        roads=list(range(length)),
        timestamps=[float(1000 + 10 * i) for i in range(length)],
        trajectory_id=trajectory_id,
    )


@pytest.fixture(scope="module")
def dataset():
    network = generate_city(CityConfig(grid_rows=5, grid_cols=5, seed=3))
    config = DemandConfig(num_drivers=6, num_days=8, trips_per_driver_per_day=2.0, seed=3)
    generator = TrajectoryGenerator(network, CongestionModel(network), config)
    result = generator.generate(num_trajectories=90)
    ds = TrajectoryDataset(network, result.trajectories, name="api-test")
    ds.chronological_split()
    return ds


class TestBackendRegistry:
    def test_builtins_registered(self):
        assert {"bruteforce", "chunked", "sharded"} <= set(available_backends())

    def test_unknown_backend_raises_with_choices(self):
        with pytest.raises(ValueError, match="unknown index backend 'annoy'"):
            create_backend("annoy")

    def test_register_and_unregister_custom_backend(self):
        calls = {}

        @register_backend("test-custom")
        def factory(**kwargs):
            calls.update(kwargs)
            return create_backend("sharded", **kwargs)

        try:
            backend = create_backend("test-custom", shard_capacity=7)
            assert calls["shard_capacity"] == 7
            backend.add(np.ones((3, 2), dtype=np.float32))
            assert len(backend) == 3
            with pytest.raises(ValueError, match="already registered"):
                register_backend("test-custom", factory)
        finally:
            unregister_backend("test-custom")
        assert "test-custom" not in available_backends()

    def test_engine_uses_config_backend_string(self):
        engine = Engine(linear_encode, EngineConfig(backend="bruteforce"))
        assert engine.backend.name == "bruteforce"


class TestEngineServing:
    def make_engine(self, backend: str = "sharded", **overrides) -> Engine:
        return Engine(linear_encode, EngineConfig(backend=backend, **overrides))

    def test_encode_matches_plain_encoder_row_order(self):
        engine = self.make_engine()
        corpus = fake_corpus(37)
        vectors = engine.encode(EncodeRequest(trajectories=corpus, batch_size=8))
        np.testing.assert_array_equal(vectors, linear_encode(corpus))
        assert vectors.dtype == np.float32
        assert not vectors.flags.writeable

    def test_encode_batches_walk_the_length_order(self):
        """Each batch pads to its own longest member."""
        corpus = fake_corpus(37)
        seen: list[list[int]] = []

        def recording_encode(batch):
            seen.append([len(t) for t in batch])
            return linear_encode(batch)

        Engine(recording_encode).encode(EncodeRequest(trajectories=corpus, batch_size=8))
        lengths = [length for batch in seen for length in batch]
        assert [len(batch) for batch in seen] == [8, 8, 8, 8, 5]
        assert lengths == sorted(len(t) for t in corpus)

    def test_encode_rejects_an_encoder_returning_the_wrong_row_count(self):
        short = Engine(lambda batch: linear_encode(batch[:1]))
        with pytest.raises(ValueError, match="encoder returned 1 rows for a batch of 2"):
            short.encode(fake_corpus(2))

    def test_ingest_assigns_insertion_order_ids(self):
        engine = self.make_engine()
        first = engine.ingest(fake_corpus(10))
        second = engine.ingest(IngestBatch(trajectories=fake_corpus(5, start=10)))
        np.testing.assert_array_equal(first, np.arange(10))
        np.testing.assert_array_equal(second, np.arange(10, 15))
        assert len(engine) == 15

    def test_query_maps_trajectory_ids(self):
        engine = self.make_engine()
        corpus = fake_corpus(20)
        engine.ingest(corpus)
        response = engine.query(QueryRequest(queries=corpus[:4], k=1))
        # Identical feature rows exist (lengths repeat mod 11); the nearest
        # hit must at least share the query's features, and the reported
        # trajectory id must belong to the matched row.
        assert response.ids.shape == (4, 1)
        for row, hits in enumerate(response.hits):
            assert isinstance(hits[0], QueryHit)
            matched = corpus[int(response.ids[row, 0])]
            assert hits[0].trajectory_id == matched.trajectory_id

    def test_query_response_arrays_frozen_and_cached(self):
        engine = self.make_engine()
        engine.ingest(fake_corpus(12))
        queries = linear_encode(fake_corpus(3))
        first = engine.query(QueryRequest(queries=queries, k=2))
        again = engine.query(QueryRequest(queries=queries, k=2))
        assert again is first  # served from the generation-keyed cache
        assert engine.cache_stats["hits"] == 1
        assert engine.query(QueryRequest(queries=queries, k=1)) is not first  # k is keyed too
        with pytest.raises(ValueError):
            first.ids[0, 0] = 99
        # Mutation bumps the generation: the cache entry can never be reused.
        engine.ingest(fake_corpus(1, start=50))
        assert engine.query(QueryRequest(queries=queries, k=2)) is not first

    def test_query_k_alongside_request_rejected(self):
        engine = self.make_engine()
        engine.ingest(fake_corpus(5))
        with pytest.raises(ValueError, match="inside the QueryRequest"):
            engine.query(QueryRequest(queries=linear_encode(fake_corpus(1))), k=3)

    def test_remove_and_compact_on_sharded(self):
        engine = self.make_engine(shard_capacity=8)
        ids = engine.ingest(fake_corpus(20))
        assert engine.remove(ids[:5]) == 5
        assert len(engine) == 15
        assert engine.compact()
        assert len(engine) == 15
        response = engine.query(QueryRequest(queries=linear_encode(fake_corpus(2)), k=20))
        assert not np.isin(ids[:5], response.ids).any()

    def test_remove_unsupported_on_append_only_backends(self):
        with append_only_backend() as backend:
            engine = self.make_engine(backend)
            ids = engine.ingest(fake_corpus(4))
            with pytest.raises(UnsupportedOperation, match="append-only"):
                engine.remove(ids[:1])
            assert engine.compact() is False
            assert len(engine) == 4

    def test_ranks_of_matches_bruteforce_reference(self, rng):
        vectors = rng.standard_normal((80, 6)).astype(np.float32)
        queries = rng.standard_normal((9, 6)).astype(np.float32)
        truth = rng.integers(0, 80, size=9)
        engines = {}
        for backend in ("sharded", "chunked", "bruteforce"):
            engine = self.make_engine(backend, shard_capacity=32, database_chunk_size=16)
            engine.ingest_vectors(vectors)
            engines[backend] = engine.ranks_of(queries, truth)
        np.testing.assert_array_equal(engines["sharded"], engines["bruteforce"])
        np.testing.assert_array_equal(engines["chunked"], engines["bruteforce"])

    def test_snapshot_restore_bit_identical_with_tombstones(self, rng, tmp_path):
        engine = self.make_engine(shard_capacity=16, database_chunk_size=8)
        vectors = rng.standard_normal((40, 5)).astype(np.float32)
        ids = engine.ingest_vectors(vectors, trajectory_ids=range(1000, 1040))
        engine.remove(ids[7:12])
        info = engine.snapshot(tmp_path / "snap")
        assert info.backend == "sharded"
        assert info.rows == 35
        restored = Engine.restore(tmp_path / "snap", linear_encode)
        queries = rng.standard_normal((6, 5)).astype(np.float32)
        original = engine.query(QueryRequest(queries=queries, k=10))
        replica = restored.query(QueryRequest(queries=queries, k=10))
        np.testing.assert_array_equal(original.ids, replica.ids)
        np.testing.assert_array_equal(original.distances, replica.distances)
        np.testing.assert_array_equal(original.trajectory_ids, replica.trajectory_ids)
        # Fresh ids continue after the snapshot's next_id, never reused.
        new_ids = restored.ingest_vectors(rng.standard_normal((2, 5)).astype(np.float32))
        assert new_ids.min() >= 40

    def test_snapshot_restore_round_trips_an_empty_index(self, tmp_path):
        info = self.make_engine().snapshot(tmp_path / "empty")
        assert (info.rows, info.segments) == (0, 0)
        restored = Engine.restore(info.path, linear_encode)
        assert len(restored) == 0 and restored.backend.next_id == 0
        np.testing.assert_array_equal(restored.ingest(fake_corpus(3)), np.arange(3))

    def test_ingest_without_trajectory_ids_defaults_to_row_ids(self):
        """Objects lacking a trajectory_id must not collide across waves."""

        @dataclass
        class Anonymous:
            length: int

            def __len__(self) -> int:
                return self.length

        def encode(batch):
            return np.array([[t.length, 1.0] for t in batch], dtype=np.float32)

        engine = Engine(encode, EngineConfig(backend="sharded"))
        engine.ingest([Anonymous(3), Anonymous(4)])
        engine.ingest([Anonymous(5), Anonymous(6)])
        # Each row maps to its own (unique) global id, not its wave position.
        np.testing.assert_array_equal(
            engine.trajectory_ids(np.arange(4)), np.arange(4)
        )

    def test_restore_tombstoned_snapshot_into_append_only_backend(self, rng, tmp_path):
        """A cross-backend restore filters dead rows instead of crashing."""
        sharded = self.make_engine(shard_capacity=8)
        ids = sharded.ingest_vectors(rng.standard_normal((20, 4)).astype(np.float32))
        sharded.remove(ids[3:7])
        sharded.snapshot(tmp_path / "snap")
        with append_only_backend() as backend:
            append_only = Engine.restore(
                tmp_path / "snap", linear_encode, config=EngineConfig(backend=backend)
            )
        assert len(append_only) == 16
        queries = rng.standard_normal((3, 4)).astype(np.float32)
        response = append_only.query(QueryRequest(queries=queries, k=16))
        assert not np.isin(ids[3:7], response.ids).any()
        expected = sharded.query(QueryRequest(queries=queries, k=16))
        np.testing.assert_array_equal(response.ids, expected.ids)

    def test_restore_maps_only_trajectory_ids_that_differ_from_row_ids(self, rng, tmp_path):
        """trajectory_ids() defaults to the row id, so a replica stores no
        entry for rows ingested without one — like the primary."""
        plain = self.make_engine(shard_capacity=8)
        plain.ingest_vectors(rng.standard_normal((20, 4)).astype(np.float32))
        restored = Engine.restore(plain.snapshot(tmp_path / "plain").path, linear_encode)
        assert restored._trajectory_ids == {}
        np.testing.assert_array_equal(restored.trajectory_ids(np.arange(20)), np.arange(20))
        # Identity, explicit and defaulted ids mixed, plus one tombstone.
        mixed = self.make_engine(shard_capacity=4)
        mixed.ingest_vectors(
            rng.standard_normal((6, 4)).astype(np.float32),
            trajectory_ids=[0, 1, 700, None, 4, 900],
        )
        mixed.remove([5])
        replica = Engine.restore(mixed.snapshot(tmp_path / "mixed").path, linear_encode)
        np.testing.assert_array_equal(replica.trajectory_ids(np.arange(5)), [0, 1, 700, 3, 4])
        assert replica._trajectory_ids == {2: 700}
        # The primary stores the same map, so a live replica copies only it.
        assert mixed._trajectory_ids == {2: 700}
        assert mixed.replicate()._trajectory_ids == {2: 700}

    def test_restore_rejects_non_snapshot_and_newer_formats(self, tmp_path):
        with pytest.raises(ValueError, match="not an Engine snapshot"):
            Engine.restore(tmp_path, linear_encode)

    def test_snapshot_segment_files_round_trip(self, tmp_path):
        """One npz per segment: ``vectors``, ``ids`` and a JSON metadata entry.
        Reading gives float32/int64 arrays whatever dtypes the file holds, the
        dead rows, and the alive rows' trajectory ids that differ from the
        row id."""
        engine = self.make_engine(shard_capacity=4)
        ids = engine.ingest_vectors(
            np.arange(18, dtype=np.float32).reshape(6, 3),
            trajectory_ids=[None, 1, 700, None, 4, 900],
        )
        engine.remove(ids[[1, 5]])
        directory = engine.snapshot(tmp_path / "snap").path
        names = json.loads((directory / "manifest.json").read_text())["segments"]
        assert names == ["segment_00000.npz", "segment_00001.npz"]
        with np.load(directory / names[0]) as archive:
            assert sorted(archive.files) == [SEGMENT_META_KEY, "ids", "vectors"]
            arrays = {key: archive[key] for key in archive.files}
        assert json.loads(arrays[SEGMENT_META_KEY].tobytes().decode()) == {
            "format_version": 1,
            "count": 4,
            "dim": 3,
            "metadata": {"deleted_ids": [1], "trajectory_ids": [0, 1, 700, 3]},
        }
        arrays["vectors"] = arrays["vectors"].astype(np.float64)
        arrays["ids"] = arrays["ids"].astype(np.int32)
        np.savez(directory / names[0], **arrays)

        trajectory_ids: dict[int, int] = {}
        segments = list(_snapshot_segments(directory, names, trajectory_ids))
        assert [vectors.dtype for vectors, _, _ in segments] == [np.float32, np.float32]
        assert [ids.dtype for _, ids, _ in segments] == [np.int64, np.int64]
        np.testing.assert_array_equal(
            np.concatenate([vectors for vectors, _, _ in segments]),
            np.arange(18, dtype=np.float32).reshape(6, 3),
        )
        np.testing.assert_array_equal(np.concatenate([ids for _, ids, _ in segments]), ids)
        assert [dead.tolist() for _, _, dead in segments] == [
            [False, True, False, False],
            [False, True],
        ]
        assert trajectory_ids == {2: 700}

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"format_version": 2}, "segment format v2"),
            ({"count": 99}, "metadata does not match its arrays"),
            ({"dim": 4}, "metadata does not match its arrays"),
            (None, "not a snapshot segment"),
        ],
        ids=["newer-format", "count", "dim", "no-metadata"],
    )
    def test_restore_rejects_a_tampered_segment(self, tmp_path, changes, message):
        """Each segment file carries its own metadata entry, checked on read."""
        engine = self.make_engine()
        engine.ingest(fake_corpus(3))
        segment = engine.snapshot(tmp_path / "snap").path / "segment_00000.npz"
        with np.load(segment) as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = json.loads(arrays.pop(SEGMENT_META_KEY).tobytes().decode())
        if changes is not None:
            blob = json.dumps({**meta, **changes}).encode()
            arrays[SEGMENT_META_KEY] = np.frombuffer(blob, dtype=np.uint8)
        np.savez(segment, **arrays)
        with pytest.raises(ValueError, match=message):
            Engine.restore(segment.parent, linear_encode)

    @pytest.mark.parametrize("target", ["chunked", "append-only"])
    def test_live_restore_under_another_config_replays_the_source(self, rng, target):
        """A live source restored into another backend is replayed row by row:
        the same answers bit for bit, trajectory ids and ``next_id``, and
        nothing the source does afterwards reaches the restored engine.  The
        ``chunked`` target keeps the tombstones at aligned geometry; the
        append-only one drops the dead rows."""
        geometry = dict(shard_capacity=8, query_chunk_size=4, database_chunk_size=4)
        source = self.make_engine(**geometry)
        ids = source.ingest_vectors(
            rng.standard_normal((30, 5)).astype(np.float32),
            trajectory_ids=[None if i % 3 == 0 else 1000 + i for i in range(30)],
        )
        source.remove(ids[[2, 9, 10, 17]])
        queries = rng.standard_normal((6, 5)).astype(np.float32)
        expected = source.query(QueryRequest(queries=queries, k=len(source)))
        with append_only_backend() as append_only:
            backend = append_only if target == "append-only" else target
            restored = Engine.restore(
                source, linear_encode, config=EngineConfig(backend=backend, **geometry)
            )
        assert restored.backend.name == backend and len(restored) == len(source) == 26
        assert restored.backend.next_id == source.backend.next_id == 30
        assert restored._trajectory_ids == source._trajectory_ids

        def assert_answers_expected():
            result = restored.backend.top_k(queries, len(restored))
            np.testing.assert_array_equal(result.indices, expected.ids)
            assert result.distances.tobytes() == expected.distances.tobytes()
            np.testing.assert_array_equal(
                restored.trajectory_ids(result.indices), expected.trajectory_ids
            )

        assert_answers_expected()
        source.ingest_vectors(
            rng.standard_normal((12, 5)).astype(np.float32), trajectory_ids=range(12)
        )
        source.remove(ids[[0, 1, 4, 5]])
        assert source.compact()
        assert_answers_expected()
        assert restored.backend.next_id == 30

    def test_drain_encodes_each_record_once_and_never_touches_full_segments(self, tmp_path):
        encoded: list[int] = []

        def counting_encode(batch):
            encoded.extend(t.trajectory_id for t in batch)
            return np.array(
                [[len(t), t.trajectory_id % 7, (t.trajectory_id * 13) % 11] for t in batch],
                dtype=np.float32,
            )

        path = tmp_path / "arrivals.jsonl"
        reader = TrajectoryStreamReader(path)
        engine = Engine(
            counting_encode,
            EngineConfig(backend="sharded", shard_capacity=4, database_chunk_size=2),
        )
        append_trajectories(path, [stream_trajectory(300 + i) for i in range(10)])
        first = engine.drain(reader)
        full = [(vectors, ids) for vectors, ids, _ in engine.backend.segments() if len(ids) == 4]
        assert len(full) == 2
        before = [(vectors.tobytes(), ids.tobytes()) for vectors, ids in full]

        append_trajectories(path, [stream_trajectory(300 + i) for i in range(10, 16)])
        second = engine.drain(reader)
        assert engine.drain(reader).size == 0  # nothing appended since
        assert (len(first), len(second), len(engine)) == (10, 6, 16)
        assert sorted(encoded) == list(range(300, 316))  # once each, never re-encoded
        # Wave 2 filled the open segment and opened new ones; the segments
        # wave 1 filled are the same memory, bit for bit.
        after = list(engine.backend.segments())
        for (vectors, ids), (vector_bytes, id_bytes), (now_vectors, now_ids, _) in zip(
            full, before, after
        ):
            assert np.shares_memory(now_vectors, vectors) and np.shares_memory(now_ids, ids)
            assert (now_vectors.tobytes(), now_ids.tobytes()) == (vector_bytes, id_bytes)
        np.testing.assert_array_equal(
            engine.trajectory_ids(np.concatenate([first, second])), np.arange(300, 316)
        )

    def test_drain_steps_over_a_corrupt_line(self, tmp_path):
        """The records around a corrupt line are ingested once, the line is
        stepped over, and the next drain reads on after it."""
        path = tmp_path / "arrivals.jsonl"
        append_trajectories(path, [stream_trajectory(300), stream_trajectory(301)])
        with open(path, "a") as handle:
            handle.write("{not json\n")
        append_trajectories(path, [stream_trajectory(302), stream_trajectory(303)])
        reader = TrajectoryStreamReader(path)
        engine = Engine(
            lambda batch: np.array([[t.trajectory_id, len(t)] for t in batch], dtype=np.float32)
        )
        rows = engine.drain(reader)
        np.testing.assert_array_equal(engine.trajectory_ids(rows), [300, 301, 302, 303])
        assert (reader.records_read, reader.line_number) == (4, 5)
        assert reader.offset == path.stat().st_size
        assert engine.drain(reader).size == 0
        assert len(engine) == 4

    def test_ingest_service_snapshot_migrates_to_the_engine_format(self, rng, tmp_path):
        """One restore + snapshot turns a legacy layout into an Engine one.

        The legacy manifest's user ``metadata`` block is dropped on the way:
        Engine snapshots have no such field.
        """
        legacy = json.loads((LEGACY_SNAPSHOT / "manifest.json").read_text())
        assert legacy["metadata"] == {"model": "legacy-fixture"}
        restored = Engine.restore(LEGACY_SNAPSHOT, legacy_encode)
        info = restored.snapshot(tmp_path / "migrated")
        manifest = json.loads((info.path / "manifest.json").read_text())
        assert manifest["backend"] == "sharded" and "shards" not in manifest
        assert "metadata" not in manifest
        assert "legacy-fixture" not in (info.path / "manifest.json").read_text()
        assert (info.backend, info.rows, info.segments) == ("sharded", 5, 2)
        again = Engine.restore(info.path, legacy_encode)
        assert again.config == restored.config
        assert again.backend.next_id == restored.backend.next_id == 7
        queries = (rng.standard_normal((4, 4)) * 6).astype(np.float32)
        expected = restored.query(QueryRequest(queries=queries, k=5))
        actual = again.query(QueryRequest(queries=queries, k=5))
        np.testing.assert_array_equal(actual.ids, expected.ids)
        assert actual.distances.tobytes() == expected.distances.tobytes()
        np.testing.assert_array_equal(actual.trajectory_ids, expected.trajectory_ids)

    def test_restore_reads_ingest_service_snapshots(self, rng, tmp_path):
        """Snapshots of the retired ``IngestService`` restore in one call.

        The fixture was written by ``IngestService.snapshot`` over a
        ``ShardedIndex(shard_capacity=4, query_chunk_size=2,
        database_chunk_size=2)``: seven trajectories (ids 500..506, lengths
        ``3 + i % 4``) encoded by :func:`legacy_encode`, row 6 removed and
        compacted away, then row 2 tombstoned — two shard files, one
        tombstone, ``next_id`` 7 and no ``backend`` or ``segments`` key.
        """
        restored = Engine.restore(LEGACY_SNAPSHOT, legacy_encode)
        config = restored.config
        assert config.backend == "sharded"
        geometry = (config.shard_capacity, config.query_chunk_size, config.database_chunk_size)
        assert geometry == (4, 2, 2)
        assert (restored.backend.num_shards, len(restored), restored.backend.next_id) == (2, 5, 7)
        np.testing.assert_array_equal(
            restored.trajectory_ids(np.array([0, 1, 3, 4, 5])), [500, 501, 503, 504, 505]
        )
        # A sharded engine fed the same rows the same way answers bit-identically.
        reference = Engine(
            legacy_encode,
            EngineConfig(
                backend="sharded", shard_capacity=4, query_chunk_size=2, database_chunk_size=2
            ),
        )
        reference.ingest([FakeTrajectory(3 + i % 4, trajectory_id=500 + i) for i in range(7)])
        reference.remove([6])
        assert reference.compact()
        reference.remove([2])
        queries = (rng.standard_normal((5, 4)) * 6).astype(np.float32)
        expected = reference.query(QueryRequest(queries=queries, k=6))
        actual = restored.query(QueryRequest(queries=queries, k=6))
        np.testing.assert_array_equal(actual.ids, expected.ids)
        assert actual.distances.tobytes() == expected.distances.tobytes()
        np.testing.assert_array_equal(actual.trajectory_ids, expected.trajectory_ids)
        assert actual.ids.shape == (5, 5) and 2 not in actual.ids
        # The tombstone is replayed, not dropped: its id stays taken until
        # compaction, and fresh rows continue after the recorded next_id.
        with pytest.raises(ValueError, match="tombstoned"):
            restored.backend.add(np.zeros((1, 4), dtype=np.float32), ids=np.array([2]))
        assert restored.ingest_vectors(np.zeros((1, 4), dtype=np.float32)).tolist() == [7]

        manifest = tmp_path / "bare" / "manifest.json"
        manifest.parent.mkdir()
        manifest.write_text('{"format_version": 1}')
        with pytest.raises(ValueError, match="not an Engine snapshot"):
            Engine.restore(manifest.parent, linear_encode)
        engine = self.make_engine()
        engine.ingest(fake_corpus(3))
        engine.snapshot(tmp_path / "snap")
        manifest = tmp_path / "snap" / "manifest.json"
        manifest.write_text(manifest.read_text().replace('"format_version": 1', '"format_version": 99'))
        with pytest.raises(ValueError, match="snapshot format v99"):
            Engine.restore(tmp_path / "snap", linear_encode)

    def test_engine_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(shard_capacity=0)
        with pytest.raises(ValueError):
            EngineConfig(database_chunk_size=0)
        with pytest.raises(ValueError):
            EngineConfig(encode_batch_size=0)


class TestBackendEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 120),
        num_queries=st.integers(1, 12),
        dim=st.integers(2, 10),
        chunk=st.sampled_from([4, 16, 64]),
        multiplier=st.integers(1, 4),
        k=st.integers(1, 12),
    )
    def test_chunked_and_sharded_bit_identical_at_aligned_geometry(
        self, seed, rows, num_queries, dim, chunk, multiplier, k
    ):
        """PR 2 invariant at the facade: shard_capacity % database_chunk == 0
        ⇒ the two backends return bit-identical QueryResponses."""
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((rows, dim)).astype(np.float32)
        queries = rng.standard_normal((num_queries, dim)).astype(np.float32)
        geometry = dict(shard_capacity=chunk * multiplier, database_chunk_size=chunk)
        chunked = Engine(linear_encode, EngineConfig(backend="chunked", **geometry))
        sharded = Engine(linear_encode, EngineConfig(backend="sharded", **geometry))
        chunked.ingest_vectors(vectors)
        sharded.ingest_vectors(vectors)
        a = chunked.query(QueryRequest(queries=queries, k=k))
        b = sharded.query(QueryRequest(queries=queries, k=k))
        np.testing.assert_array_equal(a.ids, b.ids)
        assert (a.distances == b.distances).all()  # bitwise, not allclose
        truth = rng.integers(0, rows, size=num_queries)
        np.testing.assert_array_equal(
            chunked.ranks_of(queries, truth), sharded.ranks_of(queries, truth)
        )


class TestEngineModelLifecycle:
    def test_full_round_trip_with_start(self, dataset, tmp_path):
        """config → train → encode → ingest waves → query → snapshot →
        restore → query again, all through the facade."""
        config = EngineConfig(
            start=tiny_config(pretrain_epochs=1, batch_size=16),
            backend="sharded",
            shard_capacity=16,
            database_chunk_size=8,
        )
        engine = Engine.from_dataset(dataset, config)
        assert isinstance(engine.model, STARTModel)
        history = engine.pretrain(dataset.train_trajectories(), epochs=1)
        assert history.epochs == 1

        test = dataset.test_trajectories()
        vectors = engine.encode(test)
        assert vectors.shape == (len(test), engine.model.config.d_model)

        # Two ingest waves: earlier rows are never re-encoded.
        split = len(test) // 2
        engine.ingest(test[:split])
        calls_after_first = engine.encode_calls
        engine.ingest(test[split:])
        assert engine.encode_calls > calls_after_first
        assert len(engine) == len(test)

        response = engine.query(QueryRequest(queries=test[:3], k=5))
        assert response.ids.shape == (3, 5)
        # Each query trajectory is itself in the database: its own row is the
        # top hit at ~zero distance (exact zero is not guaranteed — batch
        # composition shifts padding, which can move float32 results by ulps).
        np.testing.assert_array_equal(response.ids[:, 0], np.arange(3))
        assert response.distances[:, 0] == pytest.approx(0.0, abs=0.05)

        # The index survives without the model; queries are bit-identical.
        info = engine.snapshot(tmp_path / "index")
        assert info.rows == len(test)
        replica = Engine.restore(info.path, engine.model)
        query_vectors = engine.encode(test[:3])
        original = engine.query(QueryRequest(queries=query_vectors, k=5))
        restored = replica.query(QueryRequest(queries=query_vectors, k=5))
        np.testing.assert_array_equal(original.ids, restored.ids)
        assert (original.distances == restored.distances).all()

    def test_save_load_checkpoint_reproduces_encodings(self, dataset, tmp_path):
        config = EngineConfig(start=tiny_config(pretrain_epochs=1, batch_size=16))
        engine = Engine.from_dataset(dataset, config)
        engine.pretrain(dataset.train_trajectories()[:32], epochs=1)
        test = dataset.test_trajectories()[:8]
        before = engine.encode(test)
        path = engine.save(tmp_path / "start.npz")
        loaded = Engine.load(path, dataset)
        assert loaded.config.start == engine.model.config
        np.testing.assert_allclose(loaded.encode(test), before, rtol=1e-6, atol=1e-6)

    def test_load_requires_context_and_engine_checkpoint(self, dataset, tmp_path):
        config = EngineConfig(start=tiny_config(pretrain_epochs=1, batch_size=16))
        engine = Engine.from_dataset(dataset, config)
        path = engine.save(tmp_path / "start.npz")
        with pytest.raises(ValueError, match="dataset or a network"):
            Engine.load(path)

    def test_load_honours_saved_backend_choice(self, dataset, tmp_path):
        config = EngineConfig(
            start=tiny_config(pretrain_epochs=1, batch_size=16), backend="chunked"
        )
        engine = Engine.from_dataset(dataset, config)
        path = engine.save(tmp_path / "start.npz")
        assert Engine.load(path, dataset).config.backend == "chunked"
        override = Engine.load(path, dataset, config=EngineConfig(backend="bruteforce"))
        assert override.config.backend == "bruteforce"

    def test_load_explains_non_start_checkpoints(self, dataset, tmp_path):
        from repro.baselines import build_baseline

        baseline = build_baseline("Trembr", dataset.network, tiny_config())
        path = Engine(baseline).save(tmp_path / "trembr.npz")
        with pytest.raises(ValueError, match="cannot\\s+rebuild"):
            Engine.load(path, dataset)

    def test_from_dataset_model_sweeps_the_road_table_once(self, dataset, monkeypatch):
        """A fresh engine's model is in eval mode, so its road table is cached
        across encodes instead of re-running TPE-GAT for every batch."""
        from repro.core.tpe_gat import TPEGAT

        calls = []
        forward = TPEGAT.forward

        def counted(self, *args, **kwargs):
            calls.append(1)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(TPEGAT, "forward", counted)
        engine = Engine.from_dataset(dataset, EngineConfig(start=tiny_config(batch_size=16)))
        trips = (list(dataset.trajectories) * 2)[:130]  # three 64-trip batches per encode
        first = engine.encode(trips)
        second = engine.encode(trips)
        assert len(calls) == 1
        assert not engine.model.training
        assert first.tobytes() == second.tobytes()

    def test_pretrain_resets_index(self, dataset):
        config = EngineConfig(start=tiny_config(pretrain_epochs=1, batch_size=16))
        engine = Engine.from_dataset(dataset, config)
        engine.ingest(dataset.test_trajectories()[:6])
        assert len(engine) == 6
        engine.pretrain(dataset.train_trajectories()[:32], epochs=1)
        assert len(engine) == 0  # stale vectors dropped with the old weights

    def test_untrainable_encoder_raises(self):
        engine = Engine(linear_encode)
        with pytest.raises(TypeError, match="not trainable"):
            engine.pretrain([FakeTrajectory(3, 0), FakeTrajectory(4, 1)])
