"""Tests for the streaming layer: the JSONL tail reader and the sharded index.

The load-bearing contract is *bit-identity*: a :class:`ShardedIndex` whose
shard capacity is a multiple of its database chunk size must return exactly
the ids and distances of the monolithic :class:`SimilarityIndex` over the
same rows — verified here both on fixed configurations (the acceptance gate
across several shard counts) and as a hypothesis property.
"""

from __future__ import annotations

import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.index import SimilarityIndex
from repro.streaming.reader import TrajectoryStreamReader
from repro.streaming.shards import ShardedIndex
from repro.trajectory import Trajectory, append_trajectories


def make_trajectory(trajectory_id: int, length: int) -> Trajectory:
    return Trajectory(
        roads=list(range(length)),
        timestamps=[float(1000 + 10 * i) for i in range(length)],
        user_id=trajectory_id % 5,
        trajectory_id=trajectory_id,
    )


class TestTrajectoryStreamReader:
    def test_polls_pick_up_appends_incrementally(self, tmp_path):
        path = tmp_path / "arrivals.jsonl"
        reader = TrajectoryStreamReader(path)
        assert reader.poll() == []  # file does not exist yet

        append_trajectories(path, [make_trajectory(i, 4) for i in range(3)])
        first = reader.poll()
        assert [t.trajectory_id for t in first] == [0, 1, 2]

        append_trajectories(path, [make_trajectory(i, 4) for i in range(3, 5)])
        second = reader.poll()
        assert [t.trajectory_id for t in second] == [3, 4]
        assert reader.poll() == []
        assert reader.records_read == 5

    def test_partial_trailing_line_waits_for_newline(self, tmp_path):
        path = tmp_path / "arrivals.jsonl"
        append_trajectories(path, [make_trajectory(0, 3)])
        reader = TrajectoryStreamReader(path)
        assert len(reader.poll()) == 1

        line = json.dumps({"roads": [1], "timestamps": [1.0], "user_id": 0,
                           "occupied": 0, "trajectory_id": 9})
        with open(path, "a") as handle:  # a producer mid-write
            handle.write(line[: len(line) // 2])
        assert reader.poll() == []
        with open(path, "a") as handle:
            handle.write(line[len(line) // 2 :] + "\n")
        assert [t.trajectory_id for t in reader.poll()] == [9]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "arrivals.jsonl"
        append_trajectories(path, [make_trajectory(0, 3)])
        with open(path, "a") as handle:
            handle.write("\n   \n")
        append_trajectories(path, [make_trajectory(1, 3)])
        reader = TrajectoryStreamReader(path)
        assert [t.trajectory_id for t in reader.poll()] == [0, 1]

    def test_corrupt_record_names_file_and_line(self, tmp_path):
        path = tmp_path / "arrivals.jsonl"
        append_trajectories(path, [make_trajectory(0, 3)])
        with open(path, "a") as handle:
            handle.write("{not json\n")
        reader = TrajectoryStreamReader(path)
        with pytest.raises(ValueError, match=r"line 2"):
            reader.poll()
        # The reader did not advance past the corrupt line: deterministic error.
        with pytest.raises(ValueError, match=r"line 2"):
            reader.poll()

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "arrivals.jsonl"
        append_trajectories(path, [make_trajectory(0, 3)])
        with open(path, "ab") as handle:
            handle.write(b"\xff\xfe not unicode\n")
        reader = TrajectoryStreamReader(path)
        with pytest.raises(ValueError, match=r"line 2"):
            reader.poll()

    def test_poll_quarantined_steps_over_corrupt_lines(self, tmp_path):
        path = tmp_path / "arrivals.jsonl"
        append_trajectories(path, [make_trajectory(i, 3) for i in range(2)])
        with open(path, "ab") as handle:
            handle.write(b"{not json\n\xff\xfe not unicode\n")
        append_trajectories(path, [make_trajectory(i, 3) for i in range(2, 5)])
        reader = TrajectoryStreamReader(path)
        records, skipped = reader.poll_quarantined(max_records=3)
        assert ([t.trajectory_id for t in records], skipped) == ([0, 1, 2], 2)
        assert (reader.records_read, reader.line_number) == (3, 5)
        records, skipped = reader.poll_quarantined()
        assert ([t.trajectory_id for t in records], skipped) == ([3, 4], 0)
        assert reader.poll_quarantined() == ([], 0)
        with pytest.raises(ValueError):
            reader.poll_quarantined(max_records=0)

    def test_max_records_and_iter(self, tmp_path):
        path = tmp_path / "arrivals.jsonl"
        append_trajectories(path, [make_trajectory(i, 3) for i in range(5)])
        reader = TrajectoryStreamReader(path)
        assert len(reader.poll(max_records=2)) == 2
        assert [t.trajectory_id for t in reader] == [2, 3, 4]
        with pytest.raises(ValueError):
            reader.poll(max_records=0)


class TestShardedIndexBitIdentity:
    """The acceptance gate: sharded == monolithic, bit for bit."""

    CHUNK = 16

    @pytest.mark.parametrize("k", [1, 5, 17])
    @pytest.mark.parametrize("capacity", [16, 48, 80, 256])  # 19, 7, 4, 2 shards
    def test_topk_bit_identical_across_shard_counts(self, rng, k, capacity):
        database = rng.standard_normal((300, 24)).astype(np.float32)
        queries = rng.standard_normal((40, 24)).astype(np.float32)
        mono = SimilarityIndex(database, database_chunk_size=self.CHUNK).topk(queries, k)
        sharded = ShardedIndex.from_vectors(
            database, shard_capacity=capacity, database_chunk_size=self.CHUNK
        )
        assert sharded.num_shards == -(-300 // capacity)
        result = sharded.top_k(queries, k)
        np.testing.assert_array_equal(result.indices, mono.indices)
        # Bitwise, not approximate: same float32 words.
        assert (
            result.distances.view(np.uint32) == mono.distances.view(np.uint32)
        ).all()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        rows=st.integers(5, 200),
        dim=st.integers(2, 48),
        k=st.integers(1, 12),
        chunk=st.integers(4, 64),
        capacity_multiple=st.integers(1, 6),
    )
    def test_topk_bit_identity_property(self, seed, rows, dim, k, chunk, capacity_multiple):
        rng = np.random.default_rng(seed)
        database = rng.standard_normal((rows, dim)).astype(np.float32)
        queries = rng.standard_normal((9, dim)).astype(np.float32)
        mono = SimilarityIndex(database, database_chunk_size=chunk).topk(queries, k)
        sharded = ShardedIndex.from_vectors(
            database,
            shard_capacity=chunk * capacity_multiple,
            database_chunk_size=chunk,
        )
        result = sharded.top_k(queries, k)
        np.testing.assert_array_equal(result.indices, mono.indices)
        assert (
            result.distances.view(np.uint32) == mono.distances.view(np.uint32)
        ).all()

    @pytest.mark.parametrize("k", [1, 10, 40])
    @pytest.mark.parametrize("capacity", [16, 64, 256])
    def test_topk_ids_identical_with_ties_straddling_k(self, rng, k, capacity):
        """Integer-valued rows make exact distance ties straddle k.  The one
        running top-k carried through the shards issues the monolithic
        index's chunk sequence, so even the boundary tie member agrees."""
        database = rng.integers(0, 4, size=(2000, 8)).astype(np.float32)
        queries = rng.integers(0, 4, size=(60, 8)).astype(np.float32)
        mono = SimilarityIndex(database, database_chunk_size=self.CHUNK).topk(queries, k)
        sharded = ShardedIndex.from_vectors(
            database, shard_capacity=capacity, database_chunk_size=self.CHUNK
        )
        result = sharded.top_k(queries, k)
        exact = ((queries[:, None, :] - database[None, :, :]) ** 2).sum(axis=2)
        kth = np.sort(exact, axis=1)[:, k - 1 : k]
        assert ((exact <= kth).sum(axis=1) > k).mean() > 0.5  # ties straddle k
        np.testing.assert_array_equal(result.indices, mono.indices)
        assert result.distances.tobytes() == mono.distances.tobytes()

    def test_ranks_of_matches_monolithic(self, rng):
        database = rng.standard_normal((200, 12)).astype(np.float32)
        queries = rng.standard_normal((30, 12)).astype(np.float32)
        truth = rng.integers(0, 200, size=30)
        mono = SimilarityIndex(database, database_chunk_size=32).ranks_of(queries, truth)
        sharded = ShardedIndex.from_vectors(
            database, shard_capacity=64, database_chunk_size=32
        )
        np.testing.assert_array_equal(sharded.ranks_of(queries, truth), mono)


class TestShardedIndexMutation:
    def test_add_assigns_sequential_ids_and_seals_shards(self, rng):
        index = ShardedIndex(shard_capacity=10)
        first = index.add(rng.standard_normal((25, 4)).astype(np.float32))
        np.testing.assert_array_equal(first, np.arange(25))
        assert index.num_shards == 3
        assert [len(s) for s in index.shards] == [10, 10, 5]
        second = index.add(rng.standard_normal((7, 4)).astype(np.float32))
        np.testing.assert_array_equal(second, np.arange(25, 32))
        # appends fill the open shard before opening a new one
        assert [len(s) for s in index.shards] == [10, 10, 10, 2]

    def test_add_validates(self, rng):
        index = ShardedIndex(shard_capacity=10)
        index.add(rng.standard_normal((3, 4)).astype(np.float32))
        with pytest.raises(ValueError):
            index.add(rng.standard_normal((2, 5)).astype(np.float32))  # dim mismatch
        with pytest.raises(ValueError):
            index.add(rng.standard_normal((2, 4)).astype(np.float32), ids=np.array([0, 9]))
        with pytest.raises(ValueError):
            index.add(rng.standard_normal((2, 4)).astype(np.float32), ids=np.array([7, 7]))

    def test_remove_excludes_rows_and_clamps_k(self, rng):
        database = rng.standard_normal((40, 6)).astype(np.float32)
        index = ShardedIndex.from_vectors(database, shard_capacity=16)
        removed = index.remove(np.arange(0, 35))
        assert removed == 35
        assert len(index) == 5
        assert index.tombstone_count == 35
        result = index.top_k(rng.standard_normal((3, 6)).astype(np.float32), k=20)
        assert result.indices.shape == (3, 5)  # clamped to alive rows
        assert (result.indices >= 35).all()
        assert np.isfinite(result.distances).all()
        # idempotent: already-dead rows do not count again
        assert index.remove(np.arange(0, 35)) == 0

    def test_ranks_of_rejects_dead_truth(self, rng):
        index = ShardedIndex.from_vectors(rng.standard_normal((10, 4)).astype(np.float32))
        index.remove([3])
        with pytest.raises(ValueError, match="alive"):
            index.ranks_of(rng.standard_normal((1, 4)).astype(np.float32), np.array([3]))
        with pytest.raises(ValueError):
            index.ranks_of(rng.standard_normal((1, 4)).astype(np.float32), np.array([99]))

    def test_compact_reclaims_tombstones_and_preserves_answers(self, rng):
        database = rng.standard_normal((100, 8)).astype(np.float32)
        queries = rng.standard_normal((11, 8)).astype(np.float32)
        index = ShardedIndex.from_vectors(
            database, shard_capacity=16, database_chunk_size=16
        )
        index.remove(np.arange(0, 100, 2))  # half the rows
        before = index.top_k(queries, k=7)
        generation = index.generation
        assert index.compact() is True
        assert index.generation == generation + 1
        assert index.tombstone_count == 0
        assert index.num_shards == 4  # 50 survivors / 16
        after = index.top_k(queries, k=7)
        np.testing.assert_array_equal(after.indices, before.indices)
        np.testing.assert_array_equal(after.distances, before.distances)
        # survivors keep their ids; the freed memory is actually gone
        assert sum(len(s) for s in index.shards) == 50
        assert index.compact() is False  # nothing left to reclaim

    def test_compacted_index_matches_monolithic_on_survivors(self, rng):
        database = rng.standard_normal((90, 8)).astype(np.float32)
        queries = rng.standard_normal((9, 8)).astype(np.float32)
        index = ShardedIndex.from_vectors(
            database, shard_capacity=32, database_chunk_size=16
        )
        dead = rng.choice(90, size=30, replace=False)
        index.remove(dead)
        index.compact()
        survivors = np.setdiff1d(np.arange(90), dead)
        mono = SimilarityIndex(database[survivors], database_chunk_size=16).topk(queries, 5)
        result = index.top_k(queries, 5)
        # monolithic reports positions among survivors; the shards report ids
        np.testing.assert_array_equal(result.indices, survivors[mono.indices])
        assert (
            result.distances.view(np.uint32) == mono.distances.view(np.uint32)
        ).all()

    def test_empty_index_queries(self):
        index = ShardedIndex(dim=4)
        assert len(index) == 0
        result = index.top_k(np.zeros((3, 4), dtype=np.float32), k=5)
        assert result.indices.shape == (3, 0)
        with pytest.raises(ValueError):
            index.top_k(np.zeros((3, 4), dtype=np.float32), k=0)


class TestShardedIndexReplica:
    def test_shared_replica_holds_while_its_source_appends_in_place(self, rng):
        """Stress: more threads than cores query one fresh replica — top-k,
        ranks (the first call builds its lazy id map) and membership — while
        its source appends into the spare allocation of the tail segment they
        share, and tombstones each query's nearest row.  Every answer equals
        the one an untouched replica gave before the race."""
        database = rng.standard_normal((1100, 8)).astype(np.float32)
        truth = np.arange(6, dtype=np.int64) * 180 + 1
        queries = database[truth]  # each truth row is its query's nearest
        source = ShardedIndex.from_vectors(database, shard_capacity=1024, database_chunk_size=64)
        source.remove([5])  # replica scans consult their tombstone masks
        tail = source.shards[-1]
        assert len(tail) + 100 <= tail._vectors.shape[0]  # the appends land in place
        reference = source.replica()
        expected_top = reference.top_k(queries, 5)
        expected_ranks = reference.ranks_of(queries, truth)
        replica = source.replica()
        threads, rounds = 4, 50
        start = threading.Barrier(threads + 1)
        mismatches: list[str] = []

        def reader():
            start.wait(timeout=30)
            try:
                for _ in range(rounds):
                    if not np.array_equal(replica.ranks_of(queries, truth), expected_ranks):
                        mismatches.append("ranks_of")
                    if 1101 in replica or int(truth[0]) not in replica or len(replica) != 1099:
                        mismatches.append("membership")
                    top = replica.top_k(queries, 5)
                    if top.indices.tobytes() != expected_top.indices.tobytes() or (
                        top.distances.tobytes() != expected_top.distances.tobytes()
                    ):
                        mismatches.append("top_k")
            except Exception as error:  # a reader's failure must fail the test
                mismatches.append(repr(error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=reader) for _ in range(threads)]
            for worker in workers:
                worker.start()
            start.wait(timeout=30)
            for wave in range(20):
                source.add(rng.standard_normal((5, 8)).astype(np.float32))
                source.remove([int(truth[wave % 6]), 1100 + wave])
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert mismatches == []
        assert len(source) == 1100 + 100 - 1 - 6 - 20
