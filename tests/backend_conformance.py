"""The `IndexBackend` conformance test-kit.

This module is the executable contract a backend must honour to be a drop-in
behind the :class:`repro.api.Engine` facade (see "The IndexBackend registry"
in ``docs/ARCHITECTURE.md``).  ``tests/test_backend_conformance.py`` runs it
against **every** backend registered at collection time — the built-in exact
backends, the ANN backends, and any third-party registration that happened
before collection.  A third-party package can also import the suite directly
and parametrize it over its own backend name:

    from backend_conformance import IndexBackendConformanceSuite

    def pytest_generate_tests(metafunc):
        if "backend_name" in metafunc.fixturenames:
            metafunc.parametrize("backend_name", ["my-backend"])

    class TestMyBackend(IndexBackendConformanceSuite):
        pass

What the contract requires of everyone:

* ids are global, caller-echoed, never re-numbered; auto ids are sequential;
* ``top_k`` returns ``min(k, len(backend))`` columns, distances ascending
  with ties broken by id, each returned distance being the **true** Euclidean
  distance of the returned id (approximate backends may return different
  *ids* than the oracle, but never fabricated distances);
* ``k < 1`` raises ``ValueError``; empty/fully-tombstoned indexes answer
  zero-width results; ``ranks_of`` on an empty index raises ``ValueError``;
* ``ranks_of`` is exact for every backend (rank = 1 + rows sorting strictly
  before the truth by ``(distance, id)``) — approximation is only ever
  allowed in ``top_k`` recall;
* ``generation`` increases on every mutation (the engine's query cache keys
  on it), ``next_id`` only moves forward and survives snapshots;
* restore through the engine is **bit-stable**, from a snapshot directory
  or from the live engine: the replica answers queries bit-identically and
  shares no *mutable* state with its source (a live restore may read the
  source's stored rows in place, which are never rewritten), so growing,
  removing from or compacting the source never moves the replica;
* backends without removal support raise
  :class:`~repro.api.backends.UnsupportedOperation` from ``remove`` and
  return ``False`` from ``compact``.

Backends expose an optional ``is_exact`` attribute (default assumed
``True``): exact backends are additionally held to oracle-identical
neighbour ids; approximate ones to the faithfulness invariants above.

Every built-in backend supports removal, so the append-only branch of the
contract is exercised through :class:`AppendOnlyIndex`, registered only
inside :func:`append_only_backend` (``tests/test_append_only_backend.py``
runs the suite over it).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.api import (
    Engine,
    EngineConfig,
    QueryRequest,
    UnsupportedOperation,
    create_backend,
    register_backend,
    unregister_backend,
)
from repro.streaming.shards import ShardedIndex

#: Geometry small enough that a ~60-row corpus exercises chunk boundaries,
#: shard seals and multi-list probing.
SMALL_GEOMETRY = dict(shard_capacity=16, query_chunk_size=4, database_chunk_size=8)


#: Registry name of :class:`AppendOnlyIndex` while it is registered.
APPEND_ONLY = "append-only"


class AppendOnlyIndex(ShardedIndex):
    """A minimal append-only backend: the row store without removal."""

    name = APPEND_ONLY
    supports_removal = False

    def remove(self, ids) -> int:
        raise UnsupportedOperation(f"the '{self.name}' backend is append-only")

    def compact(self, *, min_tombstones: int = 1) -> bool:
        return False


@contextmanager
def append_only_backend():
    """Register :class:`AppendOnlyIndex` for the block; yields its name."""
    register_backend(APPEND_ONLY, AppendOnlyIndex)
    try:
        yield APPEND_ONLY
    finally:
        unregister_backend(APPEND_ONLY)


def _unused_encoder(batch):  # pragma: no cover - conformance never encodes
    raise AssertionError("conformance tests ingest vectors, never trajectories")


def make_backend(backend_name: str, **overrides):
    geometry = dict(SMALL_GEOMETRY)
    geometry.update(overrides)
    return create_backend(backend_name, **geometry)


def make_engine(backend_name: str, **config_overrides) -> Engine:
    return Engine(
        _unused_encoder,
        EngineConfig(backend=backend_name, **SMALL_GEOMETRY, **config_overrides),
    )


#: What ``Engine.restore`` rebuilds from: a snapshot directory or the live engine.
RESTORE_SOURCES = ("snapshot", "live")


def restore_from(engine: Engine, source: str, directory) -> Engine:
    """``Engine.restore`` of ``engine``, via a snapshot under ``directory`` or live."""
    if source == "live":
        return Engine.restore(engine, _unused_encoder)
    info = engine.snapshot(directory)
    assert info.backend == engine.config.backend
    return Engine.restore(info.path, _unused_encoder)


def is_exact(backend) -> bool:
    return bool(getattr(backend, "is_exact", True))


def oracle_on(vectors: np.ndarray, ids: np.ndarray | None = None):
    """The semantics oracle: a bruteforce backend over the same rows."""
    oracle = create_backend("bruteforce")
    oracle.add(vectors, ids=ids)
    return oracle


def exact_distances(queries: np.ndarray, vectors: np.ndarray, ids: np.ndarray) -> dict:
    """id -> exact distance column, for faithfulness checks (float64 ref)."""
    diffs = queries[:, None, :].astype(np.float64) - vectors[None, :, :].astype(np.float64)
    distances = np.sqrt((diffs**2).sum(axis=2))
    return {int(row_id): distances[:, col] for col, row_id in enumerate(ids)}


def assert_faithful(result, queries, vectors, ids, alive_ids):
    """The invariants every backend's top_k answer must satisfy."""
    reference = exact_distances(queries, vectors, ids)
    alive = set(int(i) for i in alive_ids)
    for row in range(result.indices.shape[0]):
        row_ids = result.indices[row]
        row_d = result.distances[row]
        # Ascending by (distance, id): the documented tie-break everywhere.
        order = np.lexsort((row_ids, row_d))
        assert np.array_equal(order, np.arange(len(row_ids)))
        assert len(set(int(i) for i in row_ids)) == len(row_ids), "duplicate id in one answer"
        for col, row_id in enumerate(row_ids):
            assert int(row_id) in alive, f"returned id {row_id} is not an alive row"
            np.testing.assert_allclose(
                row_d[col], reference[int(row_id)][row], rtol=1e-3, atol=1e-3,
                err_msg="returned distance is not the true distance of the returned id",
            )


class IndexBackendConformanceSuite:
    """Parametrize ``backend_name`` over the backends under test (see module
    docstring); every test then runs once per backend."""

    # Fixtures live on the class so they travel with the suite wherever it is
    # inherited, and are self-seeded so third-party test trees need no extra
    # conftest support.
    @pytest.fixture()
    def corpus(self):
        """A 60x6 duplicate-free random corpus (ties are measure-zero)."""
        return np.random.default_rng(101).standard_normal((60, 6)).astype(np.float32)

    @pytest.fixture()
    def dup_corpus(self, corpus):
        """The corpus with exact duplicate rows baked in.

        Kept separate from ``corpus``: when exact-equal distances straddle
        the k boundary, *either* tie member is a documented-correct answer
        (the chunked backend's partial selection may keep a different one
        than the stable oracle sort), so oracle-identity assertions use the
        duplicate-free corpus and duplicates get targeted tests where the
        tie sits strictly inside the top-k.
        """
        vectors = corpus.copy()
        vectors[17] = vectors[3]  # exact duplicate pair (3, 17)
        vectors[41] = vectors[20]  # and another (20, 41)
        return vectors

    @pytest.fixture()
    def queries(self):
        return np.random.default_rng(202).standard_normal((7, 6)).astype(np.float32)

    @pytest.fixture()
    def explicit_id_ties(self, corpus):
        """Rows ``[a, a, b]`` under ids ``[5, 3, 9]``: the exact tie's
        insertion order disagrees with its id order."""
        return corpus[[0, 0, 1]], np.array([5, 3, 9], dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Ids and the add contract
    # ------------------------------------------------------------------ #
    def test_add_assigns_sequential_ids(self, backend_name, corpus):
        backend = make_backend(backend_name)
        first = backend.add(corpus[:40])
        second = backend.add(corpus[40:])
        np.testing.assert_array_equal(first, np.arange(40))
        np.testing.assert_array_equal(second, np.arange(40, 60))
        assert len(backend) == 60
        assert backend.next_id == 60
        assert backend.dim == 6

    def test_explicit_ids_echoed_verbatim_in_results(self, backend_name, corpus, queries):
        backend = make_backend(backend_name)
        ids = np.arange(60, dtype=np.int64) * 7 + 1000  # sparse, non-contiguous
        returned = backend.add(corpus, ids=ids)
        np.testing.assert_array_equal(returned, ids)
        result = backend.top_k(queries, 5)
        assert set(int(i) for i in result.indices.ravel()) <= set(int(i) for i in ids)
        assert backend.next_id == int(ids.max()) + 1

    def test_duplicate_and_misshapen_ids_rejected(self, backend_name, corpus):
        backend = make_backend(backend_name)
        backend.add(corpus[:10], ids=np.arange(10))
        with pytest.raises(ValueError):
            backend.add(corpus[10:12], ids=np.array([3, 100]))  # 3 already present
        with pytest.raises(ValueError):
            backend.add(corpus[10:12], ids=np.array([18, 18]))  # not unique
        with pytest.raises(ValueError):
            backend.add(corpus[10:12], ids=np.arange(3))  # wrong length
        with pytest.raises(ValueError):
            backend.add(np.zeros((2, 9), dtype=np.float32))  # wrong dim
        # Several offenders in one batch: the error names the first one in
        # input order, whatever kind it is.
        batch = corpus[10:14]
        with pytest.raises(ValueError, match="row id 7 already present"):
            backend.add(batch, ids=np.array([20, 7, 3, 5]))
        alive = 10
        if backend.supports_removal:
            backend.remove([3, 4])
            alive = 8
            with pytest.raises(ValueError, match="row id 4 is tombstoned but still stored"):
                backend.add(batch, ids=np.array([21, 4, 8, 3]))
        # Rejected batches store nothing; a clean one still goes in.
        assert (len(backend), backend.next_id) == (alive, 10)
        np.testing.assert_array_equal(
            backend.add(batch, ids=np.array([30, 11, 12, 13])), [30, 11, 12, 13]
        )
        assert (len(backend), backend.next_id) == (alive + 4, 31)

    # ------------------------------------------------------------------ #
    # Query semantics
    # ------------------------------------------------------------------ #
    def test_top_k_is_faithful_and_exact_backends_match_oracle(
        self, backend_name, corpus, queries
    ):
        backend = make_backend(backend_name)
        backend.add(corpus)
        result = backend.top_k(queries, 5)
        assert result.indices.shape == (7, 5)
        assert result.indices.dtype == np.int64
        assert result.distances.dtype == np.float32
        assert_faithful(result, queries, corpus, np.arange(60), np.arange(60))
        if is_exact(backend):
            oracle = oracle_on(corpus)
            expected = oracle.top_k(queries, 5)
            np.testing.assert_array_equal(result.indices, expected.indices)
            np.testing.assert_allclose(result.distances, expected.distances, rtol=1e-5)

    def test_self_query_returns_self_first(self, backend_name, dup_corpus):
        backend = make_backend(backend_name)
        backend.add(dup_corpus)
        # Rows 3/17 and 20/41 are exact duplicates: the smaller id wins the
        # zero-distance tie.  k=2 keeps the tie strictly inside the top-k
        # (at k=1 the boundary splits the tie and either member is correct).
        probes = np.array([0, 5, 3, 17, 20, 41, 59])
        result = backend.top_k(dup_corpus[probes], 2)
        expected_first = np.array([0, 5, 3, 3, 20, 20, 59])
        np.testing.assert_array_equal(result.indices[:, 0], expected_first)
        # Float32 |q|^2+|d|^2-2qd cancellation: "zero" only up to ~1e-3 ulps.
        np.testing.assert_allclose(result.distances[:, 0], 0.0, atol=5e-3)

    def test_duplicate_vectors_tie_break_by_id(self, backend_name, dup_corpus, explicit_id_ties):
        """If both members of a duplicate pair are returned, the smaller id
        comes first at equal distance (the oracle's stable order)."""
        backend = make_backend(backend_name)
        backend.add(dup_corpus)
        result = backend.top_k(dup_corpus[[3]], 10)
        ids = [int(i) for i in result.indices[0]]
        assert ids[0] == 3 and ids[1] == 17  # both duplicates, id order
        assert result.distances[0, 0] == result.distances[0, 1]
        # By id, not by insertion row, when explicit ids disagree with it.
        vectors, explicit_ids = explicit_id_ties
        backend = make_backend(backend_name)
        backend.add(vectors, ids=explicit_ids)
        result = backend.top_k(vectors[[0]], 2)
        assert result.indices[0].tolist() == [3, 5]
        assert result.distances[0, 0] == result.distances[0, 1]

    def test_k_edge_cases(self, backend_name, corpus, queries):
        """k < 1 raises; k > corpus clamps to the corpus; k == corpus works."""
        backend = make_backend(backend_name)
        backend.add(corpus[:9])
        with pytest.raises(ValueError):
            backend.top_k(queries, 0)
        with pytest.raises(ValueError):
            backend.top_k(queries, -3)
        clamped = backend.top_k(queries, 1000)
        assert clamped.indices.shape == (7, 9)
        # k == corpus size probes everything: every backend is exact here.
        expected = oracle_on(corpus[:9]).top_k(queries, 9)
        np.testing.assert_array_equal(clamped.indices, expected.indices)
        np.testing.assert_allclose(clamped.distances, expected.distances, rtol=1e-5)

    def test_empty_index_and_empty_query_batch(self, backend_name, corpus, queries):
        backend = make_backend(backend_name)
        result = backend.top_k(queries, 5)
        assert result.indices.shape == (7, 0)
        assert result.distances.shape == (7, 0)
        with pytest.raises(ValueError):
            backend.ranks_of(queries, np.zeros(7, dtype=np.int64))
        backend.add(corpus)
        no_queries = backend.top_k(np.zeros((0, 6), dtype=np.float32), 5)
        assert no_queries.indices.shape == (0, 5)

    def test_ranks_of_is_exact_for_every_backend(
        self, backend_name, corpus, queries, explicit_id_ties
    ):
        backend = make_backend(backend_name)
        backend.add(corpus)
        truth = np.random.default_rng(303).integers(0, 60, size=7)
        oracle = oracle_on(corpus)
        np.testing.assert_array_equal(
            backend.ranks_of(queries, truth), oracle.ranks_of(queries, truth)
        )
        # Exact ties rank by id, whatever the insertion order.
        vectors, explicit_ids = explicit_id_ties
        backend = make_backend(backend_name)
        backend.add(vectors, ids=explicit_ids)
        probes, truth = vectors[[0, 0]], np.array([5, 3])
        ranks = backend.ranks_of(probes, truth)
        np.testing.assert_array_equal(ranks, [2, 1])
        np.testing.assert_array_equal(
            ranks, oracle_on(vectors, ids=explicit_ids).ranks_of(probes, truth)
        )

    def test_query_dimension_mismatch_raises(self, backend_name, corpus):
        backend = make_backend(backend_name)
        backend.add(corpus)
        with pytest.raises(ValueError):
            backend.top_k(np.zeros((2, 9), dtype=np.float32), 3)

    # ------------------------------------------------------------------ #
    # Mutation: remove / compact
    # ------------------------------------------------------------------ #
    def test_remove_and_compact_roundtrip(self, backend_name, corpus, queries):
        backend = make_backend(backend_name)
        ids = backend.add(corpus)
        if not backend.supports_removal:
            with pytest.raises(UnsupportedOperation):
                backend.remove(ids[:5])
            assert backend.compact() is False
            return
        generation = backend.generation
        assert backend.remove(ids[:20]) == 20
        assert backend.generation > generation
        assert len(backend) == 40
        assert backend.remove(ids[:3]) == 0  # already dead: not double-counted
        survivors = np.arange(20, 60)
        result = backend.top_k(queries, 8)
        assert not np.isin(ids[:20], result.indices).any()
        assert_faithful(result, queries, corpus, np.arange(60), survivors)
        if is_exact(backend):
            expected = oracle_on(corpus[20:], ids=survivors).top_k(queries, 8)
            np.testing.assert_array_equal(result.indices, expected.indices)
        assert backend.compact()
        assert len(backend) == 40
        compacted = backend.top_k(queries, 8)
        assert not np.isin(ids[:20], compacted.indices).any()
        assert_faithful(compacted, queries, corpus, np.arange(60), survivors)
        # Compaction must not reuse reclaimed ids.
        fresh = backend.add(corpus[:2])
        assert fresh.min() >= 60

    def test_tombstoned_id_cannot_be_readded_until_compact(self, backend_name, corpus):
        """Re-adding a tombstoned id would store two rows under one id and
        make the engine's snapshot unrestorable; after compact the row is
        physically gone and the id is usable again."""
        backend = make_backend(backend_name)
        ids = backend.add(corpus[:10])
        if not backend.supports_removal:
            pytest.skip(f"backend '{backend_name}' is append-only")
        backend.remove(ids[2:4])
        with pytest.raises(ValueError, match="tombstoned"):
            backend.add(corpus[10:12], ids=np.array([2, 3]))
        assert backend.compact()
        replacement = backend.add(corpus[10:12], ids=np.array([2, 3]))
        np.testing.assert_array_equal(replacement, [2, 3])
        assert len(backend) == 10

    def test_fully_tombstoned_index_answers_empty(self, backend_name, corpus, queries):
        backend = make_backend(backend_name)
        ids = backend.add(corpus[:10])
        if not backend.supports_removal:
            pytest.skip(f"backend '{backend_name}' is append-only")
        assert backend.remove(ids) == 10
        assert len(backend) == 0
        result = backend.top_k(queries, 5)
        assert result.indices.shape == (7, 0)

    # ------------------------------------------------------------------ #
    # Generation counter and the engine's query cache
    # ------------------------------------------------------------------ #
    def test_generation_invalidates_engine_query_cache(self, backend_name, corpus, queries):
        engine = make_engine(backend_name)
        engine.ingest_vectors(corpus[:30])
        request = QueryRequest(queries=queries, k=3)
        first = engine.query(request)
        assert engine.query(request) is first  # cache hit on identical state
        assert engine.cache_stats["hits"] == 1
        engine.ingest_vectors(corpus[30:])
        after_add = engine.query(request)
        assert after_add is not first  # add bumped the generation
        if engine.backend.supports_removal:
            engine.remove(np.arange(5))
            after_remove = engine.query(request)
            assert after_remove is not after_add  # remove bumped it too
            assert not np.isin(np.arange(5), after_remove.ids).any()

    # ------------------------------------------------------------------ #
    # Restore bit-stability, from a snapshot or from the live engine
    # ------------------------------------------------------------------ #
    @pytest.mark.parametrize("source", RESTORE_SOURCES)
    def test_snapshot_restore_is_bit_stable(self, backend_name, source, corpus, queries, tmp_path):
        engine = make_engine(backend_name)
        engine.ingest_vectors(corpus[:40], trajectory_ids=range(5000, 5040))
        engine.ingest_vectors(corpus[40:], trajectory_ids=range(5040, 5060))
        if engine.backend.supports_removal:
            engine.remove(np.arange(7, 19))
        replica = restore_from(engine, source, tmp_path / "snap")
        assert replica.backend.next_id == engine.backend.next_id
        original = engine.query(QueryRequest(queries=queries, k=10))
        restored = replica.query(QueryRequest(queries=queries, k=10))
        np.testing.assert_array_equal(original.ids, restored.ids)
        assert (original.distances == restored.distances).all()  # bitwise
        np.testing.assert_array_equal(original.trajectory_ids, restored.trajectory_ids)
        # And the replica keeps being bit-stable through its own restore.
        second = restore_from(replica, source, tmp_path / "snap2")
        again = second.query(QueryRequest(queries=queries, k=10))
        np.testing.assert_array_equal(original.ids, again.ids)
        assert (original.distances == again.distances).all()
        # The replica shares no mutable state with its source: growing the
        # source, removing rows from it or compacting it leaves the replica's
        # answers unchanged (scanned through its backend, so its query cache
        # cannot hide it).
        rows = len(replica)
        engine.ingest_vectors(queries)  # rows every query would now rank first
        if engine.backend.supports_removal:
            engine.remove(np.unique(restored.ids[:, :3]))
            assert engine.compact()
        after = replica.backend.top_k(queries, 10)
        assert len(replica) == rows
        np.testing.assert_array_equal(after.indices, restored.ids)
        assert (after.distances == restored.distances).all()
        np.testing.assert_array_equal(
            replica.trajectory_ids(after.indices), restored.trajectory_ids
        )
