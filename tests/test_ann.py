"""Unit + property tests for `repro.ann`: k-means, PQ, IVF, IVF-PQ.

The hypothesis properties pin the ANN backends' sharp guarantees:

* **exhaustive probing is the oracle** — with ``nprobe >= nlist`` both ANN
  backends return ids *and distances* bit-identical to the bruteforce
  backend, for any corpus/geometry (the scan degenerates to the oracle's own
  full-matrix arithmetic by construction);
* **recall is monotone in nprobe** — per query, probed lists are a prefix of
  the same coarse-distance ordering, so growing ``nprobe`` grows the
  candidate set and exact re-ranking can only keep or improve recall@k;
* **the batched probe scan is the per-list scan** — distances are bitwise
  those of the per-list merge loop (:func:`per_list_reference`), ids too
  except where a distance ties exactly at the selection boundary.
"""

from __future__ import annotations

import importlib
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann import IVFBackend, IVFPQBackend, ProductQuantizer, assign_to_centroids, kmeans
from repro.ann.pq import largest_divisor_at_most
from repro.api import create_backend
from repro.serving.index import (
    finalize_topk,
    merge_topk_candidates,
    pairwise_squared_euclidean,
    scan_topk_candidates,
    squared_norms,
)

kmeans_module = importlib.import_module("repro.ann.kmeans")


def random_corpus(seed: int, rows: int, dim: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((rows, dim)).astype(np.float32)


def add_at_cluster_means(data, assignments, counts):
    """The scatter-add centroid update, the reference for ``_cluster_means``."""
    sums = np.zeros((counts.size, data.shape[1]), dtype=np.float64)
    np.add.at(sums, assignments, data)
    return (sums / counts[:, None]).astype(np.float32)


def plusplus_init_reference(data, k, rng):
    """k-means++ seeding as it scored rows before the row norms were
    computed once: ``pairwise_squared_euclidean`` recomputes them per centroid."""
    count = data.shape[0]
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = int(rng.integers(count))
    closest = pairwise_squared_euclidean(data, data[chosen[:1]])[:, 0]
    for i in range(1, k):
        total = float(closest.sum())
        if total <= 0.0:
            chosen[i] = int(rng.integers(count))
        else:
            chosen[i] = int(rng.choice(count, p=closest / total))
        new_d = pairwise_squared_euclidean(data, data[chosen[i : i + 1]])[:, 0]
        np.minimum(closest, new_d, out=closest)
    return data[chosen].copy()


def per_list_reference(backend, queries, k):
    """The per-list merge loop the batched probe scan replaced.

    Probed lists are visited in list order; each scores its probing queries
    (ascending) and merges them into running per-query candidates, like the
    exact kernel.  Returns ``(ids, distances, boundary_tied)``:
    ``boundary_tied[i]`` marks an IVF-PQ query whose ADC re-rank pool is
    ambiguous (alive ADC scores tie exactly at the pool boundary), where
    either pool — and so either answer — is correct.
    """
    structure = backend._ensure_structure()
    k = min(k, len(backend))
    offsets = structure.offsets
    dead = backend.shards[0].dead[structure.order] if backend.tombstone_count else None
    is_pq = isinstance(backend, IVFPQBackend)
    width = max(k, backend.rerank) if is_pq else k
    all_ids, all_distances, all_tied = [], [], []
    for row in range(0, queries.shape[0], backend.query_chunk_size):
        block = queries[row : row + backend.query_chunk_size]
        norms = squared_norms(block)
        list_order, probe_counts = backend._probe_lists(structure, block, norms, k)
        probed = np.zeros((block.shape[0], structure.nlist), dtype=bool)
        for query, count in enumerate(probe_counts):
            probed[query, list_order[query, :count]] = True
        best_d = np.full((block.shape[0], width), np.inf, dtype=np.float32)
        best_i = np.full((block.shape[0], width), -1, dtype=np.int64)
        alive_scores = [[] for _ in range(block.shape[0])]
        if is_pq:
            dot_tables = structure.pq.dot_tables(block)
            centroid_dots = block @ structure.centroids.T
        for lst in range(structure.nlist):
            start, stop = int(offsets[lst]), int(offsets[lst + 1])
            rows = np.nonzero(probed[:, lst])[0]
            if stop == start or not rows.size:
                continue
            best = (best_d[rows], best_i[rows])
            if is_pq:
                code_dots = structure.pq.gather_sum(dot_tables[rows], structure.codes[start:stop])
                approx = structure.recon_norms[start:stop][None, :] - 2.0 * (
                    centroid_dots[rows, lst][:, None] + code_dots
                )
                if dead is not None:
                    approx[:, dead[start:stop]] = np.inf
                for query, scores in zip(rows, approx):
                    alive_scores[query].append(scores[np.isfinite(scores)])
                positions = np.broadcast_to(np.arange(start, stop, dtype=np.int64), approx.shape)
                merged = merge_topk_candidates(*best, approx, positions, width)
            else:
                merged = scan_topk_candidates(
                    block[rows], norms[rows], structure.vectors[start:stop],
                    structure.norms[start:stop], k, backend.database_chunk_size,
                    row_ids=structure.ids[start:stop],
                    exclude=dead[start:stop] if dead is not None else None, best=best,
                )
            best_d[rows], best_i[rows] = merged
        if is_pq:
            ids, distances = backend._rerank_pool(structure, block, norms, best_i, k)
        else:
            ids, distances = finalize_topk(best_d, best_i)
        for scores in alive_scores:
            ordered = np.sort(np.concatenate(scores)) if scores else np.empty(0)
            all_tied.append(ordered.size > width and ordered[width - 1] == ordered[width])
        all_ids.append(ids)
        all_distances.append(distances)
    return np.concatenate(all_ids), np.concatenate(all_distances), np.array(all_tied)


def assert_matches_reference(result, reference, *, tolerance=0.0):
    """Distances equal (bitwise at ``tolerance == 0``); every reference id
    strictly inside the k-th distance (by more than ``tolerance``) is
    returned, at the same position when bitwise."""
    ids, distances, boundary_tied = reference
    assert result.indices.shape == ids.shape
    for query in np.flatnonzero(~boundary_tied):
        got_d, want_d = result.distances[query], distances[query]
        inside = want_d < want_d[-1] - tolerance
        if tolerance == 0.0:
            assert got_d.tobytes() == want_d.tobytes()
            np.testing.assert_array_equal(result.indices[query][inside], ids[query][inside])
        else:
            np.testing.assert_allclose(got_d, want_d, rtol=tolerance, atol=tolerance)
            assert set(ids[query][inside].tolist()) <= set(result.indices[query].tolist())


def recall_against(oracle_ids: np.ndarray, candidate_ids: np.ndarray) -> float:
    """Mean per-query overlap fraction with the oracle's neighbour set."""
    assert oracle_ids.shape == candidate_ids.shape
    if oracle_ids.shape[1] == 0:
        return 1.0
    hits = [
        len(set(map(int, oracle_ids[row])) & set(map(int, candidate_ids[row])))
        for row in range(oracle_ids.shape[0])
    ]
    return float(np.mean(hits)) / oracle_ids.shape[1]


class TestKMeans:
    def test_deterministic_given_seed(self):
        data = random_corpus(1, 200, 8)
        a = kmeans(data, 16, seed=5)
        b = kmeans(data, 16, seed=5)
        np.testing.assert_array_equal(a, b)
        c = kmeans(data, 16, seed=6)
        assert not np.array_equal(a, c)

    def test_shapes_and_validation(self):
        data = random_corpus(2, 50, 4)
        centroids = kmeans(data, 7, seed=0)
        assert centroids.shape == (7, 4)
        assert centroids.dtype == np.float32
        with pytest.raises(ValueError, match="k must be"):
            kmeans(data, 0)
        with pytest.raises(ValueError, match="k must be"):
            kmeans(data, 51)

    def test_k_equals_n_with_duplicates_yields_finite_centroids(self):
        """Empty-cluster repair must never divide by zero (k == n forces
        empties when rows are duplicated)."""
        data = random_corpus(3, 20, 3)
        data[5] = data[2]
        data[11] = data[2]
        centroids = kmeans(data, 20, seed=0)
        assert np.isfinite(centroids).all()

    def test_assignment_reduces_inertia(self):
        data = random_corpus(4, 300, 6)
        _, d_one = assign_to_centroids(data, kmeans(data, 1, seed=0))
        _, d_many = assign_to_centroids(data, kmeans(data, 12, seed=0))
        assert d_many.sum() < d_one.sum()

    def test_cluster_means_are_bitwise_the_scatter_add_means(self):
        data = random_corpus(30, 4096, 64)
        assignments = np.random.default_rng(31).integers(0, 256, size=4096)
        assignments[:256] = np.arange(256)  # every cluster non-empty
        counts = np.bincount(assignments, minlength=256)
        means = kmeans_module._cluster_means(data, assignments, counts)
        assert means.tobytes() == add_at_cluster_means(data, assignments, counts).tobytes()

    def test_kmeans_with_empty_cluster_repair_matches_scatter_add_update(self, monkeypatch):
        data = random_corpus(3, 20, 3)
        data[5] = data[2]
        data[11] = data[2]
        saw_empty = []
        assign = kmeans_module.assign_to_centroids

        def spying_assign(rows, centroids):
            assignments, distances = assign(rows, centroids)
            saw_empty.append(np.bincount(assignments, minlength=len(centroids)).min() == 0)
            return assignments, distances

        monkeypatch.setattr(kmeans_module, "assign_to_centroids", spying_assign)
        centroids = kmeans(data, 20, seed=0)
        assert any(saw_empty)  # the repair branch ran
        monkeypatch.setattr(kmeans_module, "_cluster_means", add_at_cluster_means)
        assert kmeans(data, 20, seed=0).tobytes() == centroids.tobytes()

    @pytest.mark.parametrize(
        "rows, dim, k",
        [(4096, 64, 256), (300, 6, 12), (50, 3, 50), (17, 1, 5)],
    )
    def test_plusplus_seeding_is_byte_equal_to_the_per_centroid_norms(self, rows, dim, k):
        data = random_corpus(rows + dim, rows, dim)
        for seed in (0, 7):
            seeded = kmeans_module._plusplus_init(data, k, np.random.default_rng(seed))
            reference = plusplus_init_reference(data, k, np.random.default_rng(seed))
            assert seeded.tobytes() == reference.tobytes()

    def test_plusplus_seeding_of_duplicate_rows_is_byte_equal(self):
        """All rows alike: every draw after the first takes the uniform
        fallback (no distance mass is left)."""
        data = np.repeat(random_corpus(8, 1, 5), 40, axis=0)
        seeded = kmeans_module._plusplus_init(data, 6, np.random.default_rng(3))
        reference = plusplus_init_reference(data, 6, np.random.default_rng(3))
        assert seeded.tobytes() == reference.tobytes()

    def test_clustered_data_recovers_clusters(self):
        rng = np.random.default_rng(5)
        centers = rng.standard_normal((4, 5)).astype(np.float32) * 20
        data = np.concatenate(
            [center + rng.standard_normal((40, 5)).astype(np.float32) for center in centers]
        )
        assignments, _ = assign_to_centroids(data, kmeans(data, 4, seed=0))
        # Every ground-truth blob lands in exactly one learned cluster.
        for blob in range(4):
            assert len(set(assignments[blob * 40 : (blob + 1) * 40].tolist())) == 1


class TestProductQuantizer:
    def test_m_clamps_to_a_divisor(self):
        assert largest_divisor_at_most(12, 8) == 6
        assert largest_divisor_at_most(7, 4) == 1
        pq = ProductQuantizer(dim=10, m=4, bits=4)
        assert pq.m == 2 and pq.subdim == 5

    def test_encode_decode_reduces_error_with_bits(self):
        data = random_corpus(6, 400, 8)
        errors = []
        for bits in (2, 6):
            pq = ProductQuantizer(dim=8, m=4, bits=bits, seed=0).train(data)
            reconstructed = pq.decode(pq.encode(data))
            errors.append(float(((data - reconstructed) ** 2).sum()))
        assert errors[1] < errors[0]

    def test_adc_matches_decoded_distances(self):
        """ADC table sums must equal squared distances to decoded vectors."""
        data = random_corpus(7, 300, 8)
        queries = random_corpus(8, 5, 8)
        pq = ProductQuantizer(dim=8, m=4, bits=5, seed=0).train(data)
        codes = pq.encode(data)
        approx = pq.adc(pq.lookup_tables(queries), codes)
        decoded = pq.decode(codes)
        explicit = ((queries[:, None, :] - decoded[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(approx, explicit, rtol=1e-4, atol=1e-4)

    def test_untrained_raises(self):
        pq = ProductQuantizer(dim=8, m=4, bits=4)
        with pytest.raises(RuntimeError, match="untrained"):
            pq.encode(random_corpus(9, 3, 8))


class TestIVFSpecifics:
    def test_params_validated(self):
        for bad in (dict(nlist=0), dict(nprobe=0), dict(train_size=0)):
            with pytest.raises(ValueError):
                IVFBackend(**bad)
        for bad in (dict(pq_m=0), dict(rerank=0), dict(pq_bits=0)):
            with pytest.raises(ValueError):
                IVFPQBackend(**bad)
        with pytest.raises(TypeError):
            create_backend("sharded", nlist=4)  # knobs don't leak across backends

    def test_backend_params_reach_the_factory(self):
        backend = create_backend("ivf", nlist=5, nprobe=2, train_size=100, seed=9)
        assert (backend.nlist, backend.nprobe, backend.train_size, backend.seed) == (5, 2, 100, 9)
        pq = create_backend("ivfpq", pq_m=2, pq_bits=3, rerank=7)
        assert (pq.pq_m, pq.pq_bits, pq.rerank) == (2, 3, 7)

    def test_centroids_cached_across_appends_once_train_size_reached(self):
        backend = IVFBackend(nlist=4, nprobe=2, train_size=32, seed=0)
        backend.add(random_corpus(10, 40, 4))
        backend.top_k(random_corpus(11, 2, 4), 3)  # builds the structure
        first_cache = backend._centroid_cache
        assert first_cache is not None
        backend.add(random_corpus(12, 10, 4))  # prefix of 32 train rows unchanged
        backend.top_k(random_corpus(11, 2, 4), 3)
        assert backend._centroid_cache is first_cache  # no re-train
        backend.remove(np.arange(5))
        backend.compact()
        assert backend._centroid_cache is None  # compaction rewrites the prefix

    @pytest.mark.parametrize("backend_name", ["ivf", "ivfpq"])
    def test_shared_backend_trains_its_structure_once(self, backend_name, monkeypatch):
        """The serving runtime's workers share one replica: concurrent first
        queries must train the lazy structure once and agree bitwise."""
        params = dict(pq_m=2, pq_bits=3, rerank=12) if backend_name == "ivfpq" else {}
        backend = create_backend(backend_name, nlist=6, nprobe=2, seed=0, **params)
        backend.add(random_corpus(23, 200, 8))
        queries = random_corpus(24, 5, 8)
        rebuild = backend._rebuild_structure
        guard, second_caller = threading.Lock(), threading.Event()
        rebuilds = []

        def gated_rebuild():
            with guard:
                rebuilds.append(threading.get_ident())
                first = len(rebuilds) == 1
            if first:
                second_caller.wait(timeout=0.5)  # room for a second trainer to enter
            else:
                second_caller.set()
            return rebuild()

        monkeypatch.setattr(backend, "_rebuild_structure", gated_rebuild)
        workers = 4
        start = threading.Barrier(workers)

        def first_query(_):
            start.wait(timeout=30)
            return backend.top_k(queries, 5)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(first_query, range(workers)))
        assert len(rebuilds) == 1
        for result in results[1:]:
            np.testing.assert_array_equal(result.indices, results[0].indices)
            assert result.distances.tobytes() == results[0].distances.tobytes()

    def test_probing_expands_until_k_alive_candidates(self):
        """nprobe=1 with k near the corpus size must still fill k columns."""
        corpus = random_corpus(13, 30, 4)
        backend = IVFBackend(nlist=10, nprobe=1, seed=0)
        backend.add(corpus)
        result = backend.top_k(random_corpus(14, 3, 4), 25)
        assert result.indices.shape == (3, 25)
        assert np.isfinite(result.distances).all()
        assert (result.indices >= 0).all()

    def test_high_nprobe_beats_low_nprobe_on_clustered_data(self):
        rng = np.random.default_rng(15)
        centers = rng.standard_normal((8, 6)).astype(np.float32) * 10
        corpus = np.concatenate(
            [center + rng.standard_normal((50, 6)).astype(np.float32) for center in centers]
        )
        queries = corpus[::37] + 0.01 * rng.standard_normal((11, 6)).astype(np.float32)
        oracle = create_backend("bruteforce")
        oracle.add(corpus)
        truth = oracle.top_k(queries, 10).indices
        recalls = []
        for nprobe in (1, 4):
            backend = create_backend("ivf", nlist=8, nprobe=nprobe, seed=0)
            backend.add(corpus)
            recalls.append(recall_against(truth, backend.top_k(queries, 10).indices))
        assert recalls[1] >= recalls[0]
        assert recalls[1] >= 0.9  # clustered data: 4/8 lists is nearly exact

    def test_ivfpq_rerank_pool_covering_probed_candidates_is_exact_on_them(self):
        """With rerank >= corpus the ADC stage only orders candidates; the
        returned ids of probed rows carry their true distances."""
        corpus = random_corpus(16, 64, 8)
        backend = IVFPQBackend(nlist=8, nprobe=8, pq_m=4, pq_bits=4, rerank=64, seed=0)
        backend.add(corpus)
        oracle = create_backend("bruteforce")
        oracle.add(corpus)
        queries = random_corpus(17, 6, 8)
        # nprobe == nlist -> bit-identical oracle path even through PQ backend.
        result = backend.top_k(queries, 7)
        expected = oracle.top_k(queries, 7)
        np.testing.assert_array_equal(result.indices, expected.indices)
        assert (result.distances == expected.distances).all()


class TestHypothesisProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 90),
        num_queries=st.integers(1, 8),
        dim=st.integers(2, 8),
        nlist=st.integers(1, 12),
        k=st.integers(1, 12),
        backend_name=st.sampled_from(["ivf", "ivfpq"]),
    )
    def test_exhaustive_probing_is_bit_identical_to_bruteforce(
        self, seed, rows, num_queries, dim, nlist, k, backend_name
    ):
        """nprobe >= nlist  ==>  ids and distances match the oracle bitwise,
        and ranks_of agrees exactly, for any corpus/geometry."""
        rng = np.random.default_rng(seed)
        corpus = rng.standard_normal((rows, dim)).astype(np.float32)
        queries = rng.standard_normal((num_queries, dim)).astype(np.float32)
        oracle = create_backend("bruteforce")
        oracle.add(corpus)
        backend = create_backend(
            backend_name, nlist=nlist, nprobe=nlist, seed=seed % 97, train_size=max(1, rows // 2)
        )
        backend.add(corpus)
        expected = oracle.top_k(queries, k)
        result = backend.top_k(queries, k)
        np.testing.assert_array_equal(result.indices, expected.indices)
        assert (result.distances == expected.distances).all()  # bitwise, not allclose
        truth = rng.integers(0, rows, size=num_queries)
        np.testing.assert_array_equal(
            backend.ranks_of(queries, truth), oracle.ranks_of(queries, truth)
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(8, 80),
        num_queries=st.integers(1, 6),
        dim=st.integers(2, 6),
        nlist=st.integers(2, 8),
        k=st.integers(1, 6),
    )
    def test_ivf_recall_is_monotone_in_nprobe(self, seed, rows, num_queries, dim, nlist, k):
        """Probed lists are a per-query prefix of one fixed coarse ordering,
        so recall@k never decreases as nprobe grows — ending at 1.0 when
        nprobe == nlist (the oracle path)."""
        rng = np.random.default_rng(seed)
        corpus = rng.standard_normal((rows, dim)).astype(np.float32)
        queries = rng.standard_normal((num_queries, dim)).astype(np.float32)
        oracle = create_backend("bruteforce")
        oracle.add(corpus)
        truth = oracle.top_k(queries, k).indices
        recalls = []
        for nprobe in range(1, nlist + 1):
            backend = create_backend("ivf", nlist=nlist, nprobe=nprobe, seed=seed % 89)
            backend.add(corpus)
            recalls.append(recall_against(truth, backend.top_k(queries, k).indices))
        assert all(b >= a - 1e-12 for a, b in zip(recalls, recalls[1:])), recalls
        assert recalls[-1] == 1.0


class TestBatchedProbeScan:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(2, 120),
        num_queries=st.integers(1, 12),
        dim=st.integers(2, 8),
        nlist=st.integers(2, 12),
        k=st.integers(1, 12),
        rerank=st.integers(1, 24),
        dead_fraction=st.sampled_from([0.0, 0.2, 0.6]),
        long_lists=st.booleans(),
        chunk=st.integers(1, 8),
        backend_name=st.sampled_from(["ivf", "ivfpq"]),
    )
    def test_matches_the_per_list_scan(
        self, seed, rows, num_queries, dim, nlist, k, rerank, dead_fraction, long_lists, chunk,
        backend_name,
    ):
        """Tombstones, probe expansion over tiny lists, and either lists
        longer than ``database_chunk_size`` or several query blocks per call —
        with chunk sizes chosen so no block outgrows the element budget."""
        rng = np.random.default_rng(seed)
        corpus = rng.standard_normal((rows, dim)).astype(np.float32)
        queries = rng.standard_normal((num_queries, dim)).astype(np.float32)
        nlist = min(nlist, rows)
        widest = max(rows, k, rerank)  # bounds every padded per-query row
        if long_lists:
            chunks = dict(database_chunk_size=chunk, query_chunk_size=-(-num_queries * widest // chunk))
        else:
            chunks = dict(query_chunk_size=1 + chunk % 3, database_chunk_size=widest)
        params = dict(rerank=rerank, pq_m=2, pq_bits=3) if backend_name == "ivfpq" else {}
        backend = create_backend(
            backend_name, nlist=nlist, nprobe=1 + seed % (nlist - 1), seed=seed % 89,
            **chunks, **params,
        )
        backend.add(corpus)
        backend.remove(rng.choice(rows, size=min(int(dead_fraction * rows), rows - 1), replace=False))
        reference = per_list_reference(backend, queries, k)
        assert_matches_reference(backend.top_k(queries, k), reference)

    @pytest.mark.parametrize("backend_name", ["ivf", "ivfpq"])
    def test_budget_split_matches_the_per_list_scan_to_tolerance(self, backend_name, monkeypatch):
        """A 32-query block probing ~200 rows each exceeds the 32 x 16
        element budget, so it is scanned in runs: GEMM shapes change, hence
        the tolerance."""
        runs = []
        select_run = IVFBackend._select_run

        def counting_select_run(*args):
            runs.append(args[1].shape[0])
            return select_run(*args)

        monkeypatch.setattr(IVFBackend, "_select_run", staticmethod(counting_select_run))
        params = dict(rerank=24, pq_m=4, pq_bits=4) if backend_name == "ivfpq" else {}
        backend = create_backend(
            backend_name, nlist=8, nprobe=3, seed=0, query_chunk_size=32, database_chunk_size=16,
            **params,
        )
        backend.add(random_corpus(21, 600, 16))
        backend.remove(np.arange(0, 600, 7))
        queries = random_corpus(22, 40, 16)
        result = backend.top_k(queries, 10)
        assert len(runs) > 2 and sum(runs) == 40  # two blocks, each split
        assert_matches_reference(result, per_list_reference(backend, queries, 10), tolerance=1e-4)
