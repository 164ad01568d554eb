"""IVF-PQ: inverted lists scanned with product-quantized residual distances.

Extends :class:`~repro.ann.ivf.IVFBackend` with the classic second stage:
each stored row's *residual* (vector minus its coarse centroid) is encoded to
an ``m``-byte PQ code, and probed lists are scanned with ADC lookup-table
distances instead of raw-vector GEMMs — O(m) table adds per candidate
instead of O(d) multiply-adds, independent of the stored precision.

Because ADC distances are approximate, the scan keeps a per-query candidate
pool of ``max(k, rerank)`` best ADC rows, then re-ranks that pool with exact
distances against the raw stored vectors, so the *returned* distances are
always exact (the approximation only decides which candidates reach the
pool).  ``nprobe >= nlist`` skips quantization entirely and takes the same
bruteforce-identical exact path as IVF.

Knobs: ``pq_m`` sub-quantizers (clamped to the largest divisor of ``dim``),
``pq_bits`` per code (codebook size ``2**pq_bits``, clamped to the training
rows), ``rerank`` pool size, plus everything IVF has.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ann.ivf import _IVFStructure, IVFBackend
from repro.ann.pq import ProductQuantizer
from repro.serving.index import DEFAULT_DATABASE_CHUNK, DEFAULT_QUERY_CHUNK
from repro.streaming.shards import DEFAULT_SHARD_CAPACITY

#: Default number of PQ sub-quantizers (clamped to a divisor of dim).
DEFAULT_PQ_M = 8
#: Default bits per PQ code (codebook size 2**bits).
DEFAULT_PQ_BITS = 8
#: Default exact re-rank pool per query (clamped up to k).
DEFAULT_RERANK = 32


@dataclass
class _IVFPQStructure(_IVFStructure):
    """IVF layout + trained PQ + per-row residual codes (grouped by list)."""

    pq: ProductQuantizer = None  # type: ignore[assignment]
    codes: np.ndarray = None  # type: ignore[assignment]  # (N, m) uint16
    #: |centroid + decode(code)|^2 per row — the candidate half of the ADC
    #: expansion, precomputed at build so the scan never touches sub-vectors.
    recon_norms: np.ndarray = None  # type: ignore[assignment]  # (N,)


class IVFPQBackend(IVFBackend):
    """``"ivfpq"``: IVF probing + ADC candidate scan + exact re-rank."""

    name = "ivfpq"

    def __init__(
        self,
        dim: int | None = None,
        *,
        shard_capacity: int = DEFAULT_SHARD_CAPACITY,
        query_chunk_size: int = DEFAULT_QUERY_CHUNK,
        database_chunk_size: int = DEFAULT_DATABASE_CHUNK,
        nlist: int = 64,
        nprobe: int = 8,
        train_size: int = 4096,
        seed: int = 0,
        pq_m: int = DEFAULT_PQ_M,
        pq_bits: int = DEFAULT_PQ_BITS,
        rerank: int = DEFAULT_RERANK,
    ) -> None:
        super().__init__(
            dim,
            shard_capacity=shard_capacity,
            query_chunk_size=query_chunk_size,
            database_chunk_size=database_chunk_size,
            nlist=nlist,
            nprobe=nprobe,
            train_size=train_size,
            seed=seed,
        )
        if pq_m < 1:
            raise ValueError("pq_m must be >= 1")
        if not 1 <= pq_bits <= 16:
            raise ValueError("pq_bits must be in [1, 16]")
        if rerank < 1:
            raise ValueError("rerank must be >= 1")
        self.pq_m = int(pq_m)
        self.pq_bits = int(pq_bits)
        self.rerank = int(rerank)

    # ------------------------------------------------------------------ #
    # Training / structure
    # ------------------------------------------------------------------ #
    def _rebuild_structure(self) -> _IVFPQStructure:
        base = super()._rebuild_structure()
        # Residuals in grouped order: row minus its owning coarse centroid.
        residuals = base.vectors - base.centroids[base.list_of_position]
        train_rows = min(self.train_size, residuals.shape[0])
        # The training subset is the residuals of the first `train_rows`
        # *storage* rows — a pure function of the stored prefix, like the
        # coarse centroids, so rebuilds and restores train identically —
        # less those whose squared norm is not finite, as for the centroids.
        train_mask = base.order < train_rows
        train_mask &= np.isfinite(base.norms)
        train = residuals[train_mask] if train_mask.any() else np.zeros_like(residuals[:1])
        pq = ProductQuantizer(
            residuals.shape[1], self.pq_m, self.pq_bits, seed=self.seed + 1
        ).train(train)
        codes = pq.encode(residuals)
        reconstruction = base.centroids[base.list_of_position] + pq.decode(codes)
        recon_norms = np.einsum("ij,ij->i", reconstruction, reconstruction)
        # A row whose squared norm is not finite has a finite code but no
        # finite exact distance: its ADC score is +inf, as a tombstone's, so
        # it takes no re-rank pool slot from a finite candidate.
        recon_norms[~np.isfinite(base.norms)] = np.inf
        return _IVFPQStructure(
            **{field: getattr(base, field) for field in _IVFStructure.__dataclass_fields__},
            pq=pq,
            codes=codes,
            recon_norms=recon_norms,
        )

    # ------------------------------------------------------------------ #
    # Search: ADC candidate scan, then exact re-rank of the pool
    # ------------------------------------------------------------------ #
    def _search_block(
        self, structure: _IVFPQStructure, block: np.ndarray, block_norms: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        pool = max(k, self.rerank)
        list_order, probe_counts = self._probe_lists(structure, block, block_norms, k)
        # ADC via the inner-product expansion: |q - r|^2 = |q|^2 + |r|^2 -
        # 2 q.r with r = centroid + decode(code).  |r|^2 is precomputed per
        # row, q.centroid is one block GEMM, q.decode(code) is m gathers from
        # one per-block dot table — and the per-query |q|^2 constant is
        # dropped entirely (it cannot change any candidate ordering), so the
        # scan never rebuilds tables per (query, list) pair.
        dot_tables = structure.pq.dot_tables(block)  # (B, m, ks)
        centroid_dots = block @ structure.centroids.T  # (B, nlist)

        def score_list(lst, query_rows, start, stop, out):
            code_dots = structure.pq.gather_sum(
                dot_tables[query_rows], structure.codes[start:stop]
            )
            out[...] = structure.recon_norms[start:stop][None, :] - 2.0 * (
                centroid_dots[query_rows, lst][:, None] + code_dots
            )

        _, pool_rows = self._scan_probed(structure, list_order, probe_counts, pool, score_list)
        return self._rerank_pool(structure, block, block_norms, pool_rows, k)

    def _rerank_pool(
        self,
        structure: _IVFPQStructure,
        block: np.ndarray,
        block_norms: np.ndarray,
        pool_rows: np.ndarray,
        k: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact ``(ids, distances)`` top-k from the ADC candidate pool.

        ``pool_rows`` holds grouped-storage positions (``-1`` placeholders
        where a query's probed lists had fewer than ``pool`` candidates).
        Distances are recomputed exactly from the raw vectors; placeholders
        and tombstones are forced to ``+inf`` with an id beyond any real one,
        so they sort last and can never enter the top-k (probe expansion
        guarantees ``>= k`` alive candidates).
        """
        valid = pool_rows >= 0
        rows = np.where(valid, pool_rows, 0)
        candidates = structure.vectors[rows]  # (Q, P, d)
        exact = (
            block_norms[:, None]
            + structure.norms[rows]
            - np.float32(2.0) * np.einsum("qd,qpd->qp", block, candidates)
        )
        np.maximum(exact, 0.0, out=exact)
        candidate_ids = structure.ids[rows]
        dead_mask = ~valid
        if self.tombstone_count:
            dead_mask = dead_mask | self._segment.dead[structure.order][rows]
        exact[dead_mask] = np.inf
        candidate_ids = np.where(dead_mask, np.iinfo(np.int64).max, candidate_ids)
        order = np.lexsort((candidate_ids, exact), axis=-1)[:, :k]
        return (
            np.take_along_axis(candidate_ids, order, axis=1),
            np.sqrt(np.take_along_axis(exact, order, axis=1)).astype(np.float32),
        )
