"""repro.ann — approximate-nearest-neighbour index structures.

The exact backends (``"bruteforce"``, ``"chunked"``, ``"sharded"``) scan
every stored row per query, so latency grows linearly with the corpus.  This
package trades a bounded recall loss for order-of-magnitude speedups with the
two classic ANN structures the related literature popularised:

* :class:`~repro.ann.ivf.IVFBackend` (``"ivf"``) — a k-means coarse quantizer
  partitions the corpus into ``nlist`` inverted lists; queries probe only the
  ``nprobe`` nearest lists and every probed candidate is re-ranked with its
  *exact* distance.
* :class:`~repro.ann.ivfpq.IVFPQBackend` (``"ivfpq"``) — IVF plus
  product-quantized residuals: probed lists are scanned with ADC lookup-table
  distances over compact PQ codes, and only the best ``rerank`` candidates per
  query are exactly re-ranked.

Both implement the full :class:`repro.api.backends.IndexBackend` contract
and are registered in the :mod:`repro.api` backend registry — select them
with ``EngineConfig(backend="ivf", backend_params={...})``.  Their rows live
in the shared row store (:class:`~repro.ann.base.AnnBackendBase` is a
:class:`~repro.streaming.shards.ShardedIndex` with one never-sealing
segment), so add / tombstone remove / compact, snapshots via ``segments()``
and exact ``ranks_of`` are the store's; this package adds the quantized
structures and their probe scans.

This package sits *below* :mod:`repro.api` in the layer stack: it builds on
the shared serving kernels (:mod:`repro.serving.index`) and the streaming
layer's row store, never on the facade; registration happens in
:mod:`repro.api.backends`.
"""

from repro.ann.ivf import IVFBackend
from repro.ann.ivfpq import IVFPQBackend
from repro.ann.kmeans import assign_to_centroids, kmeans
from repro.ann.pq import ProductQuantizer

__all__ = [
    "IVFBackend",
    "IVFPQBackend",
    "ProductQuantizer",
    "assign_to_centroids",
    "kmeans",
]
