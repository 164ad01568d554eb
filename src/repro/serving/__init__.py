"""`repro.serving` — the representation-serving layer (facade internals).

Turns a frozen encoder into a query-able similarity-search service:
:class:`~repro.serving.store.EmbeddingStore` materialises representations
once (length-bucketed batching, npz persistence) and
:mod:`repro.serving.index` holds the scan kernels every index backend runs —
chunked float32 distance computation with running-threshold partial
selection (one ``argpartition`` on a query block's first chunk, then only
the rows at or below each query's running k-th distance are merged), exact
counting ranks, and the full-matrix reference top-k.
:class:`~repro.serving.index.SimilarityIndex` wraps the chunked kernel over
one frozen matrix; it is the monolithic reference the bit-identity tests
compare the backends against.

Application code goes through the :class:`repro.api.Engine` facade, whose
backends keep their rows in :class:`repro.streaming.shards.ShardedIndex`
segments; the two classes here are importable from their submodules
(:mod:`repro.serving.store`, :mod:`repro.serving.index`) only.
"""

from repro.serving.index import (
    DEFAULT_DATABASE_CHUNK,
    DEFAULT_QUERY_CHUNK,
    SearchResult,
    pairwise_squared_euclidean,
)
from repro.serving.store import DEFAULT_ENCODE_BATCH, FORMAT_VERSION

__all__ = [
    "DEFAULT_DATABASE_CHUNK",
    "DEFAULT_ENCODE_BATCH",
    "DEFAULT_QUERY_CHUNK",
    "FORMAT_VERSION",
    "SearchResult",
    "pairwise_squared_euclidean",
]
