"""`repro.serving` — the exact scan kernels (facade internals).

:mod:`repro.serving.index` holds the scan kernels every index backend runs —
chunked float32 distance computation with running-threshold partial
selection (one ``argpartition`` on a query block's first chunk, then only
the rows at or below each query's running k-th distance are merged), exact
counting ranks, and the full-matrix reference top-k.
:class:`~repro.serving.index.SimilarityIndex` wraps the chunked kernel over
one frozen matrix; it is the monolithic reference the bit-identity tests
compare the backends against.

Application code goes through the :class:`repro.api.Engine` facade, which
bulk-encodes corpora, writes and reads snapshots, and keeps its rows in
:class:`repro.streaming.shards.ShardedIndex` segments;
``SimilarityIndex`` is importable from :mod:`repro.serving.index` only.
"""

from repro.serving.index import (
    DEFAULT_DATABASE_CHUNK,
    DEFAULT_QUERY_CHUNK,
    SearchResult,
    pairwise_squared_euclidean,
)

__all__ = [
    "DEFAULT_DATABASE_CHUNK",
    "DEFAULT_QUERY_CHUNK",
    "SearchResult",
    "pairwise_squared_euclidean",
]
