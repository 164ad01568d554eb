"""`repro.serving` — the representation-serving layer (facade internals).

Turns a frozen encoder into a query-able similarity-search service:
:class:`~repro.serving.store.EmbeddingStore` materialises representations
once (length-bucketed batching, npz persistence) and
:class:`~repro.serving.index.SimilarityIndex` answers top-k / most-similar /
rank queries with chunked float32 distance computation and partial
(``argpartition``) selection instead of full sorts.

Application code goes through the :class:`repro.api.Engine` facade
(``EngineConfig(backend="chunked")`` selects this index); the two classes
are importable from their submodules (:mod:`repro.serving.store`,
:mod:`repro.serving.index`) only.
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
