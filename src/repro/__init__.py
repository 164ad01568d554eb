"""repro — a from-scratch reproduction of START (ICDE 2023).

START is a two-stage self-supervised trajectory representation learning
framework: a Trajectory Pattern-Enhanced Graph Attention Network (TPE-GAT)
turns the road network plus travel semantics into road embeddings, and a
Time-Aware Trajectory Encoder (TAT-Enc) turns road sequences plus temporal
regularities into trajectory representations, pre-trained with span-masked
recovery and contrastive learning.

The supported public surface is :mod:`repro.api`: one :class:`~repro.api.Engine`
facade (train → encode → index → stream → query) with typed
requests/responses and a pluggable index-backend registry.

Sub-packages
------------
``repro.api``
    The typed public facade: ``Engine``, ``EngineConfig``, request/response
    dataclasses, index-backend registry.
``repro.nn``
    NumPy autodiff / neural-network substrate (replaces PyTorch).
``repro.roadnet``
    Road-network substrate: graphs, synthetic city generator, shortest paths.
``repro.trajectory``
    Trajectory substrate: generation, map matching, datasets, augmentation.
``repro.core``
    The START model, self-supervised pre-training and fine-tuning.
``repro.baselines``
    traj2vec, t2vec, Trembr, Transformer, BERT, PIM, PIM-TF, Toast, classical
    similarity measures.
``repro.serving``
    Representation serving internals: embedding store + chunked top-k index.
``repro.ann``
    Approximate-nearest-neighbour index structures (IVF, IVF-PQ) behind the
    ``repro.api`` backend registry.
``repro.streaming``
    Streaming internals: JSONL tail reader, sharded index.
``repro.server``
    Concurrent serving runtime: batch aggregation, replica query workers,
    background stream ingest, checkpoint/restart.
``repro.obs``
    Observability: metrics registry (counters/gauges/histograms) and SLO
    snapshots.
``repro.eval``
    Metrics and downstream-task evaluation harnesses.
``repro.experiments``
    Runners that regenerate every table and figure of the paper.

Imports are lazy (PEP 562): ``import repro`` is cheap, and sub-packages plus
the ``repro.api`` entry points materialise on first attribute access —
``repro.api.Engine`` works without eagerly importing the heavy model stack.
"""

from importlib import import_module

__version__ = "1.1.0"

#: Sub-packages resolved lazily on attribute access.
_SUBPACKAGES = frozenset(
    {
        "ann",
        "api",
        "baselines",
        "core",
        "eval",
        "experiments",
        "nn",
        "obs",
        "roadnet",
        "server",
        "serving",
        "streaming",
        "trajectory",
        "utils",
    }
)

#: Facade entry points re-exported at the top level (``repro.Engine`` etc.).
_API_EXPORTS = (
    "Engine",
    "EngineConfig",
    "EncodeRequest",
    "IngestBatch",
    "QueryHit",
    "QueryRequest",
    "QueryResponse",
    "SnapshotInfo",
    "available_backends",
    "register_backend",
)

__all__ = ["__version__", *sorted(_SUBPACKAGES), *sorted(_API_EXPORTS)]


def __getattr__(name: str):
    """Lazily import sub-packages and `repro.api` entry points (PEP 562)."""
    if name in _SUBPACKAGES:
        module = import_module(f"repro.{name}")
        globals()[name] = module  # cache: future lookups skip __getattr__
        return module
    if name in _API_EXPORTS:
        value = getattr(import_module("repro.api"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro' has no attribute '{name}'")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
