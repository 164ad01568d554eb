"""Persistent store of trajectory representations (the serving "warm" path).

In the paper's downstream similarity task the database embeddings are a
function of the frozen pre-trained encoder only, so they can be computed once
and served forever.  :class:`EmbeddingStore` is that materialisation step:

* **length-bucketed batch encoding** — trajectories are encoded in batches of
  neighbours in the length ordering, so each batch pads to its own longest
  member instead of the global maximum (padding work in the transformer is
  quadratic in the padded length, so mixing a 5-road trip into a 100-road
  batch wastes ~400x on the short trip);
* **no-grad inference** — encoding runs inside :func:`repro.nn.no_grad`
  whatever the encoder callable does internally, so no autodiff graph is
  retained across a million-trajectory sweep and the encoder's modules
  dispatch to the pure-NumPy fast kernels in :mod:`repro.nn.kernels`
  (fused attention, time-parallel recurrent sweeps) automatically;
* **npz persistence with versioned metadata** — the on-disk format mirrors
  :mod:`repro.nn.serialization` (one array per field plus a JSON metadata
  blob) so stores survive process restarts and can be shipped to serving
  replicas without the model.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.nn import length_bucketed_indices, no_grad
from repro.serving.index import as_float32_matrix

#: Bump when the on-disk layout changes; readers refuse newer formats.
FORMAT_VERSION = 1

_META_KEY = "__embedding_store_meta__"
_VECTORS_KEY = "vectors"
_IDS_KEY = "ids"

DEFAULT_ENCODE_BATCH = 64


class EmbeddingStore:
    """An immutable ``(N, d)`` float32 matrix of representations plus ids.

    ``ids[i]`` identifies the trajectory behind row ``i`` (by default its
    ``trajectory_id``), so search results can be mapped back to source data
    after a save/load round trip.

    ``vectors`` is stored read-only (copied first if the caller's array would
    otherwise be aliased): indexes built from the store share the matrix
    without copying, which is only safe because nobody can mutate it.
    """

    def __init__(
        self,
        vectors: np.ndarray,
        ids: np.ndarray | None = None,
        metadata: dict | None = None,
    ) -> None:
        matrix = as_float32_matrix(vectors)
        if matrix is vectors and matrix.flags.writeable:
            matrix = matrix.copy()
        matrix.flags.writeable = False
        self.vectors = matrix
        if ids is None:
            ids = np.arange(self.vectors.shape[0], dtype=np.int64)
        self.ids = np.asarray(ids, dtype=np.int64)
        if self.ids.shape != (self.vectors.shape[0],):
            raise ValueError("ids must have exactly one entry per vector row")
        self.metadata = dict(metadata or {})

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        """Dimensionality of the stored representations."""
        return self.vectors.shape[1]

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        encode,
        trajectories: list,
        *,
        batch_size: int = DEFAULT_ENCODE_BATCH,
        metadata: dict | None = None,
    ) -> "EmbeddingStore":
        """Batch-encode ``trajectories`` into a store.

        ``encode`` is any callable mapping a list of trajectories to an
        ``(N, d)`` array — ``STARTModel.encode`` and every baseline's
        ``encode`` qualify.  Batches are formed over the length-sorted order
        (stable, so equal-length trajectories keep their relative order) and
        results are scattered back, so row ``i`` of the store always
        corresponds to ``trajectories[i]``.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not trajectories:
            raise ValueError("cannot build an EmbeddingStore from zero trajectories")
        vectors: np.ndarray | None = None
        with no_grad():
            for batch_rows in length_bucketed_indices(
                [len(t) for t in trajectories], batch_size
            ):
                batch = [trajectories[i] for i in batch_rows]
                encoded = np.asarray(encode(batch), dtype=np.float32)
                if encoded.shape[0] != len(batch):
                    raise ValueError(
                        f"encode returned {encoded.shape[0]} rows for a batch of {len(batch)}"
                    )
                if vectors is None:
                    vectors = np.empty((len(trajectories), encoded.shape[1]), dtype=np.float32)
                vectors[batch_rows] = encoded
        ids = np.array(
            [getattr(t, "trajectory_id", i) for i, t in enumerate(trajectories)],
            dtype=np.int64,
        )
        # The freshly built matrix is never shared; freeze it here so the
        # constructor adopts it without a defensive copy.
        vectors.flags.writeable = False
        return cls(vectors, ids=ids, metadata=metadata)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path) -> Path:
        """Serialize the store to ``path`` (npz); returns the real path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = {
            "format_version": FORMAT_VERSION,
            "count": int(len(self)),
            "dim": int(self.dim),
            "metadata": self.metadata,
        }
        blob = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez(path, **{_VECTORS_KEY: self.vectors, _IDS_KEY: self.ids, _META_KEY: blob})
        if path.suffix != ".npz":
            path = path.with_suffix(path.suffix + ".npz")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingStore":
        """Load a store produced by :meth:`save`; refuses newer formats."""
        path = Path(path)
        if not path.exists() and path.suffix != ".npz":
            path = path.with_suffix(path.suffix + ".npz")
        with np.load(path, allow_pickle=False) as archive:
            if _META_KEY not in archive.files:
                raise ValueError(f"{path} is not an EmbeddingStore archive")
            meta = json.loads(bytes(archive[_META_KEY].tobytes()).decode("utf-8"))
            version = int(meta.get("format_version", 0))
            if version > FORMAT_VERSION:
                raise ValueError(
                    f"{path} uses EmbeddingStore format v{version}; "
                    f"this build reads up to v{FORMAT_VERSION}"
                )
            vectors = archive[_VECTORS_KEY]
            ids = archive[_IDS_KEY]
        if vectors.dtype == np.float32 and vectors.flags.c_contiguous:
            # Decompressed fresh from the archive — adopt without a copy.
            vectors.flags.writeable = False
        store = cls(vectors, ids=ids, metadata=meta.get("metadata", {}))
        if len(store) != int(meta.get("count", len(store))) or store.dim != int(
            meta.get("dim", store.dim)
        ):
            raise ValueError(f"{path} metadata does not match its arrays")
        return store
