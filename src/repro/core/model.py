"""The START model: TPE-GAT road encoder + Time-Aware Trajectory Encoder.

The model maps a batch of road-network constrained trajectories to

* per-position hidden states ``Z`` (used by span-masked recovery), and
* a pooled trajectory representation ``p`` (the hidden state of the ``[CLS]``
  placeholder inserted at position 0), used by contrastive learning, the
  downstream heads and similarity search.

Every ablation of Figure 7 is reachable through :class:`~repro.core.config.StartConfig`.
"""

from __future__ import annotations

import numpy as np

from repro.core import tokens as tok
from repro.core.batching import BatchBuilder, TrajectoryBatch
from repro.core.config import StartConfig
from repro.core.interval import TimeIntervalBias, hop_interval_matrix
from repro.core.time_features import TimePatternEmbedding
from repro.core.tpe_gat import TPEGAT
from repro.nn import (
    Dropout,
    Embedding,
    Linear,
    Module,
    PositionalEncoding,
    Tensor,
    TransformerEncoder,
    concatenate,
    embedding_lookup,
    is_grad_enabled,
    no_grad,
)
from repro.roadnet.features import road_feature_matrix
from repro.roadnet.network import RoadNetwork
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.transfer import transfer_probability_matrix
from repro.trajectory.types import Trajectory
from repro.utils.seeding import get_rng


class STARTModel(Module):
    """Self-supervised trajectory representation model (the paper's START)."""

    def __init__(
        self,
        network: RoadNetwork,
        config: StartConfig | None = None,
        transfer_probability: np.ndarray | None = None,
        node2vec_embeddings: np.ndarray | None = None,
    ) -> None:
        super().__init__()
        self.config = config or StartConfig()
        self.network = network
        self.num_roads = network.num_roads
        rng = get_rng(self.config.seed)

        # ----- Stage 1: road representations ---------------------------------
        if self.config.road_encoder == "tpe-gat":
            features = road_feature_matrix(network)
            if not self.config.use_transfer_prob:
                transfer_probability = None
            self.road_encoder = TPEGAT(
                network,
                features,
                transfer_probability,
                d_model=self.config.d_model,
                num_layers=self.config.gat_layers,
                heads=self.config.gat_heads,
                rng=rng,
            )
            self.road_embedding = None
        else:
            self.road_encoder = None
            self.road_embedding = Embedding(self.num_roads, self.config.d_model, rng=rng)
            if self.config.road_encoder == "node2vec":
                if node2vec_embeddings is None:
                    raise ValueError("road_encoder='node2vec' requires node2vec_embeddings")
                if node2vec_embeddings.shape != (self.num_roads, self.config.d_model):
                    raise ValueError("node2vec_embeddings has the wrong shape")
                self.road_embedding.weight.data = node2vec_embeddings.astype(np.float32).copy()

        # ----- Stage 2: time-aware trajectory encoder ------------------------
        self.special_embedding = Embedding(tok.NUM_SPECIAL_TOKENS, self.config.d_model, rng=rng)
        self.time_embedding = (
            TimePatternEmbedding(self.config.d_model, rng=rng)
            if self.config.use_time_embedding
            else None
        )
        self.positional_encoding = PositionalEncoding(
            self.config.d_model, max_len=self.config.max_trajectory_length + 1
        )
        self.embedding_dropout = Dropout(self.config.dropout, rng=rng)
        self.interval_bias = (
            TimeIntervalBias(
                decay=self.config.interval_decay,
                adaptive=self.config.adaptive_interval,
                hidden=self.config.interval_hidden,
                rng=rng,
            )
            if self.config.use_time_interval
            else None
        )
        self.encoder = TransformerEncoder(
            d_model=self.config.d_model,
            num_heads=self.config.encoder_heads,
            num_layers=self.config.encoder_layers,
            d_hidden=self.config.ffn_dim,
            dropout=self.config.dropout,
            rng=rng,
        )
        self.mask_head = Linear(self.config.d_model, self.num_roads, rng=rng)
        # Frozen-weights caches of the no-grad inference path: the road table,
        # and the [specials; roads] token table ``encode`` reads (both dropped
        # whenever the model re-enters train mode or loads new weights).
        self._road_cache: Tensor | None = None
        self._token_cache: Tensor | None = None

    # ------------------------------------------------------------------ #
    # Building blocks
    # ------------------------------------------------------------------ #
    def road_representations(self) -> Tensor:
        """``(V, d)`` road representation matrix (stage-one output).

        On the no-grad inference path (eval mode inside ``no_grad()``) the
        matrix is a pure function of frozen weights, so it is computed once
        and cached until the model re-enters train mode or loads a new state
        dict.  Bulk encoding and streaming ingest hit this path for every
        micro-batch; without the cache the full TPE-GAT sweep dominated
        their cost.
        """
        if self.road_encoder is None:
            return embedding_lookup(self.road_embedding.weight, np.arange(self.num_roads))
        if not self.training and not is_grad_enabled():
            if self._road_cache is None:
                self._road_cache = self.road_encoder()
            return self._road_cache
        return self.road_encoder()

    def train(self, mode: bool = True) -> "STARTModel":
        if mode:
            self._road_cache = self._token_cache = None
        return super().train(mode)

    def load_state_dict(self, state: dict, strict: bool = True) -> None:
        self._road_cache = self._token_cache = None
        super().load_state_dict(state, strict=strict)

    def _token_table(self) -> Tensor:
        """``(num_specials + V, d)`` lookup table for token embeddings."""
        return concatenate(
            [
                embedding_lookup(self.special_embedding.weight, np.arange(tok.NUM_SPECIAL_TOKENS)),
                self.road_representations(),
            ],
            axis=0,
        )

    def _fuse_embeddings(
        self, batch: TrajectoryBatch, force_dropout: bool, token_table: Tensor | None = None
    ) -> Tensor:
        """Equation (5): x_i = r_i + tm_i + td_i + pe_i (plus embedding dropout).

        The content embeddings are scaled by ``config.embedding_scale``
        before the sinusoidal position encoding is added.  Without it the
        position table (RMS ~0.7) drowns the road-identity signal coming out
        of the TPE-GAT (RMS ~0.2) and the [CLS] representation learns
        sequence *shape* instead of *content*, which is exactly what the
        similarity-search task punishes; see the config field for why the
        factor is moderate rather than the Transformer's sqrt(d).
        """
        table = token_table if token_table is not None else self._token_table()
        embedded = embedding_lookup(table, batch.tokens)
        if self.time_embedding is not None:
            embedded = embedded + self.time_embedding(batch.minute_indices, batch.day_indices)
        if self.config.embedding_scale != 1.0:
            embedded = embedded * float(self.config.embedding_scale)
        embedded = self.positional_encoding(embedded)
        if force_dropout and not self.training:
            # SimCSE-style augmentation needs dropout noise even in eval mode.
            self.embedding_dropout.train()
            embedded = self.embedding_dropout(embedded)
            self.embedding_dropout.eval()
        else:
            embedded = self.embedding_dropout(embedded)
        return embedded

    def _attention_bias(self, batch: TrajectoryBatch) -> Tensor | None:
        if self.interval_bias is None:
            return None
        if self.config.interval_mode == "hop":
            intervals = hop_interval_matrix(batch.batch_size, batch.seq_len)
        else:
            intervals = batch.intervals
        return self.interval_bias(intervals)

    # ------------------------------------------------------------------ #
    # Forward passes
    # ------------------------------------------------------------------ #
    def forward(
        self, batch: TrajectoryBatch, token_table: Tensor | None = None
    ) -> tuple[Tensor, Tensor]:
        """Return ``(sequence_output, pooled)`` for a batch.

        ``sequence_output`` is ``(B, L, d)`` and ``pooled`` is the ``[CLS]``
        hidden state ``(B, d)`` — the trajectory representation ``p_i``.

        ``token_table`` lets callers that run several forwards against the
        same weights (the pre-trainer's mask + two contrastive views, bulk
        encoding) compute the stage-one road table once and share the graph
        node; gradients still accumulate correctly because autograd handles
        reused subgraphs.
        """
        embedded = self._fuse_embeddings(
            batch, force_dropout=batch.use_embedding_dropout, token_table=token_table
        )
        bias = self._attention_bias(batch)
        hidden = self.encoder(embedded, attention_bias=bias, key_padding_mask=batch.padding_mask)
        pooled = hidden[:, 0, :]
        return hidden, pooled

    def mask_logits(self, sequence_output: Tensor) -> Tensor:
        """Project hidden states to road logits for span-masked recovery."""
        return self.mask_head(sequence_output)

    # ------------------------------------------------------------------ #
    # Inference helpers
    # ------------------------------------------------------------------ #
    def make_builder(self, rng: np.random.Generator | None = None) -> BatchBuilder:
        """A :class:`BatchBuilder` matching this model's configuration."""
        return BatchBuilder(
            num_roads=self.num_roads,
            max_length=self.config.max_trajectory_length,
            mask_ratio=self.config.mask_ratio,
            mask_length=self.config.mask_length,
            rng=rng if rng is not None else get_rng(self.config.seed),
        )

    def encode(
        self,
        trajectories: list[Trajectory],
        batch_size: int | None = None,
        time_mode: str = "full",
    ) -> np.ndarray:
        """Encode trajectories into ``(N, d)`` representation vectors (no grad)."""
        if not trajectories:
            return np.zeros((0, self.config.d_model), dtype=np.float32)
        batch_size = batch_size or self.config.batch_size
        # Builds without span masks draw nothing, so no generator is seeded.
        builder = BatchBuilder(self.num_roads, max_length=self.config.max_trajectory_length)
        was_training = self.training
        if was_training:  # eval() walks the whole module tree
            self.eval()
        outputs: list[np.ndarray] = []
        with no_grad():
            if self._token_cache is None:  # one stage-one sweep until the weights change
                self._token_cache = self._token_table()
            table = self._token_cache
            for start in range(0, len(trajectories), batch_size):
                chunk = trajectories[start : start + batch_size]
                batch = builder.build(chunk, span_mask=False, time_mode=time_mode)
                _, pooled = self.forward(batch, token_table=table)
                outputs.append(pooled.data.astype(np.float32))
        if was_training:
            self.train()
        return np.concatenate(outputs, axis=0)

    @classmethod
    def from_dataset(
        cls,
        dataset: TrajectoryDataset,
        config: StartConfig | None = None,
        node2vec_embeddings: np.ndarray | None = None,
    ) -> "STARTModel":
        """Convenience constructor: derives the transfer matrix from the training split."""
        transfer = transfer_probability_matrix(dataset.network, dataset.train_trajectories())
        return cls(
            dataset.network,
            config=config,
            transfer_probability=transfer,
            node2vec_embeddings=node2vec_embeddings,
        )
