"""The bulk-encode hot path before vectorisation, kept as a reference.

A copy of the per-row batch builder -- ``_fill_row`` walked every point in
Python and called ``minute_of_day`` / ``day_of_week`` (one ``datetime`` per
point) -- and of the ``softmax`` / ``layer_norm`` / ``fused_attention``
inference kernels that reduced the row max over the trailing axis and
allocated a fresh array per step.  The vectorised ``BatchBuilder`` and the
in-place kernels in :mod:`repro.nn.kernels` are tested and timed against
them, bit for bit, the way ``exact_scan_reference`` keeps the old scan.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core import tokens as tok
from repro.core.batching import TrajectoryBatch, _class_label, _span_mask_positions
from repro.core.interval import raw_interval_matrix
from repro.trajectory.types import day_of_week, minute_of_day
from repro.utils.seeding import get_rng

NEG_INF = -1e9


def batch_mismatch(batch: TrajectoryBatch, expected: TrajectoryBatch) -> str | None:
    """The first field whose dtype, shape or bytes differ, or ``None``."""
    for field in dataclasses.fields(TrajectoryBatch):
        got, want = getattr(batch, field.name), getattr(expected, field.name)
        if isinstance(want, np.ndarray):
            same = got.dtype == want.dtype and got.shape == want.shape
            if not same or got.tobytes() != want.tobytes():
                return field.name
        elif got != want:
            return field.name
    return None


class ReferenceBatchBuilder:
    """The per-row ``BatchBuilder``: same constructor, same RNG draws."""

    def __init__(
        self,
        num_roads: int,
        max_length: int = 128,
        mask_ratio: float = 0.15,
        mask_length: int = 2,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.num_roads = num_roads
        self.max_length = max_length
        self.mask_ratio = mask_ratio
        self.mask_length = mask_length
        self._rng = rng if rng is not None else get_rng()

    def _truncate(self, roads, timestamps):
        limit = self.max_length - 1  # reserve one position for [CLS]
        return roads[:limit], timestamps[:limit]

    def _allocate(self, batch: int, width: int) -> dict[str, np.ndarray]:
        return {
            "tokens": np.full((batch, width), tok.PAD_TOKEN, dtype=np.int64),
            "minutes": np.full((batch, width), tok.MINUTE_PAD, dtype=np.int64),
            "days": np.full((batch, width), tok.DAY_PAD, dtype=np.int64),
            "times": np.zeros((batch, width), dtype=np.float64),
            "padding": np.ones((batch, width), dtype=bool),
            "labels": np.full((batch, width), tok.IGNORE_LABEL, dtype=np.int64),
            "lengths": np.zeros(batch, dtype=np.int64),
        }

    def _fill_row(self, arrays, row, roads, timestamps, mask_positions, add_labels, time_mode):
        """Populate one row; ``mask_positions`` are indices into ``roads``."""
        length = len(roads) + 1  # plus [CLS]
        arrays["lengths"][row] = length
        arrays["padding"][row, :length] = False
        departure = timestamps[0] if timestamps else 0.0

        arrays["tokens"][row, 0] = tok.CLS_TOKEN
        arrays["times"][row, 0] = departure
        arrays["minutes"][row, 0] = minute_of_day(departure)
        arrays["days"][row, 0] = day_of_week(departure)

        mask_set = set(mask_positions or [])
        for position, (road, timestamp) in enumerate(zip(roads, timestamps)):
            column = position + 1
            if time_mode == "departure_only":
                arrays["times"][row, column] = departure
                arrays["minutes"][row, column] = minute_of_day(departure)
                arrays["days"][row, column] = day_of_week(departure)
            else:
                arrays["times"][row, column] = timestamp
                arrays["minutes"][row, column] = minute_of_day(timestamp)
                arrays["days"][row, column] = day_of_week(timestamp)
            if position in mask_set:
                arrays["tokens"][row, column] = tok.MASK_TOKEN
                arrays["minutes"][row, column] = tok.MINUTE_MASK
                arrays["days"][row, column] = tok.DAY_MASK
                if add_labels:
                    arrays["labels"][row, column] = road
            else:
                arrays["tokens"][row, column] = tok.road_to_token(road)

    def _finalize(self, arrays, trajectories, use_embedding_dropout, label_kind):
        intervals = raw_interval_matrix(arrays["times"], arrays["padding"])
        travel_times = np.zeros(arrays["tokens"].shape[0], dtype=np.float64)
        class_labels = np.zeros(arrays["tokens"].shape[0], dtype=np.int64)
        if trajectories is not None:
            travel_times = np.array([t.travel_time for t in trajectories], dtype=np.float64)
            class_labels = np.array(
                [_class_label(t, label_kind) for t in trajectories], dtype=np.int64
            )
        return TrajectoryBatch(
            tokens=arrays["tokens"],
            minute_indices=arrays["minutes"],
            day_indices=arrays["days"],
            timestamps=arrays["times"],
            padding_mask=arrays["padding"],
            intervals=intervals,
            mask_labels=arrays["labels"],
            lengths=arrays["lengths"],
            travel_times=travel_times,
            class_labels=class_labels,
            use_embedding_dropout=use_embedding_dropout,
        )

    def build(self, trajectories, span_mask=False, time_mode="full", label_kind="occupied"):
        if time_mode not in ("full", "departure_only"):
            raise ValueError("time_mode must be 'full' or 'departure_only'")
        prepared = [self._truncate(t.roads, t.timestamps) for t in trajectories]
        width = max(len(roads) for roads, _ in prepared) + 1
        arrays = self._allocate(len(trajectories), width)
        for row, (roads, times) in enumerate(prepared):
            mask_positions = None
            if span_mask:
                mask_positions = _span_mask_positions(
                    len(roads), self.mask_ratio, self.mask_length, self._rng
                )
            self._fill_row(
                arrays, row, roads, times, mask_positions, add_labels=span_mask, time_mode=time_mode
            )
        return self._finalize(arrays, trajectories, False, label_kind)

    def build_from_views(self, views):
        prepared = [self._truncate(v.roads, v.timestamps) for v in views]
        width = max(len(roads) for roads, _ in prepared) + 1
        arrays = self._allocate(len(views), width)
        any_dropout = any(v.use_embedding_dropout for v in views)
        for row, ((roads, times), view) in enumerate(zip(prepared, views)):
            mask_positions = [p for p in view.mask_positions if p < len(roads)]
            self._fill_row(
                arrays, row, roads, times, mask_positions, add_labels=False, time_mode="full"
            )
        return self._finalize(arrays, None, any_dropout, "occupied")


# --------------------------------------------------------------------- #
# Inference kernels
# --------------------------------------------------------------------- #
def linear(x, weight, bias):
    out = x @ weight
    if bias is not None:
        out += bias
    return out


def layer_norm(x, gamma, beta, eps=1e-5):
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    variance = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / np.sqrt(variance + eps) * gamma + beta


def softmax(x, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    return shifted


def fused_attention(
    x,
    qkv_weight,
    qkv_bias,
    out_weight,
    out_bias,
    num_heads,
    attention_bias=None,
    key_padding_mask=None,
    return_weights=False,
):
    batch, seq, d_model = x.shape
    d_head = d_model // num_heads
    qkv = linear(x, qkv_weight, qkv_bias)  # (B, L, 3d)
    qkv = qkv.reshape(batch, seq, 3, num_heads, d_head)
    # (3, B, heads, L, d_head) — one transpose for all of Q/K/V.
    qkv = qkv.transpose(2, 0, 3, 1, 4)
    query, key, value = qkv[0], qkv[1], qkv[2]

    query = query * np.float32(1.0 / np.sqrt(d_head))
    scores = query @ key.transpose(0, 1, 3, 2)  # (B, heads, L, L)
    if attention_bias is not None:
        scores = scores + attention_bias
    if key_padding_mask is not None:
        mask = np.asarray(key_padding_mask, dtype=bool)
        scores = np.where(mask[:, None, None, :], np.float32(NEG_INF), scores)

    weights = softmax(scores, axis=-1)
    context = weights @ value  # (B, heads, L, d_head)
    context = context.transpose(0, 2, 1, 3).reshape(batch, seq, d_model)
    output = linear(context, out_weight, out_bias)
    if return_weights:
        return output, weights.mean(axis=1)
    return output
