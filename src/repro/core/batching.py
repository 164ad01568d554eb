"""Batch construction for the trajectory encoders.

Turns lists of :class:`~repro.trajectory.types.Trajectory` (or augmented
views) into the padded integer/float arrays the model consumes: token ids
with the ``[CLS]`` placeholder at position 0, minute / day-of-week indices,
raw time-interval matrices, padding masks, span-mask labels and downstream
labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import tokens as tok
from repro.core.interval import raw_interval_matrix
from repro.trajectory.augmentation import AugmentedView
from repro.trajectory.types import (
    Trajectory,
    days_of_week,
    minutes_of_day,
    timestamps_in_range,
    whole_seconds,
)
from repro.utils.seeding import get_rng


@dataclass
class TrajectoryBatch:
    """Model-ready arrays for one mini-batch (first position is [CLS])."""

    tokens: np.ndarray                 # (B, L) int64
    minute_indices: np.ndarray         # (B, L) int64
    day_indices: np.ndarray            # (B, L) int64
    timestamps: np.ndarray             # (B, L) float64
    padding_mask: np.ndarray           # (B, L) bool, True = padded
    intervals: np.ndarray              # (B, L, L) float64 seconds
    mask_labels: np.ndarray            # (B, L) int64 road ids or IGNORE_LABEL
    lengths: np.ndarray                # (B,) true lengths including [CLS]
    travel_times: np.ndarray           # (B,) float64 seconds
    class_labels: np.ndarray           # (B,) int64
    use_embedding_dropout: bool = False
    metadata: dict = field(default_factory=dict)

    @property
    def batch_size(self) -> int:
        return int(self.tokens.shape[0])

    @property
    def seq_len(self) -> int:
        return int(self.tokens.shape[1])


def _span_mask_positions(
    length: int, mask_ratio: float, mask_length: int, rng: np.random.Generator
) -> list[int]:
    """Choose consecutive spans covering ~``mask_ratio`` of the positions."""
    if length <= 1:
        return []
    target = max(int(round(length * mask_ratio)), 1)
    chosen: set[int] = set()
    attempts = 0
    while len(chosen) < target and attempts < 10 * target:
        attempts += 1
        start = int(rng.integers(0, length))
        for offset in range(mask_length):
            if start + offset < length and len(chosen) < target + mask_length:
                chosen.add(start + offset)
    return sorted(chosen)


class BatchBuilder:
    """Builds :class:`TrajectoryBatch` objects for pre-training and fine-tuning."""

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
        self._rng = rng  # None: seeded by get_rng() at the first span mask

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _truncate(self, roads: list[int], timestamps: list[float]) -> tuple[list[int], list[float]]:
        limit = self.max_length - 1  # reserve one position for [CLS]
        return roads[:limit], timestamps[:limit]

    def _points(
        self, rows: list[tuple[list[int], list[float]]], departure_only: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every row flattened with its ``[CLS]`` slot first (departure time).

        Returns the row lengths and the flat road ids, timestamps and whole
        seconds.  Raises ``ValueError`` naming the batch row of the first
        road id outside ``[0, num_roads)`` or timestamp
        :func:`~repro.trajectory.types.whole_seconds` refuses.
        """
        road_values: list = []
        time_values: list = []
        for roads, times in rows:
            departure = times[0] if times else 0.0
            road_values.append(0)  # the [CLS] slot: any valid id, overwritten in _fill
            road_values.extend(roads)
            time_values.append(departure)
            time_values.extend([departure] * len(times) if departure_only else times)
        lengths = np.array([len(roads) + 1 for roads, _ in rows], dtype=np.int64)

        road_ids = np.array(road_values, dtype=np.int64)
        out_of_range = road_ids.view(np.uint64) >= self.num_roads  # negatives wrap high
        if out_of_range.any():
            index = int(np.argmax(out_of_range))
            raise ValueError(
                f"batch row {_row_of(lengths, index)}: road id {road_ids[index]} "
                f"is outside [0, {self.num_roads})"
            )
        timestamps = np.array(time_values, dtype=np.float64)
        try:
            seconds = whole_seconds(timestamps)
        except ValueError as error:
            index = int(np.argmax(~timestamps_in_range(timestamps)))
            raise ValueError(f"batch row {_row_of(lengths, index)}: {error}") from None
        return lengths, road_ids, timestamps, seconds

    def _fill(
        self,
        rows: list[tuple[list[int], list[float]]],
        mask_positions: list | None,
        add_labels: bool,
        time_mode: str,
    ) -> dict[str, np.ndarray]:
        """Fill every padded array of the batch at once.

        The flat points of :meth:`_points` are scattered into the ``(B, W)``
        arrays by one masked assignment through ``arange(W) < lengths[:, None]``.
        ``mask_positions[row]`` indexes that row's roads; positions outside
        the truncated row are ignored and duplicates collapse.
        """
        lengths, road_ids, timestamps, seconds = self._points(
            rows, departure_only=time_mode == "departure_only"
        )
        batch, width = len(rows), int(lengths.max())
        valid = np.arange(width) < lengths[:, None]

        tokens = np.full((batch, width), tok.PAD_TOKEN, dtype=np.int64)
        tokens[valid] = road_ids + tok.NUM_SPECIAL_TOKENS
        tokens[:, 0] = tok.CLS_TOKEN
        minutes = np.full((batch, width), tok.MINUTE_PAD, dtype=np.int64)
        minutes[valid] = minutes_of_day(seconds)
        days = np.full((batch, width), tok.DAY_PAD, dtype=np.int64)
        days[valid] = days_of_week(seconds)
        times = np.zeros((batch, width), dtype=np.float64)
        times[valid] = timestamps
        labels = np.full((batch, width), tok.IGNORE_LABEL, dtype=np.int64)

        if mask_positions is not None:
            mask_rows = np.repeat(np.arange(batch), [len(p) for p in mask_positions])
            flat_positions = [p for positions in mask_positions for p in positions]
            columns = np.array(flat_positions, dtype=np.int64) + 1
            keep = (columns >= 1) & (columns < lengths[mask_rows])
            masked = np.zeros((batch, width), dtype=bool)
            masked[mask_rows[keep], columns[keep]] = True
            if add_labels:
                labels[masked] = tokens[masked] - tok.NUM_SPECIAL_TOKENS
            tokens[masked] = tok.MASK_TOKEN
            minutes[masked] = tok.MINUTE_MASK
            days[masked] = tok.DAY_MASK
        return {
            "tokens": tokens,
            "minutes": minutes,
            "days": days,
            "times": times,
            "padding": ~valid,
            "labels": labels,
            "lengths": lengths,
        }

    def _finalize(
        self,
        arrays: dict[str, np.ndarray],
        trajectories: list[Trajectory] | None,
        use_embedding_dropout: bool,
        label_kind: str,
    ) -> TrajectoryBatch:
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

    # ------------------------------------------------------------------ #
    # Public builders
    # ------------------------------------------------------------------ #
    def build(
        self,
        trajectories: list[Trajectory],
        span_mask: bool = False,
        time_mode: str = "full",
        label_kind: str = "occupied",
    ) -> TrajectoryBatch:
        """Build a batch from plain trajectories.

        Parameters
        ----------
        span_mask:
            Apply span-masked recovery masking (pre-training).
        time_mode:
            ``"full"`` uses every visit time; ``"departure_only"`` exposes only
            the departure time (used when fine-tuning travel-time estimation to
            avoid label leakage).
        label_kind:
            Which classification label to extract ('occupied', 'driver', 'mode').
        """
        if time_mode not in ("full", "departure_only"):
            raise ValueError("time_mode must be 'full' or 'departure_only'")
        rows = [self._truncate(t.roads, t.timestamps) for t in trajectories]
        mask_positions = None
        if span_mask:
            if self._rng is None:
                self._rng = get_rng()
            mask_positions = [
                _span_mask_positions(len(roads), self.mask_ratio, self.mask_length, self._rng)
                for roads, _ in rows
            ]
        arrays = self._fill(rows, mask_positions, add_labels=span_mask, time_mode=time_mode)
        return self._finalize(arrays, trajectories, False, label_kind)

    def check(self, trajectories: list[Trajectory]) -> None:
        """Raise the ``ValueError`` :meth:`build` raises for ``trajectories``.

        That is, name the batch row of the first road id outside
        ``[0, num_roads)`` or unusable timestamp within the truncated length;
        return ``None`` when :meth:`build` would take them all.
        """
        rows = [self._truncate(t.roads, t.timestamps) for t in trajectories]
        self._points(rows, departure_only=False)

    def build_from_views(self, views: list[AugmentedView]) -> TrajectoryBatch:
        """Build a batch from augmented views (contrastive learning)."""
        rows = [self._truncate(v.roads, v.timestamps) for v in views]
        any_dropout = any(v.use_embedding_dropout for v in views)
        arrays = self._fill(
            rows, [v.mask_positions for v in views], add_labels=False, time_mode="full"
        )
        return self._finalize(arrays, None, any_dropout, "occupied")


def _row_of(lengths: np.ndarray, index: int) -> int:
    """The batch row holding entry ``index`` of a flattened batch."""
    return int(np.searchsorted(np.cumsum(lengths), index, side="right"))


def _class_label(trajectory: Trajectory, label_kind: str) -> int:
    if label_kind == "occupied":
        return int(trajectory.occupied)
    if label_kind == "driver":
        return int(trajectory.user_id)
    if label_kind == "mode":
        modes = ("car", "walk", "bike", "bus")
        return modes.index(trajectory.mode) if trajectory.mode in modes else 0
    raise ValueError(f"unknown label_kind '{label_kind}'")
