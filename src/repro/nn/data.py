"""Mini-batching utilities for variable-length sequences.

The trajectory encoders all consume padded ``(batch, seq)`` integer arrays
plus a key-padding mask; :func:`pad_sequences` and :class:`BatchIterator`
provide that plumbing.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.utils.seeding import get_rng


def pad_sequences(
    sequences: Sequence[Sequence[int]],
    pad_value: int = 0,
    max_len: int | None = None,
    dtype=np.int64,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad a list of integer sequences to a rectangle.

    Returns
    -------
    padded:
        ``(batch, max_len)`` array filled with ``pad_value`` beyond each
        sequence's length.
    lengths:
        ``(batch,)`` true lengths (possibly truncated to ``max_len``).
    padding_mask:
        Boolean ``(batch, max_len)`` array, ``True`` where padded.
    """
    lengths = np.array([min(len(s), max_len) if max_len else len(s) for s in sequences], dtype=np.int64)
    width = int(max_len if max_len is not None else (lengths.max() if len(lengths) else 0))
    padded = np.full((len(sequences), width), pad_value, dtype=dtype)
    for row, seq in enumerate(sequences):
        truncated = list(seq)[:width]
        padded[row, : len(truncated)] = truncated
    positions = np.arange(width)[None, :]
    padding_mask = positions >= lengths[:, None]
    return padded, lengths, padding_mask


def pad_float_sequences(
    sequences: Sequence[Sequence[float]],
    pad_value: float = 0.0,
    max_len: int | None = None,
) -> np.ndarray:
    """Pad float sequences (timestamps, speeds) to a rectangle."""
    padded, _, _ = pad_sequences(sequences, pad_value=pad_value, max_len=max_len, dtype=np.float64)
    return padded


class BatchIterator:
    """Iterate over indices of a dataset in (optionally shuffled) mini-batches."""

    def __init__(
        self,
        num_items: int,
        batch_size: int,
        shuffle: bool = True,
        drop_last: bool = False,
        rng: np.random.Generator | None = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.num_items = num_items
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = rng if rng is not None else get_rng()

    def __len__(self) -> int:
        if self.drop_last:
            return self.num_items // self.batch_size
        return (self.num_items + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[np.ndarray]:
        order = np.arange(self.num_items)
        if self.shuffle:
            self._rng.shuffle(order)
        for start in range(0, self.num_items, self.batch_size):
            batch = order[start : start + self.batch_size]
            if self.drop_last and len(batch) < self.batch_size:
                break
            yield batch


def length_bucketed_indices(lengths: Sequence[int], batch_size: int) -> Iterator[np.ndarray]:
    """Yield index batches over the length-sorted order (stable argsort).

    Padding work in the encoders grows with the longest member of a batch,
    so batching length-neighbours keeps short sequences out of wide batches.
    The sort is stable, so equal-length items keep their relative order;
    callers scatter results back through the yielded index arrays
    (``Engine.encode`` and the fine-tuning ``predict`` sweeps share this
    helper).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = np.argsort(np.asarray(lengths, dtype=np.int64), kind="stable")
    for start in range(0, len(order), batch_size):
        yield order[start : start + batch_size]
