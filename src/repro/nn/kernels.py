"""Pure-NumPy float32 inference kernels for the no-grad fast path.

Training goes through the autograd :class:`~repro.nn.tensor.Tensor`; inference
does not need a graph at all, so the hot modules (attention, GRU/LSTM, the
Transformer encoder layer) dispatch to these kernels automatically when
``repro.nn.tensor.is_grad_enabled()`` is False and the module is in eval mode.
Each kernel operates on raw ``np.ndarray`` weights (the ``.data`` of the
module's parameters), allocates no intermediate ``Tensor`` objects, and fuses
what NumPy lets us fuse:

* attention runs off a single packed ``(d, 3d)`` Q/K/V GEMM and scales the
  query before the score GEMM instead of scaling the score matrix;
* the recurrent kernels hoist the input projection of *all* timesteps into
  one GEMM outside the step loop, so the Python-level loop does only the
  ``(B, H) @ (H, 3H)`` recurrent half;
* ``gather_last`` / ``reverse_within_lengths`` are single fancy-indexing
  expressions instead of per-row Python loops.

The kernel-equivalence tests in ``tests/test_nn_kernels.py`` pin these
implementations to the autograd path (and to the seed per-step reference)
within ``rtol=1e-5``.  ``softmax``, ``layer_norm`` and ``fused_attention``
work in place where that keeps every float operation and its order, and
``tests/test_bulk_encode_exact.py`` pins them bit for bit to their
out-of-place versions in ``tests/bulk_encode_reference.py``.
"""

from __future__ import annotations

import numpy as np

NEG_INF = -1e9


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    out = x @ weight
    if bias is not None:
        out += bias
    return out


def _add_into(out: np.ndarray, other: np.ndarray) -> np.ndarray:
    """``out + other``, written into ``out`` where that keeps the same words.

    NumPy adds into a one-element ``out`` as a reduction, which keeps
    ``other``'s NaN where ``out + other`` keeps ``out``'s; arrays of two or
    more elements agree.  So a one-element sum is taken out of place.
    """
    if out.size == 1:
        return out + other
    out += other
    return out


def layer_norm(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    variance = (centered * centered).mean(axis=-1, keepdims=True)
    centered /= np.sqrt(variance + eps)
    if centered.dtype != np.result_type(centered, gamma, beta):
        return centered * gamma + beta  # wider weights promote, as out of place
    centered *= gamma
    return _add_into(centered, beta)


#: Below this many rows NumPy's own per-row max is faster than transposing:
#: on one trip's ``(1, 4, L, L)`` scores it won at 28-96 rows (bar a tie at
#: 64) and lost at 104-128 rows, and every ``(16, 4, L, L)`` batch (448+
#: rows) reduced 2-5x faster transposed.
_TRANSPOSE_MIN_ROWS = 100
#: Elements per transposed block (128 KiB of float32), so a block stays in cache.
_TRANSPOSE_BLOCK = 1 << 15


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)`` at array speed, for :func:`softmax`.

    NumPy reduces a short trailing axis one row at a time.  Here the rows
    are transposed block by block instead, so the max reduces a contiguous
    leading axis with whole-block ``maximum`` calls; a max is exact in any
    order, except that the sign of a zero max may differ (``+0 == -0``, so
    which zero ``maximum`` keeps depends on the order).  ``softmax`` is
    unaffected: ``x - (+0)`` and ``x - (-0)`` differ only on zeros, and
    ``exp`` maps both zeros to 1.  Rows holding a NaN are reduced again the
    reference way, so the NaN they carry is the one ``x.max`` picks.
    """
    width = x.shape[-1]
    rows = x.size // width if width else 0
    if rows < _TRANSPOSE_MIN_ROWS:
        return x.max(axis=-1, keepdims=True)
    flat = x.reshape(rows, width)
    out = np.empty(rows, dtype=x.dtype)
    step = max(_TRANSPOSE_BLOCK // width, 1)
    for start in range(0, rows, step):
        block = np.ascontiguousarray(flat[start : start + step].T)
        np.maximum.reduce(block, axis=0, out=out[start : start + step])
    nan_rows = np.isnan(out)
    if nan_rows.any():
        out[nan_rows] = flat[nan_rows].max(axis=-1)
    return out.reshape(x.shape[:-1] + (1,))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    if axis in (-1, x.ndim - 1):
        shifted = x - _row_max(x)
    else:
        shifted = x - x.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    return shifted


def fused_attention(
    x: np.ndarray,
    qkv_weight: np.ndarray,
    qkv_bias: np.ndarray,
    out_weight: np.ndarray,
    out_bias: np.ndarray,
    num_heads: int,
    attention_bias: np.ndarray | None = None,
    key_padding_mask: np.ndarray | None = None,
    return_weights: bool = False,
):
    """Multi-head self-attention with one packed Q/K/V projection.

    ``x`` is ``(B, L, d)``; returns ``(B, L, d)`` (plus head-averaged weights
    when requested).  Mirrors :class:`repro.nn.MultiHeadSelfAttention`.
    """
    batch, seq, d_model = x.shape
    d_head = d_model // num_heads
    qkv = linear(x, qkv_weight, qkv_bias)  # (B, L, 3d)
    qkv = qkv.reshape(batch, seq, 3, num_heads, d_head)
    # (3, B, heads, L, d_head) — one transpose for all of Q/K/V.
    qkv = qkv.transpose(2, 0, 3, 1, 4)
    query, key, value = qkv[0], qkv[1], qkv[2]

    query = query * np.float32(1.0 / np.sqrt(d_head))
    scores = query @ key.transpose(0, 1, 3, 2)  # (B, heads, L, L), a fresh array
    if attention_bias is not None:
        if attention_bias.dtype == scores.dtype:
            scores = _add_into(scores, attention_bias)
        else:
            scores = scores + attention_bias  # a float64 bias promotes the scores
    if key_padding_mask is not None:
        mask = np.asarray(key_padding_mask, dtype=bool)
        np.copyto(scores, np.float32(NEG_INF), where=mask[:, None, None, :])

    weights = softmax(scores, axis=-1)
    context = weights @ value  # (B, heads, L, d_head)
    context = context.transpose(0, 2, 1, 3).reshape(batch, seq, d_model)
    output = linear(context, out_weight, out_bias)
    if return_weights:
        return output, weights.mean(axis=1)
    return output


def feed_forward(
    x: np.ndarray,
    weight1: np.ndarray,
    bias1: np.ndarray,
    weight2: np.ndarray,
    bias2: np.ndarray,
) -> np.ndarray:
    hidden = linear(x, weight1, bias1)
    np.maximum(hidden, 0.0, out=hidden)
    return linear(hidden, weight2, bias2)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out


def gru_sequence(
    x: np.ndarray,
    weight_ih: np.ndarray,
    bias_ih: np.ndarray,
    weight_hh: np.ndarray,
    bias_hh: np.ndarray,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """All hidden states ``(B, L, H)`` of a full GRU sweep.

    The input half of the gates for every timestep is one ``(B*L, in)`` GEMM;
    the loop carries only the ``(B, H) @ (H, 3H)`` recurrent half.
    """
    batch, seq_len, _ = x.shape
    hidden_size = weight_hh.shape[0]
    gates_x = (x.reshape(batch * seq_len, -1) @ weight_ih + bias_ih).reshape(
        batch, seq_len, 3 * hidden_size
    )
    hidden = (
        initial.astype(np.float32, copy=True)
        if initial is not None
        else np.zeros((batch, hidden_size), dtype=np.float32)
    )
    outputs = np.empty((batch, seq_len, hidden_size), dtype=np.float32)
    h = hidden_size
    for step in range(seq_len):
        gx = gates_x[:, step, :]
        gh = hidden @ weight_hh + bias_hh
        reset = _sigmoid(gx[:, :h] + gh[:, :h])
        update = _sigmoid(gx[:, h : 2 * h] + gh[:, h : 2 * h])
        candidate = np.tanh(gx[:, 2 * h :] + reset * gh[:, 2 * h :])
        hidden = update * hidden + (1.0 - update) * candidate
        outputs[:, step, :] = hidden
    return outputs


def lstm_sequence(
    x: np.ndarray,
    weight_ih: np.ndarray,
    bias_ih: np.ndarray,
    weight_hh: np.ndarray,
    bias_hh: np.ndarray,
    initial: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """All hidden states ``(B, L, H)`` of a full LSTM sweep (same layout as GRU)."""
    batch, seq_len, _ = x.shape
    hidden_size = weight_hh.shape[0]
    gates_x = (x.reshape(batch * seq_len, -1) @ weight_ih + bias_ih).reshape(
        batch, seq_len, 4 * hidden_size
    )
    if initial is not None:
        hidden = initial[0].astype(np.float32, copy=True)
        cell = initial[1].astype(np.float32, copy=True)
    else:
        hidden = np.zeros((batch, hidden_size), dtype=np.float32)
        cell = np.zeros((batch, hidden_size), dtype=np.float32)
    outputs = np.empty((batch, seq_len, hidden_size), dtype=np.float32)
    h = hidden_size
    for step in range(seq_len):
        gates = gates_x[:, step, :] + hidden @ weight_hh + bias_hh
        input_gate = _sigmoid(gates[:, :h])
        forget_gate = _sigmoid(gates[:, h : 2 * h])
        cell_candidate = np.tanh(gates[:, 2 * h : 3 * h])
        output_gate = _sigmoid(gates[:, 3 * h :])
        cell = forget_gate * cell + input_gate * cell_candidate
        hidden = output_gate * np.tanh(cell)
        outputs[:, step, :] = hidden
    return outputs


def gather_last(all_hidden: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Row ``i``'s hidden state at position ``lengths[i] - 1`` (vectorised)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    last = np.maximum(lengths - 1, 0)
    return all_hidden[np.arange(all_hidden.shape[0]), last]


def reverse_within_lengths_index(lengths: np.ndarray, seq_len: int) -> np.ndarray:
    """Column gather index that reverses each row within its true length.

    ``index[b, t] = lengths[b] - 1 - t`` for ``t < lengths[b]`` and ``t``
    (identity) on padding, so padded positions stay in place.  Applying the
    same index twice is the identity, which is what lets a BiGRU reverse the
    input and un-reverse the backward outputs with one helper.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    positions = np.arange(seq_len, dtype=np.int64)[None, :]
    reversed_cols = lengths[:, None] - 1 - positions
    return np.where(positions < lengths[:, None], reversed_cols, positions)
