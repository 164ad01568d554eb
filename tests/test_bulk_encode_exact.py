"""The vectorised bulk-encode path reproduces the per-row one bit for bit.

``bulk_encode_reference`` holds the builder and inference kernels the hot
path replaced.  Every ``TrajectoryBatch`` field must keep its dtype, shape
and bytes, the builder's RNG must end in the same state, and the kernels
must return the same words even with NaN, +-inf and +-0 in their inputs --
so an encoding never moves, not even in its last bit.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bulk_encode_reference as reference
from repro.api import Engine, EngineConfig
from repro.core.batching import BatchBuilder, TrajectoryBatch
from repro.core.config import StartConfig
from repro.nn import kernels
from repro.trajectory.augmentation import AugmentedView
from repro.trajectory.presets import build_dataset
from repro.trajectory.types import FIRST_SECOND, LAST_SECOND, REFERENCE_EPOCH, Trajectory

NUM_ROADS = 7


def assert_same_batch(batch: TrajectoryBatch, expected: TrajectoryBatch) -> None:
    assert reference.batch_mismatch(batch, expected) is None


# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #
_OFFSETS = st.sampled_from(
    [0, 0.0, -0.0, 0.5, -0.5, 1, -1, -1.5, 59.999, 60, 3599.5, 86399, 86399.999, 86400]
)
#: Day and week boundaries around the synthetic epoch and around 1970,
#: negative and fractional seconds, and datetime's first and last second.
timestamps = st.one_of(
    st.builds(lambda day, offset: REFERENCE_EPOCH + day * 86400 + offset,
              st.integers(-8, 16), _OFFSETS),
    st.builds(lambda day, offset: day * 86400 + offset, st.integers(-8, 8), _OFFSETS),
    st.sampled_from([FIRST_SECOND, FIRST_SECOND - 0.5, LAST_SECOND, LAST_SECOND + 0.999]),
    st.floats(min_value=-1e10, max_value=1e10),
)


@st.composite
def points(draw, max_size: int = 9):
    size = draw(st.integers(0, max_size))
    roads = draw(st.lists(st.integers(0, NUM_ROADS - 1), min_size=size, max_size=size))
    times = draw(st.lists(timestamps, min_size=size, max_size=size))
    return roads, times


@st.composite
def trajectories(draw):
    roads, times = draw(points())
    return Trajectory(
        roads=roads,
        timestamps=times,
        user_id=draw(st.integers(0, 5)),
        occupied=draw(st.integers(0, 1)),
        mode=draw(st.sampled_from(["car", "walk", "bike", "bus", "boat"])),
    )


@st.composite
def views(draw):
    roads, times = draw(points())
    return AugmentedView(
        roads=roads,
        timestamps=times,
        # Out-of-range (negative, past the end, past the truncation) and duplicates.
        mask_positions=draw(st.lists(st.integers(-3, 12), max_size=8)),
        use_embedding_dropout=draw(st.booleans()),
    )


builder_settings = st.fixed_dictionaries(
    {
        "max_length": st.integers(1, 11),
        "mask_ratio": st.sampled_from([0.1, 0.15, 0.3, 0.6]),
        "mask_length": st.integers(1, 3),
    }
)


def builder_pair(params: dict, seed: int, num_roads: int = NUM_ROADS):
    built = BatchBuilder(num_roads, rng=np.random.default_rng(seed), **params)
    expected = reference.ReferenceBatchBuilder(num_roads, rng=np.random.default_rng(seed), **params)
    return built, expected


class TestBuilderMatchesPerRowReference:
    @settings(max_examples=150, deadline=None)
    @given(
        batch=st.lists(trajectories(), min_size=1, max_size=6),
        params=builder_settings,
        seed=st.integers(0, 2**32 - 1),
        span_mask=st.booleans(),
        time_mode=st.sampled_from(["full", "departure_only"]),
        label_kind=st.sampled_from(["occupied", "driver", "mode"]),
    )
    def test_build(self, batch, params, seed, span_mask, time_mode, label_kind):
        built, expected = builder_pair(params, seed)
        options = dict(span_mask=span_mask, time_mode=time_mode, label_kind=label_kind)
        for _ in range(2):  # the second build starts from the advanced RNG
            assert_same_batch(built.build(batch, **options), expected.build(batch, **options))
        assert built._rng.bit_generator.state == expected._rng.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(
        batch=st.lists(views(), min_size=1, max_size=6),
        params=builder_settings,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_build_from_views(self, batch, params, seed):
        built, expected = builder_pair(params, seed)
        assert_same_batch(built.build_from_views(batch), expected.build_from_views(batch))
        assert built._rng.bit_generator.state == expected._rng.bit_generator.state

    def test_dataset_batches(self):
        dataset = build_dataset("synthetic-bj", scale=0.2)
        built, expected = builder_pair({}, 3, dataset.network.num_roads)
        trips = dataset.trajectories
        for start in range(0, len(trips), 16):
            chunk = trips[start : start + 16]
            for span_mask in (False, True):
                assert_same_batch(
                    built.build(chunk, span_mask=span_mask),
                    expected.build(chunk, span_mask=span_mask),
                )
        assert built._rng.bit_generator.state == expected._rng.bit_generator.state


# --------------------------------------------------------------------- #
# Kernels
# --------------------------------------------------------------------- #
def special_values(dtype) -> list:
    """NaN of both signs (inf - inf gives the negative one), +-inf, +-0."""
    nan = np.array(np.nan, dtype=dtype)
    return [nan, -nan, np.inf, -np.inf, 0.0, -0.0]


@st.composite
def arrays_with_specials(draw, shape, dtype=np.float32):
    seed = draw(st.integers(0, 2**32 - 1))
    values = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
    flat = values.reshape(-1)
    specials = special_values(dtype)
    for index in draw(st.lists(st.integers(0, flat.size - 1), max_size=6)):
        flat[index] = specials[draw(st.integers(0, len(specials) - 1))]
    return values


class Drawn:
    """Stands in for ``st.data()`` in an ``@example``: the draws, in order,
    replayed from the first whenever hypothesis runs the example again."""

    def __init__(self, *values) -> None:
        self._values = itertools.cycle(values)

    def draw(self, strategy, label=None):
        return next(self._values)


def words(bits: int, dtype=np.float32) -> np.ndarray:
    """A one-element array holding the float whose bit pattern is ``bits``."""
    unsigned = np.uint32 if dtype == np.float32 else np.uint64
    return np.array([bits], dtype=unsigned).view(dtype)


#: NaNs of both signs.  NumPy adds into a one-element array as a reduction,
#: which keeps the right operand's NaN where ``a + b`` keeps the left one's.
NEGATIVE_NAN, POSITIVE_NAN = words(0xFFC00000), words(0x7FC00000)


def assert_same_words(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestKernelsMatchReference:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        # Up to 240 rows: both sides of the transposed max's 100-row cut.
        shape=st.tuples(*(st.integers(1, n) for n in (3, 4, 20, 20))),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    def test_softmax(self, data, shape, dtype):
        x = data.draw(arrays_with_specials(shape, dtype))
        with np.errstate(all="ignore"):
            assert_same_words(kernels.softmax(x), reference.softmax(x))
            assert_same_words(kernels.softmax(x, axis=0), reference.softmax(x, axis=0))

    @pytest.mark.parametrize(
        "shape",
        # Many blocks; rows wider than any batch; a row wider than one block.
        [(2, 4, 100, 100), (1, 2, 130, 130), (1, 100, 33000), (3, 0, 5)],
    )
    def test_softmax_blocks_and_wide_rows(self, shape):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(shape).astype(np.float32)
        if x.size:
            flat = x.reshape(-1)
            flat[rng.integers(0, flat.size, 40)] = np.nan
            flat[rng.integers(0, flat.size, 40)] = -np.array(np.nan, dtype=np.float32)
            flat[rng.integers(0, flat.size, 40)] = -0.0
            first_row = x.reshape(-1, shape[-1])[0]
            first_row[:] = -1.0
            first_row[:4] = [0.0, -0.0, -0.0, 0.0]  # its max is a zero of either sign
        with np.errstate(all="ignore"):
            assert_same_words(kernels.softmax(x), reference.softmax(x))

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        shape=st.tuples(*(st.integers(1, n) for n in (3, 6, 12))),
        weight_dtype=st.sampled_from([np.float32, np.float64]),
    )
    @example(  # one element, 0 * -NaN + NaN: ``a + b`` keeps the -NaN
        data=Drawn(np.array([[[0.12573022]]], dtype=np.float32), NEGATIVE_NAN, POSITIVE_NAN),
        shape=(1, 1, 1),
        weight_dtype=np.float32,
    )
    def test_layer_norm(self, data, shape, weight_dtype):
        x = data.draw(arrays_with_specials(shape))
        gamma = data.draw(arrays_with_specials(shape[-1:], weight_dtype))
        beta = data.draw(arrays_with_specials(shape[-1:], weight_dtype))
        original = x.copy()
        with np.errstate(all="ignore"):
            got = kernels.layer_norm(x, gamma, beta)
            assert_same_words(got, reference.layer_norm(x, gamma, beta))
        assert x.tobytes() == original.tobytes()  # the input is never written

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        batch=st.integers(1, 3),
        seq=st.integers(1, 16),
        heads=st.sampled_from([1, 2, 4]),
        bias_kind=st.sampled_from([None, np.float32, np.float64]),
        masked=st.booleans(),
        return_weights=st.booleans(),
    )
    @example(  # one score, -NaN with weight seed 0, plus a +NaN bias (softmax's
        # ``exp`` returns +NaN for either, so only the scores' words differed)
        data=Drawn(
            0,
            np.array([[[NEGATIVE_NAN[0], 0, 0, 0]]], dtype=np.float32),
            POSITIVE_NAN.reshape(1, 1, 1, 1),
        ),
        batch=1,
        seq=1,
        heads=1,
        bias_kind=np.float32,
        masked=False,
        return_weights=True,
    )
    def test_fused_attention(self, data, batch, seq, heads, bias_kind, masked, return_weights):
        d_model = 4 * heads
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        weights = [
            rng.standard_normal((d_model, 3 * d_model)).astype(np.float32),
            rng.standard_normal(3 * d_model).astype(np.float32),
            rng.standard_normal((d_model, d_model)).astype(np.float32),
            rng.standard_normal(d_model).astype(np.float32),
        ]
        x = data.draw(arrays_with_specials((batch, seq, d_model)))
        bias = None
        if bias_kind is not None:
            bias = data.draw(arrays_with_specials((batch, 1, seq, seq), bias_kind))
        mask = rng.random((batch, seq)) < 0.3 if masked else None
        inputs = (x, *weights, heads)
        with np.errstate(all="ignore"):
            got = kernels.fused_attention(
                *inputs, attention_bias=bias, key_padding_mask=mask, return_weights=return_weights
            )
            want = reference.fused_attention(
                *inputs, attention_bias=bias, key_padding_mask=mask, return_weights=return_weights
            )
        for got_part, want_part in zip(
            got if return_weights else (got,), want if return_weights else (want,)
        ):
            assert_same_words(got_part, want_part)


# --------------------------------------------------------------------- #
# End to end
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("preset,copies", [("synthetic-bj", 4), ("synthetic-porto", 1)])
def test_engine_encode_matches_the_per_row_path(preset, copies, monkeypatch):
    dataset = build_dataset(preset)
    engine = Engine.from_dataset(dataset, EngineConfig(start=StartConfig(seed=11)))
    trips = list(dataset.trajectories) * copies
    encoded = engine.encode(trips)
    with monkeypatch.context() as patch:
        patch.setattr("repro.core.model.BatchBuilder", reference.ReferenceBatchBuilder)
        patch.setattr(kernels, "fused_attention", reference.fused_attention)
        patch.setattr(kernels, "layer_norm", reference.layer_norm)
        expected = engine.encode(trips)
    assert hashlib.sha256(encoded.tobytes()).hexdigest() == hashlib.sha256(
        expected.tobytes()
    ).hexdigest()
