"""Tests for the START core: config, tokens, TPE-GAT, TAT-Enc, batching, model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BatchBuilder,
    IGNORE_LABEL,
    STARTModel,
    StartConfig,
    TimeIntervalBias,
    TimePatternEmbedding,
    TPEGAT,
    hop_interval_matrix,
    paper_config,
    raw_interval_matrix,
    road_to_token,
    tiny_config,
    token_to_road,
    vocabulary_size,
)
from repro.core.tokens import CLS_TOKEN, DAY_MASK, MASK_TOKEN, MINUTE_MASK, PAD_TOKEN
from repro.nn import Tensor
from repro.roadnet import CityConfig, generate_city, road_feature_matrix
from repro.trajectory import (
    CongestionModel,
    DemandConfig,
    TrajectoryDataset,
    TrajectoryGenerator,
    transfer_probability_matrix,
)


@pytest.fixture(scope="module")
def network():
    return generate_city(CityConfig(grid_rows=5, grid_cols=5, seed=8))


@pytest.fixture(scope="module")
def dataset(network):
    config = DemandConfig(num_drivers=6, num_days=7, trips_per_driver_per_day=2.0, seed=8)
    generator = TrajectoryGenerator(network, CongestionModel(network), config)
    result = generator.generate(num_trajectories=60)
    ds = TrajectoryDataset(network, result.trajectories, name="core-test")
    ds.chronological_split()
    return ds


@pytest.fixture(scope="module")
def transfer(network, dataset):
    return transfer_probability_matrix(network, dataset.train_trajectories())


class TestConfig:
    def test_defaults_valid(self):
        config = StartConfig()
        assert config.ffn_dim == 2 * config.d_model

    def test_paper_config_shape(self):
        config = paper_config()
        assert config.d_model == 256
        assert config.gat_heads == (8, 16, 1)
        assert config.encoder_layers == 6

    def test_variant_override(self):
        config = tiny_config().variant(use_time_interval=False)
        assert not config.use_time_interval
        assert config.d_model == 32

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"d_model": 30, "encoder_heads": 4},
            {"gat_layers": 2, "gat_heads": (4,)},
            {"road_encoder": "gnn"},
            {"interval_mode": "banana"},
            {"interval_decay": "square"},
            {"loss_balance": 1.5},
            {"mask_ratio": 0.0},
            {"use_mask_loss": False, "use_contrastive_loss": False},
        ],
    )
    def test_invalid_configs_raise(self, kwargs):
        with pytest.raises(ValueError):
            StartConfig(**kwargs)


class TestTokens:
    def test_roundtrip(self):
        assert token_to_road(road_to_token(17)) == 17

    def test_specials_do_not_collide_with_roads(self):
        assert road_to_token(0) > max(PAD_TOKEN, CLS_TOKEN, MASK_TOKEN)

    def test_vocabulary_size(self):
        assert vocabulary_size(100) == 103


class TestTPEGAT:
    def test_output_shape(self, network, dataset, transfer):
        features = road_feature_matrix(network)
        gat = TPEGAT(network, features, transfer, d_model=16, num_layers=2, heads=(2, 1))
        out = gat()
        assert out.shape == (network.num_roads, 16)

    def test_gradients_reach_all_heads(self, network, transfer):
        features = road_feature_matrix(network)
        gat = TPEGAT(network, features, transfer, d_model=8, num_layers=1, heads=(2,))
        gat().sum().backward()
        missing = [name for name, p in gat.named_parameters() if p.grad is None]
        assert missing == []

    def test_transfer_probability_changes_output(self, network, dataset, transfer):
        features = road_feature_matrix(network)
        with_transfer = TPEGAT(network, features, transfer, d_model=8, num_layers=1, heads=(1,))
        without_transfer = TPEGAT(network, features, None, d_model=8, num_layers=1, heads=(1,))
        # Same weights, different transfer matrices -> different outputs.
        without_transfer.load_state_dict(with_transfer.state_dict())
        assert not np.allclose(with_transfer().data, without_transfer().data)

    def test_invalid_heads_count(self, network, transfer):
        features = road_feature_matrix(network)
        with pytest.raises(ValueError):
            TPEGAT(network, features, transfer, d_model=8, num_layers=2, heads=(2,))


class TestTimeModules:
    def test_time_pattern_embedding_shape(self):
        emb = TimePatternEmbedding(16)
        minutes = np.array([[1, 720, 1440], [0, MINUTE_MASK, 5]])
        days = np.array([[1, 3, 7], [0, DAY_MASK, 2]])
        assert emb(minutes, days).shape == (2, 3, 16)

    def test_time_pattern_embedding_shape_mismatch(self):
        emb = TimePatternEmbedding(8)
        with pytest.raises(ValueError):
            emb(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_raw_interval_matrix_symmetry_and_padding(self):
        times = np.array([[0.0, 10.0, 30.0]])
        mask = np.array([[False, False, True]])
        delta = raw_interval_matrix(times, mask)
        assert delta[0, 0, 1] == pytest.approx(10.0)
        assert delta[0, 1, 0] == pytest.approx(10.0)
        assert delta[0, 0, 2] == pytest.approx(0.0)  # padded column zeroed

    def test_hop_interval_matrix(self):
        hops = hop_interval_matrix(2, 4)
        assert hops.shape == (2, 4, 4)
        assert hops[0, 0, 3] == pytest.approx(3.0)

    def test_interval_bias_decay_orders(self):
        bias = TimeIntervalBias(decay="log", adaptive=False)
        intervals = np.array([[[0.0, 10.0], [10.0, 0.0]]])
        out = bias(intervals).data[0, 0]
        assert out[0, 0] > out[0, 1]  # closer in time -> larger bias

    def test_interval_bias_adaptive_is_learnable(self):
        bias = TimeIntervalBias(decay="log", adaptive=True, hidden=4)
        intervals = np.array([[[0.0, 5.0], [5.0, 0.0]]])
        out = bias(intervals)
        out.sum().backward()
        assert bias.omega1.grad is not None and bias.omega2.grad is not None

    def test_interval_bias_invalid_decay(self):
        with pytest.raises(ValueError):
            TimeIntervalBias(decay="sqrt")


class TestBatchBuilder:
    def test_build_shapes_and_cls(self, network, dataset):
        builder = BatchBuilder(network.num_roads, rng=np.random.default_rng(0))
        chunk = dataset.trajectories[:4]
        batch = builder.build(chunk)
        assert batch.tokens.shape[0] == 4
        assert (batch.tokens[:, 0] == CLS_TOKEN).all()
        assert batch.intervals.shape == (4, batch.seq_len, batch.seq_len)
        assert batch.padding_mask.shape == batch.tokens.shape
        np.testing.assert_array_equal(batch.lengths, [len(t) + 1 for t in chunk])

    def test_padding_mask_consistent_with_lengths(self, network, dataset):
        builder = BatchBuilder(network.num_roads, rng=np.random.default_rng(0))
        batch = builder.build(dataset.trajectories[:6])
        np.testing.assert_array_equal((~batch.padding_mask).sum(axis=1), batch.lengths)

    def test_span_mask_produces_labels_and_masked_tokens(self, network, dataset):
        builder = BatchBuilder(network.num_roads, mask_ratio=0.3, mask_length=2, rng=np.random.default_rng(0))
        batch = builder.build(dataset.trajectories[:4], span_mask=True)
        masked_positions = batch.tokens == MASK_TOKEN
        assert masked_positions.any()
        # Labels exist exactly where the mask token is.
        assert ((batch.mask_labels != IGNORE_LABEL) == masked_positions).all()
        # Temporal indices at masked positions use the [MASKT] ids.
        assert (batch.minute_indices[masked_positions] == MINUTE_MASK).all()
        assert (batch.day_indices[masked_positions] == DAY_MASK).all()

    def test_departure_only_mode_hides_time(self, network, dataset):
        builder = BatchBuilder(network.num_roads, rng=np.random.default_rng(0))
        batch = builder.build(dataset.trajectories[:3], time_mode="departure_only")
        for row in range(3):
            valid = ~batch.padding_mask[row]
            minutes = batch.minute_indices[row][valid]
            assert len(set(minutes.tolist())) == 1  # every position shows the departure minute
        assert np.allclose(batch.intervals, 0.0)

    def test_invalid_time_mode(self, network, dataset):
        builder = BatchBuilder(network.num_roads)
        with pytest.raises(ValueError):
            builder.build(dataset.trajectories[:2], time_mode="arrival")

    def test_truncation_respects_max_length(self, network, dataset):
        builder = BatchBuilder(network.num_roads, max_length=8)
        batch = builder.build(dataset.trajectories[:4])
        assert batch.seq_len <= 8

    def test_label_kinds(self, network, dataset):
        builder = BatchBuilder(network.num_roads)
        occupied = builder.build(dataset.trajectories[:4], label_kind="occupied").class_labels
        driver = builder.build(dataset.trajectories[:4], label_kind="driver").class_labels
        assert set(occupied.tolist()).issubset({0, 1})
        assert (driver == [t.user_id for t in dataset.trajectories[:4]]).all()

    @pytest.mark.parametrize("road", [-1, -4, "V"])
    def test_out_of_range_road_ids_are_rejected(self, network, dataset, road):
        bad_road = network.num_roads if road == "V" else road
        good, bad = dataset.trajectories[0], dataset.trajectories[1].copy()
        bad.roads[2] = bad_road
        builder = BatchBuilder(network.num_roads)
        with pytest.raises(ValueError, match=rf"batch row 1: road id {bad_road} is outside"):
            builder.build([good, bad])
        with pytest.raises(ValueError, match="batch row 1"):
            builder.build([good, bad], span_mask=True)  # masked or not, it is refused
        with pytest.raises(ValueError, match=rf"batch row 1: road id {bad_road} is outside"):
            builder.check([good, bad])
        assert builder.check([good]) is None

    def test_last_road_id_is_accepted(self, network, dataset):
        trajectory = dataset.trajectories[0].copy()
        trajectory.roads[0] = network.num_roads - 1
        batch = BatchBuilder(network.num_roads).build([trajectory])
        assert batch.tokens[0, 1] == road_to_token(network.num_roads - 1)

    @pytest.mark.parametrize("timestamp", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_timestamps_are_rejected(self, network, dataset, timestamp):
        good, bad = dataset.trajectories[0], dataset.trajectories[1].copy()
        bad.timestamps[1] = timestamp
        builder = BatchBuilder(network.num_roads)
        for refuse in (builder.build, builder.check):
            with pytest.raises(ValueError, match=rf"batch row 1: timestamp {timestamp!r}"):
                refuse([good, bad])

    def test_timestamps_outside_datetime_years_are_rejected(self, network, dataset):
        from repro.trajectory.types import FIRST_SECOND, LAST_SECOND

        builder = BatchBuilder(network.num_roads)
        for timestamp, accepted in (
            (FIRST_SECOND - 0.5, True),
            (FIRST_SECOND - 1, False),
            (LAST_SECOND + 0.5, True),
            (LAST_SECOND + 1, False),
        ):
            trajectory = dataset.trajectories[0].copy()
            trajectory.timestamps[0] = timestamp
            if accepted:
                builder.build([trajectory])
            else:
                with pytest.raises(ValueError, match="batch row 0: timestamp"):
                    builder.build([trajectory])

    def test_build_from_views_marks_masks(self, network, dataset):
        from repro.trajectory import TrajectoryAugmenter

        builder = BatchBuilder(network.num_roads, rng=np.random.default_rng(0))
        augmenter = TrajectoryAugmenter(rng=np.random.default_rng(1))
        views = [augmenter.road_mask(t) for t in dataset.trajectories[:3]]
        batch = builder.build_from_views(views)
        assert (batch.tokens == MASK_TOKEN).any()
        assert (batch.mask_labels == IGNORE_LABEL).all()  # contrastive views carry no labels


class TestSTARTModel:
    @pytest.fixture(scope="class")
    def model(self, dataset):
        return STARTModel.from_dataset(dataset, tiny_config())

    def test_forward_shapes(self, model, dataset):
        builder = model.make_builder()
        batch = builder.build(dataset.trajectories[:5])
        sequence, pooled = model(batch)
        assert sequence.shape == (5, batch.seq_len, model.config.d_model)
        assert pooled.shape == (5, model.config.d_model)

    def test_mask_logits_shape(self, model, dataset):
        builder = model.make_builder()
        batch = builder.build(dataset.trajectories[:3], span_mask=True)
        sequence, _ = model(batch)
        logits = model.mask_logits(sequence)
        assert logits.shape == (3, batch.seq_len, model.num_roads)

    def test_encode_returns_finite_vectors(self, model, dataset):
        vectors = model.encode(dataset.trajectories[:7])
        assert vectors.shape == (7, model.config.d_model)
        assert np.isfinite(vectors).all()

    def test_encode_empty(self, model):
        assert model.encode([]).shape == (0, model.config.d_model)

    def test_encode_is_deterministic_in_eval(self, model, dataset):
        first = model.encode(dataset.trajectories[:4])
        second = model.encode(dataset.trajectories[:4])
        np.testing.assert_allclose(first, second, atol=1e-6)

    def test_random_road_encoder_variant(self, dataset):
        model = STARTModel.from_dataset(dataset, tiny_config(road_encoder="random"))
        vectors = model.encode(dataset.trajectories[:3])
        assert vectors.shape[0] == 3

    def test_node2vec_requires_embeddings(self, dataset):
        with pytest.raises(ValueError):
            STARTModel(dataset.network, tiny_config(road_encoder="node2vec"))

    def test_ablation_variants_forward(self, dataset):
        for overrides in (
            {"use_time_embedding": False},
            {"use_time_interval": False},
            {"interval_mode": "hop"},
            {"interval_decay": "inverse"},
            {"adaptive_interval": False},
            {"use_transfer_prob": False},
        ):
            model = STARTModel.from_dataset(dataset, tiny_config(**overrides))
            vectors = model.encode(dataset.trajectories[:2])
            assert np.isfinite(vectors).all()

    def test_state_dict_roundtrip_preserves_encoding(self, dataset):
        model_a = STARTModel.from_dataset(dataset, tiny_config())
        model_b = STARTModel.from_dataset(dataset, tiny_config(seed=123))
        model_b.load_state_dict(model_a.state_dict())
        np.testing.assert_allclose(
            model_a.encode(dataset.trajectories[:3]),
            model_b.encode(dataset.trajectories[:3]),
            atol=1e-5,
        )

    @pytest.mark.parametrize("road_encoder", ["tpe-gat", "random"])
    def test_encode_after_load_state_dict_uses_the_new_weights(self, dataset, road_encoder):
        """``encode`` caches its token table; loading weights drops it."""
        trips = dataset.trajectories[:3]
        model = STARTModel.from_dataset(dataset, tiny_config(road_encoder=road_encoder))
        other = STARTModel.from_dataset(dataset, tiny_config(road_encoder=road_encoder, seed=123))
        model.eval()
        stale = model.encode(trips)
        model.load_state_dict(other.state_dict())
        fresh = model.encode(trips)
        assert fresh.tobytes() == other.encode(trips).tobytes()
        assert fresh.tobytes() != stale.tobytes()

    def test_encode_after_training_uses_the_new_weights(self, dataset):
        trips = dataset.trajectories[:3]
        model = STARTModel.from_dataset(dataset, tiny_config())
        model.eval()
        stale = model.encode(trips)
        model.train()
        model.special_embedding.weight.data += 1.0  # an optimizer step, in train mode
        model.eval()
        fresh = model.encode(trips)
        twin = STARTModel.from_dataset(dataset, tiny_config(seed=123))
        twin.load_state_dict(model.state_dict())
        assert fresh.tobytes() == twin.encode(trips).tobytes()
        assert fresh.tobytes() != stale.tobytes()
