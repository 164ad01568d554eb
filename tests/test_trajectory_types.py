"""Tests for trajectory datatypes, the congestion model and transfer matrices."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.roadnet import CityConfig, generate_city
from repro.trajectory import (
    REFERENCE_EPOCH,
    CongestionModel,
    GPSPoint,
    RawTrajectory,
    Trajectory,
    day_of_week,
    hour_of_day,
    is_weekend,
    minute_of_day,
    transfer_probability_matrix,
    visit_frequencies,
)
from repro.trajectory.types import (
    FIRST_SECOND,
    LAST_SECOND,
    days_of_week,
    minutes_of_day,
    whole_seconds,
)


class TestTimeHelpers:
    def test_minute_of_day_range(self):
        assert minute_of_day(REFERENCE_EPOCH) == 1
        assert minute_of_day(REFERENCE_EPOCH + 86399) == 1440

    def test_day_of_week_reference_is_monday(self):
        assert day_of_week(REFERENCE_EPOCH) == 1
        assert day_of_week(REFERENCE_EPOCH + 5 * 86400) == 6

    def test_is_weekend(self):
        assert not is_weekend(REFERENCE_EPOCH)                  # Monday
        assert is_weekend(REFERENCE_EPOCH + 5 * 86400)          # Saturday
        assert is_weekend(REFERENCE_EPOCH + 6 * 86400)          # Sunday

    def test_hour_of_day(self):
        assert hour_of_day(REFERENCE_EPOCH + 3 * 3600 + 120) == 3

    @settings(max_examples=30, deadline=None)
    @given(offset=st.integers(min_value=0, max_value=13 * 86400))
    def test_property_minute_and_day_ranges(self, offset):
        timestamp = REFERENCE_EPOCH + offset
        assert 1 <= minute_of_day(timestamp) <= 1440
        assert 1 <= day_of_week(timestamp) <= 7


class TestArrayTimeHelpers:
    def test_match_the_scalar_helpers(self):
        days = np.arange(-10, 12)[:, None] * 86400
        offsets = np.array([0, 0.5, -0.5, -1, -1.5, 59.999, 60, 3599.5, 86399, 86399.999])
        around_1970 = (days + offsets).ravel()
        timestamps = np.concatenate([around_1970, REFERENCE_EPOCH + around_1970])
        seconds = whole_seconds(timestamps)
        assert seconds.tolist() == [int(t) for t in timestamps]
        assert minutes_of_day(seconds).tolist() == [minute_of_day(t) for t in timestamps]
        assert days_of_week(seconds).tolist() == [day_of_week(t) for t in timestamps]

    def test_datetime_range_edges(self):
        edges = [FIRST_SECOND, FIRST_SECOND - 0.5, LAST_SECOND, LAST_SECOND + 0.5]
        seconds = whole_seconds(edges)
        assert days_of_week(seconds).tolist() == [day_of_week(t) for t in edges]

    @pytest.mark.parametrize(
        "timestamp", [float("nan"), float("inf"), float("-inf"), FIRST_SECOND - 1, LAST_SECOND + 1]
    )
    def test_whole_seconds_rejects_what_day_of_week_rejects(self, timestamp):
        with pytest.raises((ValueError, OverflowError)):
            day_of_week(timestamp)
        with pytest.raises(ValueError, match="non-finite or outside datetime's years"):
            whole_seconds([REFERENCE_EPOCH, timestamp])

    def test_trajectory_indices_use_the_array_helpers(self):
        trajectory = Trajectory(roads=[1, 2, 3], timestamps=[-0.5, 86399.5, REFERENCE_EPOCH + 7])
        assert trajectory.minute_indices().tolist() == [1, 1440, 1]
        assert trajectory.day_indices().tolist() == [4, 4, 1]
        empty = Trajectory(roads=[], timestamps=[])
        assert empty.minute_indices().dtype == np.int64 and empty.day_indices().shape == (0,)


class TestTrajectoryTypes:
    def _trajectory(self):
        return Trajectory(
            roads=[1, 2, 3, 4],
            timestamps=[float(REFERENCE_EPOCH + 60 * i) for i in range(4)],
            user_id=3,
            occupied=1,
            trajectory_id=17,
        )

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            Trajectory(roads=[1, 2], timestamps=[0.0])

    def test_basic_properties(self):
        trajectory = self._trajectory()
        assert len(trajectory) == trajectory.hops == 4
        assert trajectory.origin == 1 and trajectory.destination == 4
        assert trajectory.travel_time == pytest.approx(180.0)

    def test_minute_and_day_indices(self):
        trajectory = self._trajectory()
        np.testing.assert_array_equal(trajectory.minute_indices(), [1, 2, 3, 4])
        np.testing.assert_array_equal(trajectory.day_indices(), [1, 1, 1, 1])

    def test_time_intervals_symmetric(self):
        intervals = self._trajectory().time_intervals()
        assert intervals.shape == (4, 4)
        np.testing.assert_allclose(intervals, intervals.T)
        np.testing.assert_allclose(np.diag(intervals), np.zeros(4))
        assert intervals[0, 3] == pytest.approx(180.0)

    def test_has_loop(self):
        assert not self._trajectory().has_loop()
        looping = Trajectory(roads=[1, 2, 1], timestamps=[0.0, 1.0, 2.0])
        assert looping.has_loop()

    def test_copy_is_deep(self):
        trajectory = self._trajectory()
        clone = trajectory.copy()
        clone.roads[0] = 99
        assert trajectory.roads[0] == 1

    def test_raw_trajectory(self):
        raw = RawTrajectory(points=[GPSPoint(0.0, 0.0, 10.0), GPSPoint(5.0, 5.0, 20.0)])
        assert len(raw) == 2
        assert raw.duration == pytest.approx(10.0)
        assert raw.coordinates().shape == (2, 2)
        assert raw.timestamps().tolist() == [10.0, 20.0]


class TestCongestionModel:
    @pytest.fixture()
    def network(self):
        return generate_city(CityConfig(grid_rows=5, grid_cols=5, seed=0))

    def test_rush_hour_slower_than_night(self, network):
        model = CongestionModel(network)
        road = network.road_ids()[0]
        rush = model.travel_time(road, REFERENCE_EPOCH + 8 * 3600)
        night = model.travel_time(road, REFERENCE_EPOCH + 3 * 3600)
        assert rush > night

    def test_weekend_profile_differs(self, network):
        model = CongestionModel(network)
        road = network.road_ids()[0]
        weekday_morning = model.travel_time(road, REFERENCE_EPOCH + 8 * 3600)
        weekend_morning = model.travel_time(road, REFERENCE_EPOCH + 5 * 86400 + 8 * 3600)
        assert weekday_morning > weekend_morning

    def test_speed_factor_bounds(self, network):
        model = CongestionModel(network)
        rng = np.random.default_rng(0)
        for hour in range(24):
            factor = model.speed_factor(network.road_ids()[3], REFERENCE_EPOCH + hour * 3600, rng=rng)
            assert 0.15 <= factor <= 1.2

    def test_residential_less_sensitive_than_primary(self, network):
        model = CongestionModel(network, noise_std=0.0)
        primary = next(s.road_id for s in network.segments if s.road_type == "primary")
        residential = next(s.road_id for s in network.segments if s.road_type == "residential")
        peak = REFERENCE_EPOCH + 8 * 3600
        assert (1 - model.speed_factor(primary, peak)) > (1 - model.speed_factor(residential, peak))

    def test_historical_average_between_extremes(self, network):
        model = CongestionModel(network, noise_std=0.0)
        road = network.road_ids()[0]
        average = model.historical_average_travel_time(road)
        free_flow = network.segment(road).free_flow_travel_time()
        peak = model.travel_time(road, REFERENCE_EPOCH + 8 * 3600)
        assert free_flow <= average <= peak * 1.01

    def test_hourly_profile_shape(self, network):
        model = CongestionModel(network, noise_std=0.0)
        profile = model.hourly_profile(network.road_ids()[0])
        assert profile.shape == (24,)
        assert profile[8] > profile[3]

    def test_invalid_slowdown(self, network):
        with pytest.raises(ValueError):
            CongestionModel(network, peak_slowdown=1.5)


class TestTransferMatrix:
    def test_rows_are_distributions_or_zero(self):
        network = generate_city(CityConfig(grid_rows=4, grid_cols=4, seed=1))
        ids = network.road_ids()
        trajectories = []
        # Walk along actual successors so transitions are valid.
        for start in ids[:10]:
            roads = [start]
            for _ in range(4):
                succ = network.successors(roads[-1])
                if not succ:
                    break
                roads.append(succ[0])
            times = [float(i * 30) for i in range(len(roads))]
            trajectories.append(Trajectory(roads=roads, timestamps=times))
        matrix = transfer_probability_matrix(network, trajectories)
        sums = matrix.sum(axis=1)
        assert np.all((np.isclose(sums, 1.0, atol=1e-5)) | (sums == 0.0))

    def test_transfer_counts_ratio(self):
        network = generate_city(CityConfig(grid_rows=4, grid_cols=4, seed=1))
        a = next(r for r in network.road_ids() if network.out_degree(r) >= 2)
        successors = network.successors(a)
        b, c = successors[0], successors[1]
        trajectories = [
            Trajectory(roads=[a, b], timestamps=[0.0, 1.0]),
            Trajectory(roads=[a, b], timestamps=[0.0, 1.0]),
            Trajectory(roads=[a, c], timestamps=[0.0, 1.0]),
        ]
        matrix = transfer_probability_matrix(network, trajectories)
        assert matrix[a, b] == pytest.approx(2 / 3)
        assert matrix[a, c] == pytest.approx(1 / 3)

    def test_smoothing_touches_unvisited_edges(self):
        network = generate_city(CityConfig(grid_rows=4, grid_cols=4, seed=1))
        matrix = transfer_probability_matrix(network, [], smoothing=1.0)
        source, target = network.edges[0]
        assert matrix[source, target] > 0

    def test_visit_frequencies_normalised(self):
        network = generate_city(CityConfig(grid_rows=4, grid_cols=4, seed=1))
        a, b = network.edges[0]
        freq = visit_frequencies(network, [Trajectory(roads=[a, b], timestamps=[0.0, 1.0])])
        assert freq.sum() == pytest.approx(1.0)
