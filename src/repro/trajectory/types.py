"""Trajectory datatypes (Definitions 2 and 3 of the paper).

Two kinds of trajectories exist in the pipeline:

* :class:`RawTrajectory` — a sequence of GPS sample points
  ``(lat/x, lon/y, timestamp)`` as recorded by a device;
* :class:`Trajectory` — a road-network constrained trajectory: a time-ordered
  sequence of adjacent road segments with a visit timestamp per segment,
  produced either directly by the simulator or by map matching a raw
  trajectory.

Timestamps are POSIX seconds; helper properties expose the minute-of-day
(1..1440) and day-of-week (1..7) indices that the Trajectory Time Pattern
Extraction module embeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

SECONDS_PER_DAY = 86400
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY
#: Monday 2023-05-01 00:00 UTC — the epoch used by the synthetic datasets so
#: that day-of-week arithmetic is easy to reason about in tests.
REFERENCE_EPOCH = int(datetime(2023, 5, 1, tzinfo=timezone.utc).timestamp())


#: Whole UTC seconds ``datetime`` can represent: 0001-01-01 .. 9999-12-31.
FIRST_SECOND = int(datetime(1, 1, 1, tzinfo=timezone.utc).timestamp())
LAST_SECOND = int(datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc).timestamp())


def minute_of_day(timestamp: float) -> int:
    """Minute index within the day, 1-based (1..1440) as in the paper."""
    seconds_into_day = int(timestamp) % SECONDS_PER_DAY
    return seconds_into_day // 60 + 1


def day_of_week(timestamp: float) -> int:
    """Day-of-week index, 1-based (1=Monday .. 7=Sunday)."""
    return int(datetime.fromtimestamp(int(timestamp), tz=timezone.utc).isoweekday())


def timestamps_in_range(timestamps: np.ndarray) -> np.ndarray:
    """Element-wise: does :func:`day_of_week` accept this timestamp?

    False for NaN, +-inf and anything that truncates outside ``datetime``'s
    years 1..9999 -- the values :func:`whole_seconds` refuses.
    """
    return (timestamps > FIRST_SECOND - 1) & (timestamps < LAST_SECOND + 1)


def whole_seconds(timestamps) -> np.ndarray:
    """int64 seconds truncated toward zero, exactly as ``int(timestamp)``.

    Raises ``ValueError`` for a timestamp the scalar helpers reject
    (see :func:`timestamps_in_range`).
    """
    times = np.asarray(timestamps, dtype=np.float64)
    valid = timestamps_in_range(times)
    if not valid.all():
        bad = float(times[~valid].flat[0])
        raise ValueError(f"timestamp {bad!r} is non-finite or outside datetime's years 1-9999")
    return times.astype(np.int64)


def minutes_of_day(seconds: np.ndarray) -> np.ndarray:
    """Vectorised :func:`minute_of_day` over :func:`whole_seconds` output."""
    return seconds % SECONDS_PER_DAY // 60 + 1


def days_of_week(seconds: np.ndarray) -> np.ndarray:
    """Vectorised :func:`day_of_week` over :func:`whole_seconds` output.

    Integer arithmetic on UTC days: 1970-01-01 was a Thursday (day 4).
    """
    return (seconds // SECONDS_PER_DAY + 3) % 7 + 1


def is_weekend(timestamp: float) -> bool:
    """Whether the timestamp falls on Saturday or Sunday."""
    return day_of_week(timestamp) >= 6


def hour_of_day(timestamp: float) -> int:
    """Hour of day 0..23."""
    return (int(timestamp) % SECONDS_PER_DAY) // 3600


@dataclass
class GPSPoint:
    """A single GPS sample ``⟨x, y, t⟩`` (planar coordinates in metres)."""

    x: float
    y: float
    timestamp: float


@dataclass
class RawTrajectory:
    """A GPS-based trajectory: the device-level record before map matching."""

    points: list[GPSPoint]
    user_id: int = 0
    trajectory_id: int = 0

    def __len__(self) -> int:
        return len(self.points)

    @property
    def duration(self) -> float:
        if len(self.points) < 2:
            return 0.0
        return self.points[-1].timestamp - self.points[0].timestamp

    def coordinates(self) -> np.ndarray:
        """``(n, 2)`` array of x/y coordinates."""
        return np.array([[p.x, p.y] for p in self.points], dtype=np.float64)

    def timestamps(self) -> np.ndarray:
        return np.array([p.timestamp for p in self.points], dtype=np.float64)


@dataclass
class Trajectory:
    """A road-network constrained trajectory ``T = [⟨v_i, t_i⟩]``.

    Attributes
    ----------
    roads:
        Road-segment ids in visit order; consecutive roads are adjacent in the
        road network.
    timestamps:
        Visit timestamp (POSIX seconds) of each road; same length as ``roads``.
    user_id:
        Driver identity (classification label on synthetic-Porto).
    occupied:
        Whether the taxi carried a passenger (classification label on
        synthetic-BJ).
    mode:
        Transportation mode label (used by the synthetic-Geolife transfer
        dataset: car/walk/bike/bus).
    trajectory_id:
        Stable id used by the similarity-search ground truth.
    """

    roads: list[int]
    timestamps: list[float]
    user_id: int = 0
    occupied: int = 0
    mode: str = "car"
    trajectory_id: int = 0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.roads) != len(self.timestamps):
            raise ValueError("roads and timestamps must have equal length")

    def __len__(self) -> int:
        return len(self.roads)

    @property
    def hops(self) -> int:
        """Number of road segments (the paper's 'hop' count)."""
        return len(self.roads)

    @property
    def departure_time(self) -> float:
        return self.timestamps[0] if self.timestamps else 0.0

    @property
    def arrival_time(self) -> float:
        return self.timestamps[-1] if self.timestamps else 0.0

    @property
    def travel_time(self) -> float:
        """Total travel time in seconds (the regression target for ETA)."""
        return self.arrival_time - self.departure_time

    @property
    def origin(self) -> int:
        return self.roads[0]

    @property
    def destination(self) -> int:
        return self.roads[-1]

    def minute_indices(self) -> np.ndarray:
        """Per-road minute-of-day indices (1..1440)."""
        return minutes_of_day(whole_seconds(self.timestamps))

    def day_indices(self) -> np.ndarray:
        """Per-road day-of-week indices (1..7)."""
        return days_of_week(whole_seconds(self.timestamps))

    def time_intervals(self) -> np.ndarray:
        """``(n, n)`` matrix of absolute time differences |t_i - t_j| in seconds."""
        times = np.asarray(self.timestamps, dtype=np.float64)
        return np.abs(times[:, None] - times[None, :])

    def has_loop(self) -> bool:
        """Whether any road is visited more than once (loop trajectories are dropped)."""
        return len(set(self.roads)) != len(self.roads)

    def copy(self) -> "Trajectory":
        return Trajectory(
            roads=list(self.roads),
            timestamps=list(self.timestamps),
            user_id=self.user_id,
            occupied=self.occupied,
            mode=self.mode,
            trajectory_id=self.trajectory_id,
            metadata=dict(self.metadata),
        )
