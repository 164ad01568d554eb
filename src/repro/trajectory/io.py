"""Persistence of trajectory datasets (JSON-lines + the network CSVs).

A dataset directory contains the road network (written via
:mod:`repro.roadnet.io`) and a ``trajectories.jsonl`` file with one trajectory
per line, which keeps the format debuggable with standard tools.

The JSONL format is also the ingestion wire format of the streaming layer
(:mod:`repro.streaming`): producers append records with
:func:`append_trajectories` and consumers tail the file incrementally, so the
record codec lives here — :func:`trajectory_record` /
:func:`parse_trajectory_record` — and both batch and streaming paths share it.
Blank lines are tolerated (a crashed producer may leave one); corrupt records
raise a :class:`ValueError` naming the source and line number instead of
letting a bare ``json.loads`` traceback escape.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator

from repro.roadnet.io import load_network, save_network
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.types import Trajectory


def trajectory_record(trajectory: Trajectory) -> dict:
    """The JSON-serialisable record for one trajectory (one JSONL line)."""
    return {
        "roads": trajectory.roads,
        "timestamps": trajectory.timestamps,
        "user_id": trajectory.user_id,
        "occupied": trajectory.occupied,
        "mode": trajectory.mode,
        "trajectory_id": trajectory.trajectory_id,
    }


def parse_trajectory_record(
    line: str,
    *,
    source: str = "<record>",
    line_number: int | None = None,
) -> Trajectory | None:
    """Decode one JSONL line into a :class:`Trajectory`.

    Returns ``None`` for blank lines.  Corrupt JSON or a record missing
    required fields raises a :class:`ValueError` that names ``source`` and the
    1-based ``line_number`` so the offending line can be found with ``sed``.
    """
    stripped = line.strip()
    if not stripped:
        return None
    where = f"{source}, line {line_number}" if line_number is not None else source
    try:
        record = json.loads(stripped)
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt JSONL trajectory record at {where}: {exc}") from None
    try:
        return Trajectory(
            roads=[int(r) for r in record["roads"]],
            timestamps=[float(t) for t in record["timestamps"]],
            user_id=int(record["user_id"]),
            occupied=int(record["occupied"]),
            mode=record.get("mode", "car"),
            trajectory_id=int(record["trajectory_id"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # int(1e400) overflows
        raise ValueError(f"invalid trajectory record at {where}: {exc!r}") from None


def iter_trajectory_records(path: str | Path) -> Iterator[Trajectory]:
    """Stream trajectories out of a JSONL file, one at a time.

    Nothing is materialised beyond the current line, so arbitrarily large
    files can be consumed with O(1) memory; blank lines are skipped.
    """
    path = Path(path)
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            trajectory = parse_trajectory_record(
                line, source=str(path), line_number=line_number
            )
            if trajectory is not None:
                yield trajectory


def append_trajectories(path: str | Path, trajectories: Iterable[Trajectory]) -> int:
    """Append trajectories to a JSONL file (creating it if absent).

    This is the producer side of the streaming ingestion path; returns the
    number of records written.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    written = 0
    with open(path, "a") as handle:
        for trajectory in trajectories:
            handle.write(json.dumps(trajectory_record(trajectory)) + "\n")
            written += 1
    return written


def save_dataset(dataset: TrajectoryDataset, directory: str | Path) -> Path:
    """Write the dataset (network + trajectories) under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_network(dataset.network, directory / "network")
    with open(directory / "trajectories.jsonl", "w") as handle:
        for trajectory in dataset.trajectories:
            handle.write(json.dumps(trajectory_record(trajectory)) + "\n")
    with open(directory / "meta.json", "w") as handle:
        json.dump({"name": dataset.name}, handle)
    return directory


def load_dataset(directory: str | Path) -> TrajectoryDataset:
    """Load a dataset previously written by :func:`save_dataset`."""
    directory = Path(directory)
    network = load_network(directory / "network")
    trajectories = list(iter_trajectory_records(directory / "trajectories.jsonl"))
    name = "synthetic"
    meta_path = directory / "meta.json"
    if meta_path.exists():
        with open(meta_path) as handle:
            name = json.load(handle).get("name", name)
    return TrajectoryDataset(network, trajectories, name=name)
