"""Restartable checkpoints: index snapshot + resumable stream offset.

A serving process that dies must come back *lossless*: everything it had
ingested and everything still sitting unread in the trajectory JSONL must
be served after restart exactly as if the crash never happened.  The
checkpoint that makes this possible is deliberately tiny:

* an :meth:`Engine.snapshot <repro.api.Engine.snapshot>` of the primary
  index (already bit-stable across restore), written under
  ``<dir>/snapshots/gen_<N>/``;
* the stream reader's resume state — the **byte offset** of the first
  record not yet in the snapshot, plus its line/record counters
  (:attr:`TrajectoryStreamReader.state <repro.streaming.reader.TrajectoryStreamReader.state>`);
* a ``CHECKPOINT.json`` pointer committed with an atomic
  ``os.replace``, so a crash *during* checkpointing leaves the previous
  checkpoint intact — the manifest is only ever wholly old or wholly new.

Replay correctness is owned by the runtime's deterministic ingest grouping
(see :class:`~repro.server.runtime.ServingRuntime`): checkpoints are only
taken at group boundaries, so the records re-read after restart re-form
exactly the encode batches the uninterrupted run would have formed — which
is what makes the restarted index *bit-identical*, not merely equivalent.
This is the periodic-checkpoint / atomic-manifest pattern of LLMPlotBot's
checkpoint manager applied to an index + stream pair.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

from repro.api.engine import Engine

#: Bump when the checkpoint layout changes; readers refuse newer formats.
CHECKPOINT_FORMAT_VERSION = 1

_MANIFEST_NAME = "CHECKPOINT.json"
_SNAPSHOT_ROOT = "snapshots"


@dataclass(frozen=True)
class CheckpointInfo:
    """One committed checkpoint: where it lives and what it captured."""

    path: Path
    generation: int
    rows: int
    stream_offset: int
    ingested_records: int


class Checkpointer:
    """Writes and reads the checkpoint directory layout described above.

    ``keep`` bounds disk usage: after a successful commit, ``gen_<N>``
    snapshot directories other than the ``keep`` highest generations are
    deleted (the manifest never points at a deleted one — pruning runs
    strictly after the atomic manifest replace).
    """

    def __init__(self, directory: str | Path, *, keep: int = 2) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = Path(directory)
        self.keep = int(keep)

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def save(
        self,
        engine: Engine,
        *,
        generation: int,
        stream_state: dict[str, int] | None = None,
        ingested_records: int = 0,
    ) -> CheckpointInfo:
        """Snapshot ``engine`` and commit a manifest pointing at it."""
        snapshot_name = f"gen_{generation:06d}"
        snapshot_dir = self.directory / _SNAPSHOT_ROOT / snapshot_name
        info = engine.snapshot(snapshot_dir)
        manifest = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "generation": int(generation),
            "snapshot": f"{_SNAPSHOT_ROOT}/{snapshot_name}",
            "rows": int(info.rows),
            "ingested_records": int(ingested_records),
            "stream": dict(stream_state) if stream_state is not None else None,
        }
        tmp_path = self.directory / (_MANIFEST_NAME + ".tmp")
        with open(tmp_path, "w") as handle:
            json.dump(manifest, handle, indent=2)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.directory / _MANIFEST_NAME)
        self._prune(current=snapshot_name)
        return CheckpointInfo(
            path=self.directory,
            generation=int(generation),
            rows=int(info.rows),
            stream_offset=int((stream_state or {}).get("offset", 0)),
            ingested_records=int(ingested_records),
        )

    def _prune(self, current: str) -> None:
        root = self.directory / _SNAPSHOT_ROOT
        if not root.exists():
            return
        # Oldest first by generation number: as strings, gen_1000000 would
        # sort before gen_999999.  Directories not named gen_<N> are left alone.
        generations = sorted(
            (int(p.name[4:]), p.name)
            for p in root.iterdir()
            if p.is_dir() and p.name.startswith("gen_") and p.name[4:].isdecimal()
        )
        for _, name in generations[: -self.keep]:
            if name != current:
                shutil.rmtree(root / name, ignore_errors=True)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    @classmethod
    def load_manifest(cls, directory: str | Path) -> dict[str, object] | None:
        """The committed manifest under ``directory``, or ``None`` if absent."""
        manifest_path = Path(directory) / _MANIFEST_NAME
        if not manifest_path.exists():
            return None
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        version = int(manifest.get("format_version", 0))
        if version > CHECKPOINT_FORMAT_VERSION:
            raise ValueError(
                f"{directory} uses checkpoint format v{version}; "
                f"this build reads up to v{CHECKPOINT_FORMAT_VERSION}"
            )
        return manifest

    @classmethod
    def restore_engine(cls, directory: str | Path, encoder, engine_config=None) -> tuple:
        """Rebuild ``(engine, manifest)`` from the last committed checkpoint.

        Raises :class:`ValueError` when ``directory`` holds no checkpoint.
        The caller re-attaches the stream reader from ``manifest["stream"]``.
        """
        manifest = cls.load_manifest(directory)
        if manifest is None:
            raise ValueError(f"{directory} holds no {_MANIFEST_NAME}")
        snapshot_dir = Path(directory) / manifest["snapshot"]
        engine = Engine.restore(snapshot_dir, encoder, config=engine_config)
        return engine, manifest
