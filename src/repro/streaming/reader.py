"""Streaming trajectory ingestion: the incremental JSONL tail reader.

The batch pipeline materialises a whole ``trajectories.jsonl`` before
encoding; under the ROADMAP's heavy-traffic goal trajectories *arrive
continuously*.  :class:`TrajectoryStreamReader` tails a JSONL file
incrementally: it remembers its byte offset, consumes only complete
(newline-terminated) lines, and picks up records appended since the last
:meth:`~TrajectoryStreamReader.poll` — a producer can keep writing while a
consumer keeps reading, with no full materialisation on either side.

Each poll's records are encoded as one wave by :meth:`repro.api.Engine.drain`
(length-bucketed batches over the wave), or in deterministic fixed-size
groups by :meth:`repro.server.ServingRuntime.attach_stream`; both read
through :meth:`TrajectoryStreamReader.poll_quarantined`, which steps over
corrupt lines.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from repro.trajectory.io import parse_trajectory_record
from repro.trajectory.types import Trajectory

#: Sentinel: nothing further is readable (EOF or a partial trailing line).
_EXHAUSTED = object()


class TrajectoryStreamReader:
    """Incremental reader over a ``trajectories.jsonl`` file.

    The reader never loads the file wholesale: every :meth:`poll` seeks to
    the remembered byte offset, decodes the complete lines appended since,
    and leaves a trailing partial line (a producer mid-write) for the next
    poll.  Blank lines are skipped; corrupt records raise a
    :class:`ValueError` naming the file and line number.

    The file may not exist yet when the reader is constructed — a consumer
    can start before its producer; polls simply return nothing until the
    first record lands.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._offset = 0
        self._line_number = 0
        self._records_read = 0

    @property
    def offset(self) -> int:
        """Byte offset of the next unread record (consumed lines only)."""
        return self._offset

    @property
    def records_read(self) -> int:
        """Number of non-blank records decoded so far."""
        return self._records_read

    @property
    def line_number(self) -> int:
        """Number of complete lines consumed so far (blank lines included)."""
        return self._line_number

    @property
    def state(self) -> dict[str, int]:
        """The resumable read position, as checkpointed by the serving runtime.

        ``offset`` is the byte the next poll seeks to; ``line_number`` and
        ``records_read`` restore the reader's error-message numbering and
        counters.  Feed the dict back through :meth:`seek` (possibly in a
        different process) and polling continues exactly where it left off.
        """
        return {
            "offset": self._offset,
            "line_number": self._line_number,
            "records_read": self._records_read,
        }

    def seek(self, offset: int, *, line_number: int = 0, records_read: int = 0) -> None:
        """Reposition the reader (crash-restart resumption from a checkpoint).

        ``offset`` must be a byte position previously reported by
        :attr:`offset`/:attr:`state` — i.e. a record boundary; seeking into
        the middle of a line would desynchronise the JSONL framing.  The
        caller owns that guarantee (checkpoints only ever record boundary
        offsets).
        """
        if offset < 0 or line_number < 0 or records_read < 0:
            raise ValueError("reader state fields must be non-negative")
        self._offset = int(offset)
        self._line_number = int(line_number)
        self._records_read = int(records_read)

    def poll(self, max_records: int | None = None) -> list[Trajectory]:
        """Decode records appended since the last poll (at most ``max_records``).

        Returns an empty list when nothing new (or only a partial line) has
        been written, or when the file does not exist yet.
        """
        if max_records is not None and max_records < 1:
            raise ValueError("max_records must be >= 1 when given")
        out: list[Trajectory] = []
        if not self.path.exists():
            return out
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            while max_records is None or len(out) < max_records:
                trajectory = self._next_record(handle)
                if trajectory is _EXHAUSTED:
                    break
                if trajectory is not None:
                    out.append(trajectory)
        return out

    def poll_quarantined(
        self, max_records: int | None = None
    ) -> tuple[list[Trajectory], int]:
        """Like :meth:`poll`, but step over corrupt lines instead of raising.

        Returns the records (at most ``max_records``) and the number of
        lines stepped over.  The records before a corrupt line are kept, the
        line is skipped (see :meth:`skip_line`), and reading goes on after
        it, so a reader restored from an earlier :attr:`state` meets and
        skips the same lines again.  :meth:`poll` raises with the reader
        still before the line but has consumed the records ahead of it, so
        those are read again through the iterator, which hands each one over
        before it meets the line.
        """
        if max_records is not None and max_records < 1:
            raise ValueError("max_records must be >= 1 when given")
        records: list[Trajectory] = []
        skipped = 0
        while True:
            start = self.state
            wanted = None if max_records is None else max_records - len(records)
            try:
                return records + self.poll(max_records=wanted), skipped
            except ValueError:
                self.seek(**start)
            try:
                for record in self:
                    records.append(record)
            except ValueError:
                self.skip_line()
                skipped += 1

    def skip_line(self) -> None:
        """Step over the complete line at the offset without decoding it.

        After :meth:`poll` raised on a corrupt record, the reader is still
        before it; this moves past it, so reading can go on (the serving
        runtime quarantines such lines).  The line counts in
        :attr:`line_number`, not in :attr:`records_read`.  A partial
        trailing line (a producer mid-write) is left as it is.
        """
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            line = handle.readline()
        if line.endswith(b"\n"):
            self._offset += len(line)
            self._line_number += 1

    def _next_record(self, handle) -> "Trajectory | None":
        """Consume one complete line from ``handle`` (positioned at offset).

        Returns the decoded trajectory, ``None`` for a blank line, or the
        ``_EXHAUSTED`` sentinel when only a partial trailing line (a producer
        mid-write) or EOF remains — the offset then stays before it so the
        next poll re-reads it whole.  State advances only after a successful
        parse: a corrupt record raises with the reader still positioned
        before it, so re-polling reports the same line deterministically.
        """
        line = handle.readline()
        if not line.endswith(b"\n"):
            return _EXHAUSTED
        line_number = self._line_number + 1
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"corrupt JSONL trajectory record at {self.path}, "
                f"line {line_number}: {exc}"
            ) from None
        trajectory = parse_trajectory_record(
            text, source=str(self.path), line_number=line_number
        )
        self._line_number = line_number
        self._offset = handle.tell()
        if trajectory is not None:
            self._records_read += 1
        return trajectory

    def __iter__(self) -> Iterator[Trajectory]:
        """Stream every record currently readable, one at a time.

        One file handle serves the whole iteration (unlike per-record
        polling); the offset/partial-line semantics match :meth:`poll`.
        """
        if not self.path.exists():
            return
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            while True:
                trajectory = self._next_record(handle)
                if trajectory is _EXHAUSTED:
                    return
                if trajectory is not None:
                    yield trajectory
