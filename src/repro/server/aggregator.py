"""The pending-request buffer query workers take their batches from.

Concurrent callers each hold one small :class:`~repro.api.QueryRequest`;
executing them one by one pays one index scan (and one Python dispatch) per
caller.  The :class:`BatchAggregator` buffers arriving requests, and a free
query worker calling :meth:`~BatchAggregator.take` leaves with up to
``max_batch`` of the oldest as soon as one of three triggers holds:

* **size** — ``max_batch`` requests are pending;
* **age** — the oldest has waited ``linger`` clock seconds;
* **pause** — for ``linger / PAUSE_DIVISOR`` no request has arrived and no
  worker has come back from a batch.

So a lone request on a quiet server leaves after the pause, not after a
whole ``linger``, while a burst of arrivals (closed-loop callers re-submitting
as their answers land) is still gathered into one batch: each arrival
restarts the pause, and so does a worker's return, since the callers it has
just answered re-submit only then.  The age trigger caps how long a steady
trickle can keep restarting it.  This is interrupt moderation as NICs do
it — an absolute timer plus one that restarts on every packet.

The waiting is done by the workers themselves, and every wait goes through
an injected :class:`~repro.utils.clock.Clock`, so under the test-kit's
:class:`~repro.utils.clock.VirtualClock` each trigger fires exactly when
the test advances virtual time — no sleeps, no flaky margins.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.api.types import QueryRequest
from repro.server.config import ServerClosed
from repro.utils.clock import Clock, SystemClock

#: The pause window is ``linger / PAUSE_DIVISOR``.  Callers that re-submit
#: as their answers land do so within tens of microseconds of each other,
#: well inside 1/8 of perfbench's 2 ms ``linger``, so such a burst still
#: leaves as one batch; independent arrivals at a few hundred per second
#: are milliseconds apart, so a lone one waits 1/8 of ``linger``, not all
#: of it.
PAUSE_DIVISOR = 8


@dataclass
class PendingQuery:
    """One buffered request plus the future its caller is blocked on."""

    request: QueryRequest
    future: Future = field(default_factory=Future)
    enqueued_at: float = 0.0


class BatchAggregator:
    """Buffer submitted requests until a worker :meth:`take`\\ s them as a batch.

    Callers :meth:`submit`; query workers loop on :meth:`take`, which blocks
    until a trigger holds and returns ``None`` once the buffer is closed and
    empty.  Closing lets workers take the rest without waiting.
    """

    def __init__(self, *, max_batch: int, linger: float, clock: Clock | None = None) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if linger < 0:
            raise ValueError("linger must be >= 0")
        self.max_batch = int(max_batch)
        self.linger = float(linger)
        self.pause = self.linger / PAUSE_DIVISOR
        self._clock = clock if clock is not None else SystemClock()
        self._lock = threading.Lock()
        self._pending: deque[PendingQuery] = deque()
        self._last_arrival = 0.0
        # Set when a waiting worker has something new to look at: a first
        # arrival, a full batch, survivors put back, leftovers, or closing.
        self._wake = self._clock.make_event()
        self._closed = False

    @property
    def pending(self) -> int:
        """Requests buffered but not yet taken by a worker."""
        with self._lock:
            return len(self._pending)

    def submit(self, request: QueryRequest) -> Future:
        """Buffer one request; returns the future its response will land on."""
        now = self._clock.monotonic()
        entry = PendingQuery(request=request, enqueued_at=now)
        with self._lock:
            if self._closed:
                raise ServerClosed("the aggregator is closed to new requests")
            self._pending.append(entry)
            self._last_arrival = now
            if len(self._pending) in (1, self.max_batch):
                # A fresh buffer arms a waiting worker's timers; a full one
                # is due now.  Later arrivals only push the pause further
                # out, which the worker reads when its wait ends.
                self._wake.set()
        return entry.future

    def take(self) -> list[PendingQuery] | None:
        """Block until a trigger holds, then return up to ``max_batch`` of the
        oldest pending requests; ``None`` once closed with nothing pending."""
        with self._lock:
            # A worker back from a batch has just answered its callers, who
            # re-submit now: their burst gets a whole pause, even if its first
            # requests slipped in while the worker was still answering (it
            # held the interpreter lock, so the pause measured the worker).
            self._last_arrival = max(self._last_arrival, self._clock.monotonic())
        while True:
            with self._lock:
                timeout = None
                if self._pending:
                    now = self._clock.monotonic()
                    due = min(
                        self._pending[0].enqueued_at + self.linger,
                        self._last_arrival + self.pause,
                    )
                    if self._closed or len(self._pending) >= self.max_batch or now >= due:
                        return self._take_locked()
                    timeout = due - now
                elif self._closed:
                    return None
                self._wake.clear()
            self._clock.wait(self._wake, timeout)

    def put_back(self, batch: list[PendingQuery]) -> None:
        """Return a taken batch's unanswered requests to the front of the buffer."""
        with self._lock:
            self._pending.extendleft(reversed(batch))
            self._wake.set()

    def close(self, error: BaseException | None = None) -> None:
        """Stop accepting requests and wake every waiting worker.

        Without ``error`` workers take what is pending without waiting;
        with it, every pending request fails with ``error`` instead.
        """
        with self._lock:
            self._closed = True
            failed = list(self._pending) if error is not None else []
            if failed:
                self._pending.clear()
            self._wake.set()
        for entry in failed:
            if not entry.future.done():
                entry.future.set_exception(error)

    def _take_locked(self) -> list[PendingQuery]:
        count = min(len(self._pending), self.max_batch)
        batch = [self._pending.popleft() for _ in range(count)]
        if self._pending:
            self._wake.set()  # leftovers: another waiting worker looks at them
        return batch
