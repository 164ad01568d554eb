"""Open- and closed-loop request generation from one sender thread.

Completions are recorded by future callbacks (on whichever runtime thread
resolves the future), so the sender never blocks on an answer in the open
loop.  Latency is measured from the time a request was *due*, which charges
a stall to every request it delays, and the sender's own lateness is kept
so a run in which the generator fell behind can be flagged.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import wait
from dataclasses import dataclass

import numpy as np


@dataclass
class Sent:
    """One request: when it was due, sent and completed, and its outcome."""

    key: int
    due: float
    sent: float = math.nan
    done: float = math.nan
    response: object = None
    error: BaseException | None = None

    @property
    def answered(self) -> bool:
        return self.response is not None and self.error is None


def _complete(record: Sent, future) -> None:
    record.done = time.perf_counter()
    error = future.exception()
    if error is not None:
        record.error = error
    else:
        record.response = future.result()


def open_loop(submit, keys, offsets, *, grace: float) -> list[Sent]:
    """Send ``submit(key)`` at each offset (seconds from now), regardless of replies.

    Waits up to ``grace`` seconds after the last send for the stragglers;
    those still unanswered stay unanswered and count as failures.
    """
    origin = time.perf_counter() + 0.01
    records: list[Sent] = []
    futures = []
    for key, offset in zip(keys, offsets):
        due = origin + float(offset)
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        record = Sent(key=int(key), due=due, sent=time.perf_counter())
        records.append(record)
        try:
            future = submit(int(key))
        except Exception as exc:  # a refused request is a failed one
            record.error = exc
            continue
        future.add_done_callback(lambda f, r=record: _complete(r, f))
        futures.append(future)
    wait(futures, timeout=grace)
    return records


def closed_loop(submit, keys, duration: float, window: int, *, grace: float) -> list[Sent]:
    """Keep ``window`` requests in flight for ``duration`` seconds.

    A new request is sent as soon as one completes (a pool of waiting
    callers); ``keys`` must hold enough keys for the fastest expected rate.
    """
    slots = threading.Semaphore(window)
    records: list[Sent] = []
    futures = []
    stop = time.perf_counter() + duration
    for key in keys:
        remaining = stop - time.perf_counter()
        if remaining <= 0 or not slots.acquire(timeout=remaining):
            break
        now = time.perf_counter()
        record = Sent(key=int(key), due=now, sent=now)
        records.append(record)
        try:
            future = submit(int(key))
        except Exception as exc:
            record.error = exc
            slots.release()
            continue

        def done(f, r=record):
            _complete(r, f)
            slots.release()

        future.add_done_callback(done)
        futures.append(future)
    wait(futures, timeout=grace)
    return records


def latencies_ms(records: list[Sent]) -> np.ndarray:
    """Due-to-completion latency of every answered request."""
    return np.array([(r.done - r.due) * 1e3 for r in records if r.answered])


def lateness_p99_ms(records: list[Sent]) -> float:
    """How late the sender ran: p99 of (sent - due)."""
    if not records:
        return 0.0
    return float(np.percentile([(r.sent - r.due) * 1e3 for r in records], 99))


def throughput(records: list[Sent]) -> float:
    """Answered requests per second between the first send and the last answer."""
    answered = [r for r in records if r.answered]
    if not answered:
        return 0.0
    span = max(r.done for r in answered) - min(r.sent for r in records)
    return len(answered) / span if span > 0 else 0.0
