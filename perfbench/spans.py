"""In-memory span recording around the public entry points of each layer.

The traced run wraps a fixed list of public functions (``Engine.encode``,
``ShardedIndex.top_k``, ``Tensor.backward``, ...) with a recorder for the
length of that run only; :func:`instrument` restores the originals on exit,
so the untraced run executes exactly the shipped code.  Each span records
its name, start, end, thread and parent (taken from a thread-local stack),
plus a few attributes read from the call's arguments or result.  Spans stay
in memory and are summarised by :func:`layer_metrics` at the end.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    span_id: int
    parent_id: int | None
    thread: int
    start: float
    end: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


class SpanRecorder:
    """Collects spans from every thread; parents come from a per-thread stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **attrs) -> Span:
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        span = Span(
            name=name,
            span_id=span_id,
            parent_id=stack[-1].span_id if stack else None,
            thread=threading.get_ident(),
            start=time.perf_counter(),
            attrs=attrs,
        )
        stack.append(span)
        return span

    def current(self) -> Span | None:
        """The innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        # Spans close in LIFO order on their own thread; a span left open by a
        # call that raised is closed here together with its parent.
        while stack:
            top = stack.pop()
            if top is span:
                break
            top.end = span.end
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        current = self.begin(name)
        try:
            yield current
        finally:
            self.end(current)

    def wrap(self, function, name: str, describe=None):
        """``function`` recorded as span ``name``; ``describe(args, result)`` adds attributes."""

        def traced(*args, **kwargs):
            current = self.begin(name)
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                if describe is not None and result is not None:
                    current.attrs.update(describe(args, result))
                self.end(current)

        traced.__wrapped__ = function
        return traced


def _count_arg(args, result) -> dict:
    request = args[1]
    return {"items": len(getattr(request, "trajectories", request))}


def _rows_arg(args, result) -> dict:
    return {"items": int(np.asarray(args[1]).shape[0])}


def _records_result(args, result) -> dict:
    return {"items": len(result)}


def _batch_tokens(args, result) -> dict:
    return {"true_tokens": int(result.lengths.sum()), "padded_tokens": int(result.tokens.size)}


def _patch_targets():
    """(owner, attribute, span name, describe) for every traced entry point."""
    from repro.ann.base import AnnBackendBase
    from repro.api.engine import Engine
    from repro.core.batching import BatchBuilder
    from repro.core.model import STARTModel
    from repro.core.tpe_gat import TPEGAT
    from repro.nn.optim import AdamW
    from repro.nn.tensor import Tensor
    from repro.server.checkpoint import Checkpointer
    from repro.server.runtime import ServingRuntime
    from repro.streaming.reader import TrajectoryStreamReader
    from repro.streaming.shards import ShardedIndex

    return [
        (ServingRuntime, "submit", "server.submit", None),
        (Checkpointer, "save", "server.checkpoint", None),
        (Engine, "pretrain", "api.pretrain", None),
        (Engine, "encode", "api.encode", _count_arg),
        (Engine, "ingest", "api.ingest", _count_arg),
        (Engine, "query_many", "api.query_many", _count_arg),
        (Engine, "snapshot", "api.snapshot", None),
        (Engine, "restore", "api.restore", None),
        (ShardedIndex, "top_k", "streaming.top_k", _rows_arg),
        (TrajectoryStreamReader, "poll", "streaming.poll", _records_result),
        (AnnBackendBase, "top_k", "ann.top_k", _rows_arg),
        (STARTModel, "encode", "core.encode", _count_arg),
        (STARTModel, "forward", "core.forward", None),
        (TPEGAT, "forward", "core.road_encoder", None),
        (BatchBuilder, "build", "core.batch_build", _batch_tokens),
        (BatchBuilder, "build_from_views", "core.batch_build", _batch_tokens),
        (Tensor, "backward", "nn.backward", None),
        (AdamW, "step", "nn.optimizer_step", None),
    ]


@contextmanager
def instrument(recorder: SpanRecorder):
    """Wrap every traced entry point for the duration of the block."""
    originals = []
    try:
        for owner, attribute, name, describe in _patch_targets():
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                replacement = classmethod(recorder.wrap(original.__func__, name, describe))
            else:
                replacement = recorder.wrap(original, name, describe)
            originals.append((owner, attribute, original))
            setattr(owner, attribute, replacement)
        yield recorder
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def batch_hooks(recorder: SpanRecorder | None, base):
    """A ``ServerHooks`` subclass instance opening one span per executed batch."""

    class _BatchSpans(base):
        def on_batch_start(self, worker_id, batch_size, generation):
            super().on_batch_start(worker_id, batch_size, generation)
            if recorder is not None:
                recorder.begin("server.batch", items=batch_size)

        def on_batch_done(self, worker_id, batch_size, generation):
            span = recorder.current() if recorder is not None else None
            if span is not None and span.name == "server.batch":
                recorder.end(span)
            super().on_batch_done(worker_id, batch_size, generation)

    return _BatchSpans


# ---------------------------------------------------------------------- #
# Summaries
# ---------------------------------------------------------------------- #
def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    out = {}
    for span in spans:
        intervals = sorted(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.span_id, [])
        )
        covered, cursor = 0.0, span.start
        for start, stop in intervals:
            start = max(start, cursor)
            if stop > start:
                covered += stop - start
                cursor = stop
        out[span.span_id] = span.duration - covered
    return out


def _descendants_of(spans: list[Span], root_name: str) -> list[Span]:
    """Spans nested (at any depth) under a span called ``root_name``."""
    by_id = {span.span_id: span for span in spans}
    out = []
    for span in spans:
        parent = by_id.get(span.parent_id)
        while parent is not None and parent.name != root_name:
            parent = by_id.get(parent.parent_id)
        if parent is not None:
            out.append(span)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The span-derived per-layer metrics (see README for what each one moves)."""
    spans = [span for span in spans if span.end is not None]
    by_id = {span.span_id: span for span in spans}
    own = self_times(spans)
    pretraining = _descendants_of(spans, "api.pretrain")

    def named(name, within=None):
        return [span for span in (spans if within is None else within) if span.name == name]

    def parent_name(span):
        parent = by_id.get(span.parent_id)
        return parent.name if parent is not None else None

    def p50_ms(seconds):
        return float(np.median(seconds)) * 1e3 if seconds else 0.0

    def duration_p50_ms(selected):
        return p50_ms([span.duration for span in selected])

    def mean_items(name):
        items = [span.attrs.get("items", 0) for span in named(name)]
        return float(np.mean(items)) if items else 0.0

    def pretrain_total_ms(name):
        return 1e3 * sum(span.duration for span in named(name, pretraining))

    ann_queries = [span for span in named("ann.top_k") if parent_name(span) != "ann.build"]
    encode_batches = [span for span in named("core.batch_build") if parent_name(span) == "core.encode"]
    padded = sum(span.attrs["padded_tokens"] for span in encode_batches)
    true = sum(span.attrs["true_tokens"] for span in encode_batches)
    return {
        "server.submit_us_p50": 1e3 * duration_p50_ms(named("server.submit")),
        "server.checkpoint_ms_p50": duration_p50_ms(named("server.checkpoint")),
        "api.query_many_self_ms_p50": p50_ms([own[span.span_id] for span in named("api.query_many")]),
        "api.encode_ms_p50": duration_p50_ms(named("api.encode")),
        "api.encode_traj_per_call": mean_items("api.encode"),
        "api.snapshot_ms_p50": duration_p50_ms(named("api.snapshot")),
        "api.ingest_ms_p50": duration_p50_ms(named("api.ingest")),
        "api.restore_ms_p50": duration_p50_ms(named("api.restore")),
        "api.restore_calls": float(len(named("api.restore"))),
        "streaming.top_k_ms_p50": duration_p50_ms(named("streaming.top_k")),
        "streaming.top_k_queries_per_call": mean_items("streaming.top_k"),
        "streaming.poll_ms_p50": duration_p50_ms(named("streaming.poll")),
        "streaming.poll_records": float(sum(span.attrs.get("items", 0) for span in named("streaming.poll"))),
        "ann.build_ms": duration_p50_ms(named("ann.build")),
        "ann.top_k_ms_p50": duration_p50_ms(ann_queries),
        "ann.top_k_calls": float(len(ann_queries)),
        "core.encode_ms_p50": duration_p50_ms(named("core.encode")),
        "core.padding_efficiency": true / padded if padded else 0.0,
        "core.batch_build_ms_total": pretrain_total_ms("core.batch_build"),
        "core.forward_ms_total": pretrain_total_ms("core.forward"),
        "core.road_encoder_ms_total": pretrain_total_ms("core.road_encoder"),
        "nn.backward_ms_total": pretrain_total_ms("nn.backward"),
        "nn.optimizer_step_ms_total": pretrain_total_ms("nn.optimizer_step"),
        "nn.steps": float(len(named("nn.optimizer_step", pretraining))),
    }
