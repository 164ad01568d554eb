"""Micro-benchmark: the vectorised batch fill vs. the per-row builder.

Times ``BatchBuilder.build`` against ``ReferenceBatchBuilder`` from
``tests/bulk_encode_reference.py`` -- the builder it replaced, which walked
every point in Python and called ``datetime`` once per point -- on the
offline benchmark's bulk-encode shape: 4200 synthetic-BJ trips (the 1050
trips four times) cut into length-sorted 64-trip groups and then into the
model's 16-trip batches, 263 batches in all.  Calls alternate between the
two builders and every pair of batches must be bitwise equal.  The gate
needs 2x; it measured 4.4-4.7x on a 2-vCPU VM.

One-trajectory ``build`` and ``Engine.encode([trip])`` medians over the 210
test trips are recorded beside it, ungated: a raw query is encoded alone,
so the vectorised fill must not cost more than the per-row one there.
"""

from __future__ import annotations

import importlib.util
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.api import Engine, EngineConfig
from repro.core.batching import BatchBuilder
from repro.core.config import StartConfig
from repro.nn import kernels, length_bucketed_indices
from repro.trajectory.presets import build_dataset

COPIES = 4
ENCODE_GROUP = 64
MODEL_BATCH = 16
REPEATS = 3
MIN_SPEEDUP = 2.0

_REFERENCE = Path(__file__).resolve().parents[1] / "tests" / "bulk_encode_reference.py"


def load_reference():
    spec = importlib.util.spec_from_file_location("bulk_encode_reference", _REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def offline_batches(trips: list) -> list[list]:
    batches = []
    for rows in length_bucketed_indices([len(t) for t in trips], ENCODE_GROUP):
        group = [trips[i] for i in rows]
        batches.extend(group[s : s + MODEL_BATCH] for s in range(0, len(group), MODEL_BATCH))
    return batches


def alternating_seconds(functions, batches) -> list[float]:
    """Each function's best total over ``REPEATS`` passes; per batch, the
    functions run back to back, so load from a neighbour hits all alike."""
    best = [float("inf")] * len(functions)
    for _ in range(REPEATS):
        totals = [0.0] * len(functions)
        for batch in batches:
            for slot, function in enumerate(functions):
                started = time.perf_counter()
                function(batch)
                totals[slot] += time.perf_counter() - started
        best = [min(b, t) for b, t in zip(best, totals)]
    return best


def alternating_medians(functions, items) -> list[float]:
    samples = [[] for _ in functions]
    for item in items:
        for slot, function in enumerate(functions):
            started = time.perf_counter()
            function(item)
            samples[slot].append(time.perf_counter() - started)
    return [float(np.median(s)) for s in samples]


@contextmanager
def reference_encode_path(reference):
    """Run ``STARTModel.encode`` on the reference builder and kernels."""
    import repro.core.model as model_module

    originals = (model_module.BatchBuilder, kernels.fused_attention, kernels.layer_norm)
    model_module.BatchBuilder = reference.ReferenceBatchBuilder
    kernels.fused_attention = reference.fused_attention
    kernels.layer_norm = reference.layer_norm
    try:
        yield
    finally:
        model_module.BatchBuilder, kernels.fused_attention, kernels.layer_norm = originals


def test_vectorised_batch_fill_speedup(benchmark, once, capsys):
    reference = load_reference()
    dataset = build_dataset("synthetic-bj")
    num_roads = dataset.network.num_roads
    batches = offline_batches(list(dataset.trajectories) * COPIES)
    built, expected = BatchBuilder(num_roads), reference.ReferenceBatchBuilder(num_roads)
    for batch in batches:
        assert reference.batch_mismatch(built.build(batch), expected.build(batch)) is None

    reference_s, vectorised_s = alternating_seconds([expected.build, built.build], batches)
    speedup = reference_s / vectorised_s

    test_trips = [[t] for t in dataset.test_trajectories()]
    one_reference, one_vectorised = alternating_medians(
        [expected.build, built.build], test_trips
    )
    engine = Engine.from_dataset(dataset, EngineConfig(start=StartConfig(seed=7)))

    def reference_encode(trip):
        with reference_encode_path(reference):
            return engine.encode(trip)

    encode_reference, encode_vectorised = alternating_medians(
        [reference_encode, engine.encode], test_trips
    )

    info = {
        "batches": len(batches),
        "reference_ms": reference_s * 1e3,
        "vectorised_ms": vectorised_s * 1e3,
        "speedup": speedup,
        "one_trip_build_reference_us": one_reference * 1e6,
        "one_trip_build_vectorised_us": one_vectorised * 1e6,
        "one_trip_encode_reference_us": encode_reference * 1e6,
        "one_trip_encode_vectorised_us": encode_vectorised * 1e6,
    }
    benchmark.extra_info.update(info)
    with capsys.disabled():
        print(
            f"\nbatch build, {len(batches)} offline batches: reference {reference_s * 1e3:.0f} ms"
            f" -> vectorised {vectorised_s * 1e3:.0f} ms ({speedup:.1f}x); one trip: build"
            f" {one_reference * 1e6:.0f} -> {one_vectorised * 1e6:.0f} us, Engine.encode"
            f" {encode_reference * 1e6:.0f} -> {encode_vectorised * 1e6:.0f} us (medians)"
        )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorised batch fill is {speedup:.2f}x the per-row builder on the offline "
        f"shape; expected >= {MIN_SPEEDUP}x"
    )
    once(benchmark, lambda: [built.build(b) for b in batches])
