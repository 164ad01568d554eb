"""Micro-benchmark: the running-threshold exact scan vs. the per-chunk merge.

Times the served exact path, ``create_backend("sharded")``, against the
reference kernel in ``tests/exact_scan_reference.py`` — the scan it replaced,
which merged every 4096-row chunk with one ``argpartition`` over the whole
``(Q, k + 4096)`` block, scanned each shard on its own and k-way merged the
shards.  Both run over the same 50 000 x 64 float32 rows (the online
benchmark's corpus shape), so the distances must agree bitwise; only the
selection differs.  The gate is at 16 queries per call, a typical
closed-loop batch; the ratios at 1, 10, 16 and 64 queries are recorded.
"""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

import numpy as np

from repro.api import create_backend

DATABASE_SIZE = 50_000
DIM = 64
K = 10
QUERIES_PER_CALL = (1, 10, 16, 64)
GATED_QUERIES_PER_CALL = 16
CALLS_PER_REPEAT = 10
REPEATS = 3
MIN_SPEEDUP = 1.2

_REFERENCE = Path(__file__).resolve().parents[1] / "tests" / "exact_scan_reference.py"


def load_reference_top_k():
    spec = importlib.util.spec_from_file_location("exact_scan_reference", _REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_top_k


def best_of_interleaved(functions, repeats: int = REPEATS) -> list[float]:
    """Each function's per-call seconds: the best of ``repeats`` medians of
    ``CALLS_PER_REPEAT`` calls.  Calls alternate between the functions, so
    a busy neighbour slows both sides alike."""
    best = [float("inf")] * len(functions)
    for _ in range(repeats):
        samples = [[] for _ in functions]
        for _ in range(CALLS_PER_REPEAT):
            for slot, function in enumerate(functions):
                started = time.perf_counter()
                function()
                samples[slot].append(time.perf_counter() - started)
        for slot, seconds in enumerate(samples):
            best[slot] = min(best[slot], float(np.median(seconds)))
    return best


def test_running_threshold_scan_speedup(benchmark, once):
    reference_top_k = load_reference_top_k()
    rng = np.random.default_rng(29)
    database = rng.standard_normal((DATABASE_SIZE, DIM)).astype(np.float32)
    index = create_backend("sharded")
    index.add(database)

    speedups = {}
    for count in QUERIES_PER_CALL:
        queries = rng.standard_normal((count, DIM)).astype(np.float32)
        served, reference = index.top_k(queries, K), reference_top_k(index, queries, K)
        # Same float32 words; ids too, as the random rows never tie.
        assert served.distances.tobytes() == reference.distances.tobytes()
        np.testing.assert_array_equal(served.indices, reference.indices)
        reference_seconds, served_seconds = best_of_interleaved(
            [lambda: reference_top_k(index, queries, K), lambda: index.top_k(queries, K)]
        )
        speedups[count] = reference_seconds / served_seconds
        benchmark.extra_info[f"reference_ms_q{count}"] = reference_seconds * 1e3
        benchmark.extra_info[f"served_ms_q{count}"] = served_seconds * 1e3
        benchmark.extra_info[f"speedup_q{count}"] = speedups[count]

    gated = speedups[GATED_QUERIES_PER_CALL]
    assert gated >= MIN_SPEEDUP, (
        f"running-threshold scan {gated:.2f}x the per-chunk merge at "
        f"{GATED_QUERIES_PER_CALL} queries per call; expected >= {MIN_SPEEDUP}x "
        f"(all: {', '.join(f'q{q}={s:.2f}x' for q, s in speedups.items())})"
    )

    queries = rng.standard_normal((GATED_QUERIES_PER_CALL, DIM)).astype(np.float32)
    once(benchmark, lambda: index.top_k(queries, K))
