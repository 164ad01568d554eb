"""Gate: a lone query on an idle runtime does not wait out ``linger``.

A free query worker takes what is pending as soon as ``max_batch`` requests
are pending, the oldest has waited ``linger``, or no request has arrived for
``linger / 8``.  So on an idle runtime a lone query leaves after the pause,
not after a whole ``linger``.  The setup is an idle 2-worker runtime over
the serving test-kit's engine (``tests/serving_runtime_kit.py``, loaded by
file path) with ``linger`` = 10 ms.  After a warm-up, 100 sequential lone
queries are timed, and the median round trip must be at most half of
``linger``.  A dispatcher that releases a lone request only once it has
waited ``linger`` reads at least 1x by construction.  The median, p90 and
their shares of ``linger`` land in ``benchmark.extra_info``.
"""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

import numpy as np

from repro.api import QueryRequest

LINGER = 0.01
WARM_QUERIES = 20
QUERIES = 100
MAX_SHARE = 0.5

_KIT = Path(__file__).resolve().parents[1] / "tests" / "serving_runtime_kit.py"


def load_kit():
    spec = importlib.util.spec_from_file_location("serving_runtime_kit", _KIT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lone_query_leaves_well_before_linger(benchmark, once):
    kit = load_kit()
    engine = kit.make_engine()
    kit.seed_engine(engine, 64)
    requests = [
        QueryRequest(queries=kit.probe_queries(1, seed=seed), k=5)
        for seed in range(WARM_QUERIES + QUERIES + 1)
    ]
    with kit.make_runtime(engine, linger=LINGER, num_workers=2) as runtime:
        for request in requests[:WARM_QUERIES]:
            runtime.query(request, timeout=30)
        seconds = []
        for request in requests[WARM_QUERIES:-1]:
            started = time.perf_counter()
            runtime.query(request, timeout=30)
            seconds.append(time.perf_counter() - started)
        once(benchmark, runtime.query, requests[-1], timeout=30)

    median = float(np.median(seconds))
    p90 = float(np.percentile(seconds, 90))
    share = median / LINGER
    benchmark.extra_info["linger_ms"] = LINGER * 1e3
    benchmark.extra_info["median_ms"] = median * 1e3
    benchmark.extra_info["p90_ms"] = p90 * 1e3
    benchmark.extra_info["median_share_of_linger"] = share
    benchmark.extra_info["p90_share_of_linger"] = p90 / LINGER
    assert share <= MAX_SHARE, (
        f"a lone query takes {median * 1e3:.2f} ms (median of {QUERIES}), "
        f"{share:.2f}x linger; expected <= {MAX_SHARE}x"
    )
