"""The benchmark's own tests, on tiny sizes (about a minute on two cores).

    python3 perfbench/check_smoke.py            # or: python -m pytest perfbench/check_smoke.py

1. Every workload (the ungated ``online-mixed`` too), traced and untraced,
   prints every metric that ``BENCHMARK.json`` lists for that mode, with its
   unit, and answers correctly; every per-layer metric is non-zero on at
   least one workload.
2. Nested spans never have negative self time, and children lie inside
   their parents.
3. Installing the tracer leaves answers bit-identical: the same queries
   through an ``aligned``-mode runtime with tracing off and on.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

#: Per-layer metrics that count faults or differences: 0 is their healthy value.
MAY_BE_ZERO = ("server.failed_futures", "loadgen.behind", "trace_overhead.")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _run(workload: str, trace: int) -> dict:
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert process.returncode == 0, process.stderr[-3000:]
    return json.loads(process.stdout.strip().splitlines()[-1])


def test_every_metric_is_emitted_with_its_unit():
    from workloads import INTERFERED, WORKLOADS

    spec = _spec()
    nonzero: set[str] = set()
    assert {entry["name"] for entry in spec["workloads"]} <= set(WORKLOADS)
    better = {entry["name"]: entry["better"] for entry in spec["end_to_end"]}
    assert all(better[name] == side for name, side in INTERFERED.items())
    for workload in WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = _run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            units = {entry["name"]: entry["unit"] for entry in listed}
            emitted = {name: value["unit"] for name, value in result["metrics"].items()}
            assert emitted == units, (workload, trace)
            if trace == 0:
                assert all(value["value"] > 0 for value in result["metrics"].values()), workload
            nonzero |= {name for name, value in result["metrics"].items() if value["value"] != 0}
    idle = [
        entry["name"] for entry in spec["per_layer"]
        if entry["name"] not in nonzero and not entry["name"].startswith(MAY_BE_ZERO)
    ]
    assert not idle, f"per-layer metrics that no workload moved: {idle}"


def test_nested_spans_have_non_negative_self_time():
    from run import run_workload
    from spans import self_times

    for workload in ("online-mixed", "offline-pipeline"):
        with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
            _, _, spans = run_workload(workload, 3, 2.0, True, True, Path(workdir))
        assert spans, workload
        by_id = {span.span_id: span for span in spans}
        for span in spans:
            parent = by_id.get(span.parent_id)
            if parent is not None:
                assert parent.thread == span.thread
                assert parent.start <= span.start <= span.end <= parent.end, (parent, span)
        assert min(self_times(spans).values()) >= 0.0


def test_tracer_leaves_answers_bit_identical():
    from common import SMOKE, bj_dataset, jitter_grow
    from repro.api import Engine, EngineConfig, QueryRequest
    from repro.server import ServerConfig, ServingRuntime
    from spans import SpanRecorder, instrument

    dataset = bj_dataset()
    engine = Engine.from_dataset(dataset, EngineConfig())
    engine.model.eval()
    rows = jitter_grow(engine.encode(dataset.trajectories), SMOKE.vectors_rows, np.random.default_rng(0))
    engine.ingest_vectors(rows)
    trips = dataset.test_trajectories()[:24]
    requests = [QueryRequest(queries=rows[i : i + 1] + 0.01, k=10) for i in range(0, 480, 10)]
    requests += [QueryRequest(queries=[trip], k=10) for trip in trips]

    def answers():
        config = ServerConfig(max_batch=8, num_workers=2, coalesce="aligned")
        with tempfile.TemporaryDirectory(dir=ROOT) as replicas:
            with ServingRuntime(engine, config, replica_dir=replicas) as runtime:
                futures = [runtime.submit(request) for request in requests]
                return [future.result(timeout=60) for future in futures]

    plain = answers()
    recorder = SpanRecorder()
    with instrument(recorder):
        traced = answers()
    assert recorder.spans, "the tracer recorded nothing"
    for left, right in zip(plain, traced):
        assert left.ids.tobytes() == right.ids.tobytes()
        assert left.distances.tobytes() == right.distances.tobytes()


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
