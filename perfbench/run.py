"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload online-vectors --seed 1 --seconds 30 --trace 0

Run from the repository root (it imports the package from ``src/``).  With
``--trace 0`` the last line holds every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` the workload runs twice, for half the
seconds each — untraced, then with spans recorded around each layer's public
entry points — and the last line holds every per-layer metric, including the
tracing overhead per end-to-end metric (traced minus untraced).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (self-test only)")
    return parser.parse_args(argv)


def import_repro() -> None:
    """Put ``src/`` on the path; a checkout without the package cannot run."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {source}; run from a full checkout")
    sys.path.insert(0, str(source))


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, workdir: Path):
    """``(metrics, outcomes, spans)``: the metrics to print, the outcomes and spans behind them."""
    from common import FULL, SMOKE, bj_dataset
    from spans import SpanRecorder, instrument, layer_metrics
    from workloads import WORKLOADS, Context

    sizes = SMOKE if smoke else FULL
    dataset = bj_dataset()

    def context(part: str, span_seconds: float, recorder=None) -> Context:
        return Context(seed, span_seconds, sizes, dataset, workdir / part, recorder)

    if not trace:
        outcome = WORKLOADS[name](context("run", seconds))
        return outcome.metrics, [outcome], []
    untraced = WORKLOADS[name](context("untraced", seconds / 2))
    recorder = SpanRecorder()
    with instrument(recorder):
        traced = WORKLOADS[name](context("traced", seconds / 2, recorder))
    spans = [
        span for span in recorder.spans
        if any(start <= span.start <= end for start, end in traced.windows)
    ]
    metrics = layer_metrics(spans)
    metrics.update(traced.layer)
    for metric, value in traced.metrics.items():
        metrics[f"trace_overhead.{metric}"] = value - untraced.metrics[metric]
    return metrics, [untraced, traced], spans


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    from workloads import WORKLOADS  # numpy only; the package itself loads below

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    import_repro()
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in listed}

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(workdir / "tmp")  # nothing is written outside the checkout
    try:
        metrics, outcomes, _ = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, workdir
        )
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    if args.trace:
        # A layer the workload leaves idle reports 0 (e.g. ann.* on online-vectors).
        metrics = {**dict.fromkeys(units, 0.0), **metrics}
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise SystemExit(f"perfbench: metrics do not match BENCHMARK.json: missing {missing}, extra {extra}")
    for number, outcome in enumerate(outcomes):
        label = ("untraced", "traced")[number] if len(outcomes) > 1 else "run"
        for phase, attempted, failed in outcome.phases:
            print(f"[{label}] phase {phase}: attempted {attempted}, failed {failed}")
        for note in outcome.notes:
            print(f"[{label}] note: {note}")
        for name, value in sorted(outcome.layer.items()):
            print(f"[{label}] {name} = {value:.6g}")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": all(outcome.correct for outcome in outcomes),
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": sum(outcome.failed for outcome in outcomes),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
