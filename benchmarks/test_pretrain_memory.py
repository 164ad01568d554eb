"""Memory gate: backward frees the autograd graph, so pre-training peaks lower.

Runs the first ``STEPS`` START pre-training steps of the offline benchmark
(synthetic-BJ, the default ``StartConfig``: batch 16, one mask forward and
two contrastive-view forwards over one TPE-GAT road table per step) under
``tracemalloc`` twice from the same seed: once with ``Tensor.backward``,
which frees each interior node once its closure has run, and once with the
graph-keeping backward of ``tests/autograd_reference.py``, loaded by file
path.  That one holds step t-1's whole graph, with a gradient on every
interior node, while step t builds its own.

The gate needs the traced peak at <= 0.6x the reference's (one BJ epoch read
74.4 vs 200.6 MB, 0.37x, on a 2-vCPU VM).  It measures memory, not time, so
a busy host cannot fail it.  The losses, the parameters and their last
gradients after the steps must be byte-equal.
"""

from __future__ import annotations

import importlib.util
import tracemalloc
from pathlib import Path

from repro.api import Engine, EngineConfig
from repro.core.config import StartConfig
from repro.trajectory.presets import build_dataset

STEPS = 6
SEED = 5
MAX_RATIO = 0.6

_REFERENCE = Path(__file__).resolve().parents[1] / "tests" / "autograd_reference.py"


def load_reference():
    spec = importlib.util.spec_from_file_location("autograd_reference", _REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_pretrain(dataset, trips) -> tuple[float, list[float], dict]:
    """(traced peak in MB, losses, each parameter's bytes and last gradient)."""
    engine = Engine.from_dataset(dataset, EngineConfig(start=StartConfig(seed=SEED)))
    tracemalloc.start()
    try:
        history = engine.pretrain(trips, epochs=1)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    state = {
        name: (param.data.tobytes(), param.grad.tobytes())
        for name, param in engine.model.named_parameters()
    }
    return peak, history.total, state


def test_pretraining_peaks_lower_with_the_same_bits(benchmark, once):
    reference = load_reference()
    dataset = build_dataset("synthetic-bj", scale=1.0)
    batch_size = StartConfig().batch_size
    trips = dataset.train_trajectories()[: STEPS * batch_size]

    def measure():
        freed = traced_pretrain(dataset, trips)
        with reference.graph_keeping_backward():
            kept = traced_pretrain(dataset, trips)
        return freed, kept

    (peak, losses, state), (kept_peak, kept_losses, kept_state) = once(benchmark, measure)
    ratio = peak / kept_peak
    benchmark.extra_info["traced_peak_mb"] = peak
    benchmark.extra_info["reference_traced_peak_mb"] = kept_peak
    benchmark.extra_info["peak_ratio"] = ratio
    print(
        f"\n{STEPS} BJ pre-training steps: traced peak {kept_peak:.1f} MB "
        f"(graph-keeping backward) -> {peak:.1f} MB ({ratio:.2f}x)"
    )

    assert losses == kept_losses
    assert state.keys() == kept_state.keys()
    for name in state:
        assert state[name] == kept_state[name], f"{name} differs from the reference backward"
    assert ratio <= MAX_RATIO, (
        f"pre-training peaks at {peak:.1f} MB traced, {ratio:.2f}x the graph-keeping "
        f"backward's {kept_peak:.1f} MB; expected <= {MAX_RATIO}x"
    )
