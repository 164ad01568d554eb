"""Micro-benchmark: the IVF structure build with the single-buffer assignment.

Times ``IVFBackend._rebuild_structure`` — k-means over the training prefix,
the assignment of every stored row to its list and the grouping of rows by
list — with the served kernels (``assign_to_centroids``: one GEMM against
``−2C`` into a reused buffer, one add of ``|c|²``, one ``argmin``; uint16
radix grouping) and with the reference kernels from
``tests/kmeans_reference.py`` monkeypatched in (the full distance expansion
per block, the int64 stable sort).  The corpus is the offline benchmark's
shape: seeded, untrained START encodings of the synthetic-BJ trips,
jitter-grown to 100 000 x 64, under ``ivf`` with 256 lists.  The centroid
cache is cleared before every call, so each one trains from scratch.

The two sides alternate after one warm call each; each keeps its best of
``REPEATS``.  The gate needs 1.3x; it measured 1.5-1.8x on a 2-vCPU VM.  The
number of rows the two assignment kernels place in different lists, over the
same centroids, is recorded beside the ratio.
"""

from __future__ import annotations

import importlib
import importlib.util
import time
from pathlib import Path

import numpy as np

from repro.ann import IVFBackend
from repro.api import Engine, EngineConfig
from repro.core.config import StartConfig
from repro.trajectory.presets import build_dataset

ROWS = 100_000
NLIST = 256
JITTER = 0.05
REPEATS = 5
MIN_SPEEDUP = 1.3

_REFERENCE = Path(__file__).resolve().parents[1] / "tests" / "kmeans_reference.py"


def load_reference():
    spec = importlib.util.spec_from_file_location("kmeans_reference", _REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def offline_corpus() -> np.ndarray:
    """Seeded START encodings of synthetic-BJ, jitter-grown to ``ROWS``."""
    dataset = build_dataset("synthetic-bj", scale=1.0)
    engine = Engine.from_dataset(dataset, EngineConfig(start=StartConfig(seed=24)))
    encoded = engine.encode(dataset.trajectories)
    rng = np.random.default_rng(24)
    scale = JITTER * float(encoded.std())
    copies = -(-ROWS // len(encoded))
    grown = np.concatenate(
        [encoded + scale * rng.standard_normal(encoded.shape).astype(np.float32) for _ in range(copies)]
    )[:ROWS]
    return np.ascontiguousarray(grown, dtype=np.float32)


def test_ivf_build_speedup(benchmark, once, monkeypatch):
    reference = load_reference()
    ivf_module = importlib.import_module("repro.ann.ivf")
    kmeans_module = importlib.import_module("repro.ann.kmeans")
    served = {
        (module, name): getattr(module, name)
        for module in (ivf_module, kmeans_module)
        for name in ("assign_to_centroids", "grouping_order")
    }
    replaced = {
        "assign_to_centroids": reference.reference_assign_to_centroids,
        "grouping_order": reference.reference_grouping_order,
    }

    def use(kernels: str) -> None:
        for (module, name), function in served.items():
            monkeypatch.setattr(module, name, function if kernels == "served" else replaced[name])

    backend = IVFBackend(nlist=NLIST, seed=0)
    backend.add(offline_corpus())

    def build(kernels: str):
        use(kernels)
        backend._centroid_cache = None
        started = time.perf_counter()
        structure = backend._rebuild_structure()
        return time.perf_counter() - started, structure

    best = {"reference": float("inf"), "served": float("inf")}
    for kernels in best:
        build(kernels)  # warm
    for _ in range(REPEATS):
        for kernels in best:
            best[kernels] = min(best[kernels], build(kernels)[0])
    speedup = best["reference"] / best["served"]

    _, structure = once(benchmark, build, "served")
    stored, centroids = backend.shards[0].vectors, structure.centroids
    assignments, distances = served[(ivf_module, "assign_to_centroids")](stored, centroids)
    reference_assignments, reference_distances = reference.reference_assign_to_centroids(
        stored, centroids
    )
    changed = int((assignments != reference_assignments).sum())
    benchmark.extra_info["reference_ms"] = best["reference"] * 1e3
    benchmark.extra_info["served_ms"] = best["served"] * 1e3
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["changed_assignments"] = changed
    print(
        f"\nIVF build, {ROWS} x {stored.shape[1]} rows, nlist {NLIST}: reference "
        f"{best['reference'] * 1e3:.1f} ms, served {best['served'] * 1e3:.1f} ms "
        f"({speedup:.2f}x); {changed} of {ROWS} assignments changed"
    )
    # A changed assignment may only pick a list as near, to float32 rounding.
    tolerance = 1e-5 * (np.einsum("ij,ij->i", stored, stored) + float((centroids**2).sum(1).max()))
    assert (np.abs(distances - reference_distances) <= tolerance).all()
    assert speedup >= MIN_SPEEDUP, (
        f"IVF build only {speedup:.2f}x the reference kernels (need >= {MIN_SPEEDUP}x)"
    )
