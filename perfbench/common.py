"""Inputs, sizes and small helpers shared by the three workloads."""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

#: Neighbours per query in every workload.
K = 10
#: Gaussian jitter (as a share of the corpus std) used to grow a corpus.
JITTER = 0.05


@dataclass(frozen=True)
class Sizes:
    """Every size a workload uses; ``SMOKE`` shrinks them for the self-test."""

    cycles: int = 8
    vectors_rows: int = 50_000
    vectors_pool: int = 4096
    vectors_rate: float = 400.0
    mixed_rows: int = 20_000
    mixed_rate: float = 50.0
    stream_rate: float = 150.0
    window: int = 64
    max_batch: int = 64
    linger: float = 0.002
    workers: int = 2
    ingest_group: int = 64
    offline_train: int | None = None  # None: the whole train split (630 trips)
    offline_encode_copies: int = 4  # 4 x 1050 trips = 4200 encodes per round
    offline_rows: int = 100_000
    offline_queries: int = 2048
    offline_batch: int = 64
    nlist: int = 256
    nprobe: int = 8
    detour_queries: int = 100
    detour_negatives: int = 600


FULL = Sizes()
SMOKE = Sizes(
    cycles=2,
    vectors_rows=3000,
    vectors_pool=256,
    mixed_rows=2000,
    window=16,
    max_batch=16,
    ingest_group=16,
    offline_train=48,
    offline_encode_copies=1,
    offline_rows=4000,
    offline_queries=256,
    nlist=16,
    nprobe=4,
    detour_queries=20,
    detour_negatives=60,
)


def timed(function, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    started = time.perf_counter()
    result = function(*args, **kwargs)
    return time.perf_counter() - started, result


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bj_dataset():
    """The synthetic-BJ preset (1050 trips; 630 train / 210 test)."""
    from repro.trajectory.presets import build_dataset

    return build_dataset("synthetic-bj", scale=1.0)


def jitter_grow(encoded: np.ndarray, rows: int, rng: np.random.Generator) -> np.ndarray:
    """Grow ``encoded`` to ``rows`` rows by replicating it with small Gaussian jitter."""
    copies = -(-rows // len(encoded))
    scale = JITTER * float(encoded.std())
    grown = np.concatenate(
        [encoded + scale * rng.standard_normal(encoded.shape).astype(np.float32) for _ in range(copies)]
    )[:rows]
    return np.ascontiguousarray(grown, dtype=np.float32)


def near_duplicates(corpus: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` distinct query rows: corpus rows plus half the corpus jitter."""
    picks = rng.choice(len(corpus), size=count, replace=False)
    scale = JITTER / 2 * float(corpus.std())
    noise = scale * rng.standard_normal((count, corpus.shape[1])).astype(np.float32)
    return np.ascontiguousarray(corpus[picks] + noise, dtype=np.float32)


def zipf_keys(rng: np.random.Generator, pool: int, count: int, exponent: float = 1.1) -> np.ndarray:
    """``count`` keys over ``range(pool)`` with Zipf(``exponent``) popularity."""
    weights = 1.0 / np.arange(1, pool + 1, dtype=np.float64) ** exponent
    ranks = rng.choice(pool, size=count, p=weights / weights.sum())
    return rng.permutation(pool)[ranks]


def poisson_offsets(rng: np.random.Generator, rate: float, duration: float) -> np.ndarray:
    """Arrival offsets (seconds) of a Poisson process over ``[0, duration)``."""
    expected = int(rate * duration * 1.5) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=expected))
    return offsets[offsets < duration]


def exact_top_k(rows: np.ndarray, queries: np.ndarray, k: int = K):
    """Exact ``(ids, distances)`` through the repo's ``chunked`` backend."""
    from repro.api import Engine, EngineConfig

    engine = Engine(_no_encoder, EngineConfig(backend="chunked"))
    engine.ingest_vectors(rows)
    result = engine.backend.top_k(queries, k)
    return result.indices, result.distances


def _no_encoder(batch):
    raise RuntimeError("this engine serves pre-encoded vectors only")


def check_answers(queries, ids, distances, rows, exact_distances=None) -> np.ndarray:
    """Per query row: is the top-k answer correct?

    An answer is correct when its ids are distinct stored rows, its
    distances ascend and are the true distances to those rows, and — for an
    exact index, when ``exact_distances`` is given — they equal the exact
    top-k distances.  Distances are compared as squared distances within
    ``1e-5 * (|q|^2 + max |x|^2)``: the float32 GEMM expansion behind every
    scan (and fused coalescing, which stacks queries into one GEMM) moves
    them by a few ulps of that scale, and may swap neighbours that tie at
    that precision; a wrong neighbour is off by orders of magnitude more.
    """
    row_scale = float((rows.astype(np.float64) ** 2).sum(axis=1).max())
    out = []
    for start in range(0, len(ids), 2048):
        part = slice(start, start + 2048)
        query = np.asarray(queries[part], dtype=np.float64)
        found = np.asarray(ids[part])
        found_d = np.asarray(distances[part], dtype=np.float64)
        valid = ((found >= 0) & (found < len(rows))).all(axis=1)
        valid &= (np.diff(np.sort(found, axis=1), axis=1) != 0).all(axis=1)
        valid &= (np.diff(found_d, axis=1) >= 0).all(axis=1)
        safe = np.clip(found, 0, len(rows) - 1)
        tolerance = 1e-5 * ((query**2).sum(axis=1) + row_scale)[:, None]
        true = ((rows[safe].astype(np.float64) - query[:, None, :]) ** 2).sum(axis=2)
        valid &= (np.abs(found_d**2 - true) <= tolerance).all(axis=1)
        if exact_distances is not None:
            exact = np.asarray(exact_distances[part], dtype=np.float64)
            valid &= (np.abs(found_d**2 - exact**2) <= tolerance).all(axis=1)
        out.append(valid)
    return np.concatenate(out) if out else np.zeros(0, dtype=bool)


def recall(ids, exact_ids) -> float:
    """Mean share of the exact top-k ids present in each answer."""
    ids = np.asarray(ids)
    exact_ids = np.asarray(exact_ids)
    if ids.size == 0:
        return 0.0
    hits = (ids[:, :, None] == exact_ids[:, None, :]).any(axis=2).sum(axis=1)
    return float(hits.mean()) / exact_ids.shape[1]
