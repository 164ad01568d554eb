"""Observability for the serving stack: metrics and SLO snapshots.

Public surface:

* :class:`~repro.obs.metrics.MetricsRegistry` — thread-safe named-metric
  namespace: :class:`~repro.obs.metrics.Counter`,
  :class:`~repro.obs.metrics.Gauge`, fixed-bucket
  :class:`~repro.obs.metrics.Histogram`, plain or labeled
  (:class:`~repro.obs.metrics.MetricFamily` keyed by frozen label tuples),
  with a deterministic versioned :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`.
* :data:`~repro.obs.metrics.NULL_REGISTRY` /
  :class:`~repro.obs.metrics.NullRegistry` — the disabled default every
  instrumented constructor falls back to (no-op instruments, zero cost).
* :func:`~repro.obs.metrics.dump_metrics` — atomic JSON snapshot writer;
  :func:`~repro.obs.metrics.format_snapshot` — human-readable rendering.

Nothing in this package reads a wall clock on a record path: durations are
measured by callers against the injectable :mod:`repro.utils.clock` and
handed in, which is what keeps every instrumented layer drivable by the
deterministic test-kits.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    NULL_REGISTRY,
    SNAPSHOT_SCHEMA,
    SNAPSHOT_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    NullRegistry,
    dump_metrics,
    format_snapshot,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "SNAPSHOT_SCHEMA",
    "SNAPSHOT_SCHEMA_VERSION",
    "dump_metrics",
    "format_snapshot",
]
