"""Per-rule configuration for the invariant analyzer.

Every rule reads its knobs from one frozen :class:`AnalysisConfig` instead of
hard-coding repo layout: which modules count as thread-reachable, which are
dtype hot paths, which names are facade-only, and which files are exempt.
Defaults encode this repository's invariants; tests build variants to aim
rules at fixture trees.

Paths everywhere in this module are *relative to the ``repro`` package root*
and compared by prefix, so ``"server/"`` means every module under
``src/repro/server/`` and ``"utils/clock.py"`` means exactly that file.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


def _path_matches(rel_path: str, prefixes: tuple[str, ...]) -> bool:
    """True when ``rel_path`` equals a prefix entry or sits under a ``dir/`` one."""
    return any(
        rel_path == prefix or (prefix.endswith("/") and rel_path.startswith(prefix))
        for prefix in prefixes
    )


@dataclass(frozen=True)
class RaceConfig:
    """Lock-discipline race lint (``race-*``).

    ``thread_paths`` are the modules whose classes are assumed reachable from
    multiple threads; a ``# thread: shared`` comment on a ``class`` line opts
    any other class in.  Methods whose names carry a ``locked_suffixes``
    suffix follow the caller-holds-the-lock convention and are treated as
    guarded; ``exempt_methods`` run before an instance can be shared.
    """

    thread_paths: tuple[str, ...] = ("obs/", "server/", "streaming/")
    shared_marker: str = "# thread: shared"
    locked_suffixes: tuple[str, ...] = ("_locked",)
    exempt_methods: tuple[str, ...] = ("__init__", "__new__", "__post_init__")
    lock_name_hints: tuple[str, ...] = ("lock", "cond", "mutex")

    def is_thread_path(self, rel_path: str) -> bool:
        return _path_matches(rel_path, self.thread_paths)


@dataclass(frozen=True)
class DeterminismConfig:
    """Determinism lint (``det-*``).

    ``exempt_paths`` name the modules *allowed* to touch wall clocks and
    process-global randomness — the clock abstraction itself and the one
    sanctioned seeding helper.  ``wallclock_calls`` are flagged as
    ``module.attr`` dotted names.
    """

    exempt_paths: tuple[str, ...] = ("utils/clock.py", "utils/seeding.py")
    wallclock_calls: tuple[str, ...] = (
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
    )
    order_sensitive_sinks: tuple[str, ...] = ("list", "tuple", "extend", "array")
    order_insensitive_wrappers: tuple[str, ...] = (
        "sorted",
        "len",
        "set",
        "frozenset",
        "min",
        "max",
        "any",
        "all",
    )

    def is_exempt(self, rel_path: str) -> bool:
        return _path_matches(rel_path, self.exempt_paths)


@dataclass(frozen=True)
class DtypeConfig:
    """Dtype-discipline lint (``dtype-*``) — enforced only on hot paths.

    The float32 contract matters where the arrays are large and the scans
    are hot; experiment scripts may allocate however they like.
    """

    hot_paths: tuple[str, ...] = ("nn/kernels.py", "serving/", "ann/", "server/")
    untyped_allocators: tuple[str, ...] = ("array", "zeros", "ones", "empty", "full")

    def is_hot_path(self, rel_path: str) -> bool:
        return _path_matches(rel_path, self.hot_paths)


@dataclass(frozen=True)
class LayeringConfig:
    """Layering lint (``layer-*``).

    ``facade_only`` classes may be constructed only inside ``allowed_paths``
    (the facade plus the layers that define them); everything else must go
    through :class:`repro.api.Engine`.  Dataclasses in ``frozen_modules``
    must be declared ``frozen=True`` — they are the shared, cached request/
    response surface.
    """

    facade_only: tuple[str, ...] = (
        "SimilarityIndex",
        "ShardedIndex",
    )
    allowed_paths: tuple[str, ...] = ("api/", "serving/", "streaming/")
    frozen_modules: tuple[str, ...] = ("api/types.py",)

    def is_allowed_path(self, rel_path: str) -> bool:
        return _path_matches(rel_path, self.allowed_paths)

    def requires_frozen(self, rel_path: str) -> bool:
        return _path_matches(rel_path, self.frozen_modules)


@dataclass(frozen=True)
class AnalysisConfig:
    """All rule configurations in one immutable bundle."""

    race: RaceConfig = field(default_factory=RaceConfig)
    determinism: DeterminismConfig = field(default_factory=DeterminismConfig)
    dtype: DtypeConfig = field(default_factory=DtypeConfig)
    layering: LayeringConfig = field(default_factory=LayeringConfig)

    def variant(self, **overrides: object) -> AnalysisConfig:
        """A modified copy (mirrors ``EngineConfig.variant``)."""
        return replace(self, **overrides)
