"""Fixture suite for `repro.analysis`: every rule, three ways.

Each rule family ships a trio of snippets — violating (the rule fires),
suppressed (the same violation under `# repro: allow[...]` yields nothing),
and clean (idiomatic code yields nothing) — plus path-scoping checks, the
baseline machinery, the CLI gate, and a hypothesis property that the
analyzer never crashes on arbitrary syntactically-valid sources (mutated
from the real tree).

The lock-discipline rule is additionally pinned to the pre-PR-6 _LRUCache:
the verbatim thread-unsafe cache that PR 6 had to fix after a hammer test
caught it.  The analyzer must catch that shape statically.
"""

from __future__ import annotations

import ast
import json
import textwrap
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    AnalysisConfig,
    Baseline,
    Finding,
    analyze_source,
    available_rules,
    rule_families,
    run_analysis,
)
from repro.analysis.cli import main as cli_main

REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def findings_for(source: str, rel_path: str, rule: str | None = None) -> list[Finding]:
    found = analyze_source(textwrap.dedent(source), rel_path)
    if rule is None:
        return found
    return [f for f in found if f.rule == rule]


# --------------------------------------------------------------------- #
# Rule fixtures: violating / suppressed / clean
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class RuleCase:
    rule: str
    rel_path: str
    bad: str
    suppressed: str
    clean: str


RULE_CASES = [
    RuleCase(
        rule="race-unguarded-write",
        rel_path="server/fixture.py",
        bad="""
            import threading

            class Runtime:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def locked_inc(self):
                    with self._lock:
                        self._count += 1

                def unlocked_inc(self):
                    self._count += 1
            """,
        suppressed="""
            import threading

            class Runtime:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def locked_inc(self):
                    with self._lock:
                        self._count += 1

                def unlocked_inc(self):
                    self._count += 1  # repro: allow[race-unguarded-write]
            """,
        clean="""
            import threading

            class Runtime:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def locked_inc(self):
                    with self._lock:
                        self._count += 1

                def other_inc_locked(self):
                    self._count += 1
            """,
    ),
    RuleCase(
        rule="race-lockless-class",
        rel_path="streaming/fixture.py",
        bad="""
            class Counter:
                def __init__(self):
                    self.total = 0

                def bump(self):
                    self.total += 1
            """,
        suppressed="""
            class Counter:  # repro: allow[race-lockless-class]
                def __init__(self):
                    self.total = 0

                def bump(self):
                    self.total += 1
            """,
        clean="""
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0

                def bump(self):
                    with self._lock:
                        self.total += 1
            """,
    ),
    RuleCase(
        rule="det-wallclock",
        rel_path="eval/fixture.py",
        bad="""
            import time

            def stamp(record):
                record["at"] = time.time()
                return record
            """,
        suppressed="""
            import time

            def stamp(record):
                record["at"] = time.time()  # repro: allow[det-wallclock]
                return record
            """,
        clean="""
            def stamp(record, clock):
                record["at"] = clock.monotonic()
                return record
            """,
    ),
    RuleCase(
        rule="det-global-rng",
        rel_path="core/fixture.py",
        bad="""
            import random
            import numpy as np

            def sample(items):
                rng = np.random.default_rng()
                return random.choice(items), rng.random()
            """,
        suppressed="""
            import random
            import numpy as np

            def sample(items):
                rng = np.random.default_rng()  # repro: allow[det-global-rng]
                return items[0], rng.random()
            """,
        clean="""
            import numpy as np

            def sample(items, rng: np.random.Generator):
                seeded = np.random.default_rng(1234)
                return items[int(rng.integers(len(items)))], seeded.random()
            """,
    ),
    RuleCase(
        rule="det-env-iteration",
        rel_path="experiments/fixture.py",
        bad="""
            import os

            def manifest(root, rows):
                names = [name for name in os.listdir(root)]
                unique = {int(r) for r in rows}
                out = []
                out.extend(unique)
                return names, out
            """,
        suppressed="""
            import os

            def manifest(root, rows):
                names = [name for name in os.listdir(root)]  # repro: allow[det-env-iteration]
                unique = {int(r) for r in rows}
                out = []
                out.extend(unique)  # repro: allow[det]
                return names, out
            """,
        clean="""
            import os

            def manifest(root, rows):
                names = sorted(os.listdir(root))
                unique = {int(r) for r in rows}
                out = []
                out.extend(sorted(unique))
                return names, out
            """,
    ),
    RuleCase(
        rule="dtype-untyped-alloc",
        rel_path="nn/kernels.py",
        bad="""
            import numpy as np

            def scratch(n):
                return np.zeros((n, 4))
            """,
        suppressed="""
            import numpy as np

            def scratch(n):
                return np.zeros((n, 4))  # repro: allow[dtype-untyped-alloc]
            """,
        clean="""
            import numpy as np

            def scratch(n):
                return np.zeros((n, 4), dtype=np.float32)
            """,
    ),
    RuleCase(
        rule="dtype-float64-cast",
        rel_path="serving/fixture.py",
        bad="""
            import numpy as np

            def widen(x):
                return x.astype(np.float64) + np.ones(3, dtype=np.float64)
            """,
        suppressed="""
            import numpy as np

            def widen(x):
                return x.astype(np.float64) + np.ones(3, dtype=np.float64)  # repro: allow[dtype]
            """,
        clean="""
            import numpy as np

            def widen(x):
                return x.astype(np.float32) + np.ones(3, dtype=np.float32)
            """,
    ),
    RuleCase(
        rule="dtype-float-literal",
        rel_path="ann/fixture.py",
        bad="""
            import numpy as np

            def halve(x):
                return np.sum(x, axis=1) * 0.5
            """,
        suppressed="""
            import numpy as np

            def halve(x):
                return np.sum(x, axis=1) * 0.5  # repro: allow[dtype-float-literal]
            """,
        clean="""
            import numpy as np

            def halve(x):
                return np.float32(0.5) * np.sum(x, axis=1)
            """,
    ),
    RuleCase(
        rule="layer-direct-construction",
        rel_path="eval/fixture.py",
        bad="""
            from repro.streaming.shards import ShardedIndex

            def build_index():
                return ShardedIndex(shard_capacity=4)
            """,
        suppressed="""
            from repro.streaming.shards import ShardedIndex

            def build_index():
                return ShardedIndex(shard_capacity=4)  # repro: allow[layer-direct-construction]
            """,
        clean="""
            from repro.api import Engine, EngineConfig

            def build_index(encoder):
                return Engine(encoder, EngineConfig(backend="sharded", shard_capacity=4))
            """,
    ),
    RuleCase(
        rule="layer-mutable-api-type",
        rel_path="api/types.py",
        bad="""
            from dataclasses import dataclass

            @dataclass
            class Request:
                k: int = 5
            """,
        suppressed="""
            from dataclasses import dataclass

            @dataclass
            class Request:  # repro: allow[layer-mutable-api-type]
                k: int = 5
            """,
        clean="""
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Request:
                k: int = 5
            """,
    ),
]


@pytest.mark.parametrize("case", RULE_CASES, ids=lambda c: c.rule)
def test_rule_detects_violation(case: RuleCase):
    found = findings_for(case.bad, case.rel_path, case.rule)
    assert found, f"{case.rule} did not fire on its violating fixture"
    for finding in found:
        assert finding.rule == case.rule
        assert finding.path == case.rel_path
        assert finding.line >= 1


@pytest.mark.parametrize("case", RULE_CASES, ids=lambda c: c.rule)
def test_rule_respects_inline_allow(case: RuleCase):
    assert findings_for(case.suppressed, case.rel_path, case.rule) == []


@pytest.mark.parametrize("case", RULE_CASES, ids=lambda c: c.rule)
def test_rule_passes_clean_code(case: RuleCase):
    assert findings_for(case.clean, case.rel_path) == []


def test_allow_on_violating_line_yields_zero_findings_end_to_end(tmp_path):
    """The acceptance end-to-end: a known-violating line + allow -> nothing."""
    module = tmp_path / "repro" / "eval" / "stamped.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "import time\n\n\ndef stamp():\n"
        "    return time.time()  # repro: allow[det-wallclock]\n"
    )
    result = run_analysis([tmp_path / "repro"])
    assert result.findings == []
    assert [f.rule for f in result.suppressed] == ["det-wallclock"]


# --------------------------------------------------------------------- #
# The pre-PR-6 _LRUCache: the bug this rule family exists for
# --------------------------------------------------------------------- #
#: Verbatim shape of the cache before PR 6 added its lock (git f42989f):
#: `get` mutates the miss/hit counters and the LRU order with no lock, from
#: every query worker at once.
PRE_PR6_LRU_CACHE = """
from collections import OrderedDict


class _LRUCache:
    def __init__(self, capacity):
        self.capacity = int(capacity)
        self._entries = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self._entries)

    def get(self, key):
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key, value):
        if self.capacity < 1:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
"""


def test_lock_rule_catches_pre_pr6_lru_cache():
    # The cache lived in the thread-reachable streaming/ package back then.
    found = findings_for(PRE_PR6_LRU_CACHE, "streaming/service.py", "race-lockless-class")
    assert len(found) == 1
    assert "_LRUCache" in found[0].message
    # The current, locked implementation lives in api/engine.py, outside the
    # thread paths; its `# thread: shared` marker keeps it under the same
    # rule, which it passes.
    current = (REPO_SRC / "api" / "engine.py").read_text()
    assert "class _LRUCache:  # thread: shared" in current
    assert findings_for(current, "api/engine.py", "race-lockless-class") == []


def test_obs_paths_are_race_linted_and_the_real_registry_is_clean():
    # PR 9 widened thread_paths to obs/: a lockless counter there is a finding.
    unlocked_counter = """
        class Counter:
            def __init__(self):
                self.value = 0.0

            def inc(self, amount=1.0):
                self.value += amount
        """
    found = findings_for(unlocked_counter, "obs/fixture.py", "race-lockless-class")
    assert len(found) == 1
    # The shipped registry holds its lock around every mutation, so the same
    # rule that flags the fixture passes the real source.
    current = (REPO_SRC / "obs" / "metrics.py").read_text()
    assert findings_for(current, "obs/metrics.py", "race-lockless-class") == []
    assert findings_for(current, "obs/metrics.py", "race-unguarded-write") == []


def test_shared_marker_extends_race_scope_beyond_thread_paths():
    source = PRE_PR6_LRU_CACHE.replace(
        "class _LRUCache:", "class _LRUCache:  # thread: shared"
    )
    # Outside server//streaming/ the plain class is ignored ...
    assert findings_for(PRE_PR6_LRU_CACHE, "utils/fixture.py", "race-lockless-class") == []
    # ... but the `# thread: shared` marker opts it in anywhere.
    assert len(findings_for(source, "utils/fixture.py", "race-lockless-class")) == 1


# --------------------------------------------------------------------- #
# Scoping and machinery
# --------------------------------------------------------------------- #
def test_dtype_rules_only_apply_to_hot_paths():
    source = "import numpy as np\nx = np.zeros((3, 3))\n"
    assert findings_for(source, "ann/fixture.py", "dtype-untyped-alloc")
    assert findings_for(source, "experiments/fixture.py") == []


def test_wallclock_rule_exempts_clock_module():
    source = "import time\n\n\ndef now():\n    return time.monotonic()\n"
    assert findings_for(source, "utils/clock.py") == []
    assert findings_for(source, "server/fixture.py", "det-wallclock")


def test_layering_rule_allows_defining_layers():
    source = "from repro.streaming.shards import ShardedIndex\nindex = ShardedIndex()\n"
    assert findings_for(source, "streaming/fixture.py") == []
    assert findings_for(source, "experiments/fixture.py", "layer-direct-construction")


def test_locked_suffix_convention_counts_as_guarded():
    source = """
        import threading

        class Publisher:
            def __init__(self):
                self._lock = threading.Lock()
                self._generation = 0

            def publish(self):
                with self._lock:
                    self._publish_locked()

            def _publish_locked(self):
                self._generation += 1
        """
    assert findings_for(source, "server/fixture.py") == []


def test_family_and_all_tokens_suppress():
    base = "import time\n\n\ndef f():\n    return time.time(){}\n"
    for token in ("det", "all", "det-wallclock"):
        source = base.format(f"  # repro: allow[{token}]")
        assert findings_for(source, "core/fixture.py") == []
    assert findings_for(base.format("  # repro: allow[dtype]"), "core/fixture.py")


def test_parse_error_becomes_finding_not_crash():
    found = analyze_source("def broken(:\n", "core/fixture.py")
    assert [f.rule for f in found] == ["parse-error"]


def test_rule_registry_covers_four_families():
    families = rule_families()
    assert set(families) == {"race", "det", "dtype", "layer"}
    assert sum(len(ids) for ids in families.values()) == len(available_rules())
    for rule_id, cls in available_rules().items():
        assert cls.rule_id == rule_id
        assert cls.description


# --------------------------------------------------------------------- #
# Baseline machinery
# --------------------------------------------------------------------- #
def _write_tree(tmp_path: Path, rel: str, source: str) -> Path:
    module = tmp_path / "repro" / rel
    module.parent.mkdir(parents=True, exist_ok=True)
    module.write_text(textwrap.dedent(source))
    return tmp_path / "repro"


def test_baseline_grandfathers_and_reports_stale(tmp_path):
    root = _write_tree(
        tmp_path,
        "eval/fixture.py",
        """
        import time

        def stamp():
            return time.time()
        """,
    )
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(
        json.dumps(
            {
                "version": 1,
                "entries": [
                    {
                        "rule": "det-wallclock",
                        "path": "eval/fixture.py",
                        "match": "time.time",
                        "reason": "fixture: deliberately grandfathered",
                    },
                    {
                        "rule": "dtype-untyped-alloc",
                        "path": "ann/gone.py",
                        "match": "",
                        "reason": "fixture: stale entry",
                    },
                ],
            }
        )
    )
    result = run_analysis([root], baseline=Baseline.load(baseline_path))
    assert result.findings == []
    assert [f.rule for f in result.baselined] == ["det-wallclock"]
    assert [e.path for e in result.stale_baseline] == ["ann/gone.py"]


def test_baseline_entries_require_reasons(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(
        json.dumps(
            {
                "version": 1,
                "entries": [
                    {"rule": "det-wallclock", "path": "eval/x.py", "match": "", "reason": ""}
                ],
            }
        )
    )
    with pytest.raises(ValueError, match="no reason"):
        Baseline.load(path)


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
def test_cli_gate_fails_then_passes_with_baseline(tmp_path, capsys):
    root = _write_tree(
        tmp_path,
        "eval/fixture.py",
        """
        import time

        def stamp():
            return time.time()
        """,
    )
    artifact = tmp_path / "analysis.json"
    code = cli_main([str(root), "--no-baseline", "--format", "json", "--output", str(artifact)])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["summary"]["new"] == 1
    assert json.loads(artifact.read_text()) == payload

    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(
        json.dumps(
            {
                "version": 1,
                "entries": [
                    {
                        "rule": "det-wallclock",
                        "path": "eval/fixture.py",
                        "match": "time.time",
                        "reason": "fixture: grandfathered",
                    }
                ],
            }
        )
    )
    assert cli_main([str(root), "--baseline", str(baseline_path)]) == 0
    out = capsys.readouterr().out
    assert "0 new finding(s), 1 baselined" in out


def test_cli_rule_selection_and_listing(tmp_path, capsys):
    root = _write_tree(
        tmp_path,
        "eval/fixture.py",
        """
        import time

        def stamp():
            return time.time()
        """,
    )
    assert cli_main([str(root), "--no-baseline", "--rules", "dtype,layer"]) == 0
    capsys.readouterr()
    assert cli_main([str(root), "--no-baseline", "--rules", "det"]) == 1
    capsys.readouterr()
    assert cli_main([str(root), "--no-baseline", "--rules", "no-such-rule"]) == 2
    capsys.readouterr()
    assert cli_main(["--list-rules"]) == 0
    listing = capsys.readouterr().out
    for rule_id in available_rules():
        assert rule_id in listing


# --------------------------------------------------------------------- #
# Robustness: the analyzer never crashes on valid Python
# --------------------------------------------------------------------- #
SOURCE_FILES = sorted((REPO_SRC).rglob("*.py"))
REL_PATHS = (
    "server/fixture.py",
    "streaming/fixture.py",
    "nn/kernels.py",
    "ann/fixture.py",
    "api/types.py",
    "eval/fixture.py",
    "utils/clock.py",
    "obs/metrics.py",
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_analyzer_never_crashes_on_mutated_sources(data):
    """Property: any syntactically-valid mutation of real sources analyzes.

    Mutations (line deletion, duplication, swap, truncation) produce gnarly
    but parseable Python — half-moved statements, orphaned else-branches,
    decorators on the wrong thing.  The analyzer must return findings, not
    raise, for every module path scoping it can encounter.
    """
    path = data.draw(st.sampled_from(SOURCE_FILES))
    lines = path.read_text(encoding="utf-8").splitlines()
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        if not lines:
            break
        op = data.draw(st.sampled_from(["delete", "duplicate", "swap", "truncate"]))
        i = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            del lines[i:]
    source = "\n".join(lines)
    try:
        ast.parse(source)
    except (SyntaxError, ValueError, RecursionError):
        assume(False)
    rel_path = data.draw(st.sampled_from(REL_PATHS))
    findings = analyze_source(source, rel_path)
    assert all(isinstance(f, Finding) for f in findings)
    assert findings == sorted(findings)
