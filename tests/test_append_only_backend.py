"""The `IndexBackend` conformance suite over an append-only backend.

No built-in backend is append-only, yet the registry contract keeps that
shape open for third-party backends: ``supports_removal = False``,
``UnsupportedOperation`` from ``remove``, ``compact()`` returning ``False``,
and ``Engine.restore`` filtering a tombstoned snapshot's dead rows.  This
module runs the suite over :class:`backend_conformance.AppendOnlyIndex` the
way the kit's docstring shows a third-party package doing it.  The backend
is registered only while each test runs, so the registry-wide
parametrization in ``tests/test_backend_conformance.py`` and the
``builtin_backends`` lockfile never see it.
"""

from __future__ import annotations

import pytest

from backend_conformance import APPEND_ONLY, IndexBackendConformanceSuite, append_only_backend


def pytest_generate_tests(metafunc):
    if "backend_name" in metafunc.fixturenames:
        metafunc.parametrize("backend_name", [APPEND_ONLY])


@pytest.fixture(autouse=True)
def _registered():
    with append_only_backend():
        yield


class TestAppendOnlyBackend(IndexBackendConformanceSuite):
    """Every conformance test, once, on the append-only shape."""
