"""Shared fixtures: isolate persistent state per test.

Every test gets a private trace-cache root under ``tmp_path`` so
nothing the suite records or simulates ever lands in the repository's
``results/.cache`` (and no stale repo cache can leak into a test).
"""

import pytest

from repro import cache as trace_cache


@pytest.fixture(autouse=True)
def _isolated_trace_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("GSUITE_CACHE_DIR", str(tmp_path / "trace-cache"))
    trace_cache.reset_cache()
    yield
    trace_cache.reset_cache()
