"""Tests for the persistent trace cache (repro.cache) and its wiring."""

import os
import subprocess
import sys
import time
import warnings

import pytest

from repro import cache as trace_cache
from repro.bench.common import (
    clear_bench_cache,
    measured_times,
    profile_results,
    recorded_launches,
    sim_results,
)
from repro.bench.profiles import BenchProfile
from repro.cache import KINDS, TraceCache, compute_key, get_cache

TINY = BenchProfile(
    name="tiny",
    dataset_scales={"cora": 0.05},
    sample_cap=5_000,
    max_cycles=2_000,
    repeats=1,
)


@pytest.fixture(autouse=True)
def fresh_memos():
    clear_bench_cache()
    yield
    clear_bench_cache()


class TestComputeKey:
    def test_deterministic_and_order_independent(self):
        a = compute_key("record", {"x": 1, "y": [1, 2]})
        b = compute_key("record", {"y": [1, 2], "x": 1})
        assert a == b

    def test_kind_and_payload_distinguish(self):
        payload = {"config": {"seed": 0}}
        assert compute_key("record", payload) != compute_key("sim", payload)
        changed = {"config": {"seed": 1}}
        assert compute_key("record", payload) != compute_key("record", changed)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            compute_key("tables", {})

    def test_stable_across_processes(self):
        """The same inputs hash identically in a fresh interpreter."""
        payload_code = (
            "from repro.cache import compute_key;"
            "print(compute_key('record', {'x': 1, 'y': ['a', 'b']}))"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(trace_cache.__file__), "..")
        env["PYTHONPATH"] = os.path.abspath(src)
        child = subprocess.run(
            [sys.executable, "-c", payload_code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert child.stdout.strip() == compute_key(
            "record", {"x": 1, "y": ["a", "b"]})


class TestTraceCache:
    def test_roundtrip_and_stats(self, tmp_path):
        cache = TraceCache(tmp_path / "c")     # missing: created, trusted
        key = compute_key("sim", {"n": 1})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.get("sim", key) is None
            cache.put("sim", key, {"cycles": 42}, meta={"kernel": "sgemm"})
            assert cache.get("sim", key) == {"cycles": 42}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_disabled_cache_bypasses_everything(self, tmp_path):
        cache = TraceCache(tmp_path / "c", enabled=False)
        key = compute_key("sim", {"n": 1})
        cache.put("sim", key, "value")
        assert cache.get("sim", key) is None
        assert not (tmp_path / "c").exists()
        assert cache.stats == trace_cache.CacheStats()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = TraceCache(tmp_path / "c")
        key = compute_key("sim", {"n": 1})
        cache.put("sim", key, "value")
        (tmp_path / "c" / "sim" / f"{key}.pkl").write_bytes(b"garbage")
        assert cache.get("sim", key) is None

    def test_clear_sweeps_orphaned_tmp_files(self, tmp_path):
        """A writer killed mid-store leaves <key>.tmp.<pid>; clear removes it."""
        cache = TraceCache(tmp_path / "c")
        cache.put("sim", compute_key("sim", {"n": 1}), "a")
        orphan = tmp_path / "c" / "sim" / "deadbeef.tmp.1234"
        orphan.write_bytes(b"partial")
        assert cache.clear() == 2
        assert not orphan.exists()

    @pytest.mark.parametrize("kind", ("shard", "plan"))
    def test_shard_kind_is_gone_but_leftovers_are_swept(self, tmp_path,
                                                        kind):
        """The shard-result and plan caches were deleted; entries an
        older build left under ``shard/`` or ``plan/`` are invisible and
        go with ``clear``."""
        cache = TraceCache(tmp_path / "c")
        assert kind not in KINDS and len(KINDS) == 4
        with pytest.raises(ValueError):
            compute_key(kind, {"n": 1})
        leftover = tmp_path / "c" / kind / "0123abcd.pkl"
        leftover.parent.mkdir(parents=True)
        leftover.write_bytes(trace_cache._encode_entry(
            {"value": "stale", "meta": {}, "created": 0.0}))
        assert cache.describe()["entries"] == 0
        assert list(cache.entries()) == []
        assert cache.verify(strict=True) == []
        assert cache.clear() == 1
        assert not leftover.exists()

    def test_clear_and_describe(self, tmp_path):
        cache = TraceCache(tmp_path / "c")
        cache.put("sim", compute_key("sim", {"n": 1}), "a")
        cache.put("record", compute_key("record", {"n": 2}), "b")
        info = cache.describe()
        assert info["entries"] == 2
        assert set(info["by_kind"]) == {"sim", "record"}
        assert cache.clear() == 2
        assert cache.describe()["entries"] == 0


class TestRootTrust:
    """Entries are pickles: a root another user can write to is never
    read, written or cleared, and saying so never raises."""

    def _planted(self, tmp_path, mode):
        root = tmp_path / "c"
        key = compute_key("sim", {"n": 1})
        TraceCache(root).put("sim", key, "planted")
        root.chmod(mode)
        return root, key

    def test_world_writable_root_disables_the_cache(self, tmp_path):
        root, key = self._planted(tmp_path, 0o777)
        cache = TraceCache(root)
        with pytest.warns(RuntimeWarning, match="world-writable") as caught:
            assert cache.get("sim", key) is None
            cache.put("sim", compute_key("sim", {"n": 2}), "new")
            assert cache.describe()["entries"] == 0
            assert cache.clear() == 0
        assert len(caught) == 1
        assert not cache.enabled
        assert cache.stats == trace_cache.CacheStats()
        assert sorted(p.name for p in (root / "sim").iterdir()) == \
            [f"{key}.pkl"]

    def test_group_writable_root_is_accepted(self, tmp_path):
        root, key = self._planted(tmp_path, 0o775)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert TraceCache(root).get("sim", key) == "planted"

    def test_foreign_owner_disables_the_cache(self, tmp_path, monkeypatch):
        root, key = self._planted(tmp_path, 0o755)
        monkeypatch.setattr(os, "geteuid", lambda: root.stat().st_uid + 1)
        cache = TraceCache(root)
        with pytest.warns(RuntimeWarning, match="owned by uid"):
            assert cache.get("sim", key) is None
        assert not cache.enabled

    def test_two_process_same_key_write_race(self, tmp_path):
        """Two writers replace one entry over and over while this
        process reads it: every read is a whole value someone wrote."""
        root, rounds = tmp_path / "c", 300
        key = compute_key("sim", {"race": 1})
        writer = (
            "import sys\n"
            "from repro.cache import TraceCache\n"
            "cache = TraceCache(sys.argv[1])\n"
            "for i in range(int(sys.argv[3])):\n"
            "    cache.put('sim', sys.argv[2], sys.argv[4] + str(i) * 64)\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(trace_cache.__file__), "..")
        env["PYTHONPATH"] = os.path.abspath(src)
        writers = [
            subprocess.Popen([sys.executable, "-c", writer, str(root), key,
                              str(rounds), tag], env=env)
            for tag in ("a", "b")]
        written = {tag + str(i) * 64 for tag in ("a", "b")
                   for i in range(rounds)}
        reader = TraceCache(root)
        reads = []
        deadline = time.monotonic() + 300      # a hang guard, not a timing
        try:
            while any(w.poll() is None for w in writers) \
                    and time.monotonic() < deadline:
                reads.append(reader.get("sim", key))
        finally:
            for w in writers:
                w.kill()
                w.wait(timeout=60)
        assert [w.returncode for w in writers] == [0, 0]
        reads.append(reader.get("sim", key))
        assert reads[-1] in written
        assert all(value is None or value in written for value in reads)
        assert reader.stats.corrupt == 0


class TestBenchWiring:
    """The bench layers persist and reload through the process cache."""

    def test_recorded_launches_roundtrip(self):
        first = recorded_launches("gcn", "cora", "MP", TINY)
        stores = get_cache().stats.stores
        assert stores >= 1
        clear_bench_cache()
        second = recorded_launches("gcn", "cora", "MP", TINY)
        assert get_cache().stats.hits >= 1
        assert second is not first  # reloaded from disk, not the memo
        assert [l.fingerprint() for l in second] == \
            [l.fingerprint() for l in first]

    def test_sim_results_cached_per_launch(self):
        first = sim_results("gcn", "cora", "MP", TINY)
        clear_bench_cache()
        hits_before = get_cache().stats.hits
        second = sim_results("gcn", "cora", "MP", TINY)
        assert get_cache().stats.hits - hits_before >= len(first)
        assert [r.cycles for r in second] == [r.cycles for r in first]
        assert [r.stall_distribution for r in second] == \
            [r.stall_distribution for r in first]

    def test_profile_and_timing_roundtrip(self):
        prof = profile_results("gcn", "cora", "MP", TINY)
        times = measured_times("gcn", "cora", "MP", TINY)
        clear_bench_cache()
        assert [r.l1_hit_rate for r in
                profile_results("gcn", "cora", "MP", TINY)] == \
            [r.l1_hit_rate for r in prof]
        # Cached timings reload exactly: warm tables are byte-identical.
        assert measured_times("gcn", "cora", "MP", TINY) == times

    def test_profile_change_invalidates(self):
        recorded_launches("gcn", "cora", "MP", TINY)
        clear_bench_cache()
        other = BenchProfile(name="tiny", dataset_scales={"cora": 0.05},
                             sample_cap=6_000, max_cycles=2_000, repeats=1)
        misses_before = get_cache().stats.misses
        recorded_launches("gcn", "cora", "MP", other)
        assert get_cache().stats.misses > misses_before

    def test_no_cache_bypass(self):
        get_cache().enabled = False
        recorded_launches("gcn", "cora", "MP", TINY)
        assert get_cache().stats == trace_cache.CacheStats()
        root = get_cache().root
        assert not any(root.rglob("*.pkl")) if root.exists() else True
