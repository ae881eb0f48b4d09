"""Tests for the benchmark engine and the harness CLI wiring."""

import io
import shutil
from types import SimpleNamespace

import pytest

from repro import cache as trace_cache
from repro.bench import engine
from repro.bench.common import WorkCell, clear_bench_cache
from repro.bench.harness import build_parser
from repro.bench.harness import main as bench_main
from repro.bench.profiles import PROFILES, BenchProfile, active_profile
from repro.cli import build_parser as cli_parser
from repro.errors import ConfigError

# Small enough for CI, large enough that every experiment has real work.
TINY = BenchProfile(
    name="tiny",
    dataset_scales={
        "cora": 0.05,
        "citeseer": 0.05,
        "pubmed": 0.01,
        "reddit": 0.0005,
        "livejournal": 0.0001,
    },
    sample_cap=5_000,
    max_cycles=2_000,
    repeats=1,
)


@pytest.fixture(autouse=True)
def fresh_memos():
    clear_bench_cache()
    yield
    clear_bench_cache()


class TestCollectCells:
    def test_all_kinds_present_and_deduplicated(self):
        cells = engine.collect_cells(TINY)
        assert len(cells) == len(set(cells))
        kinds = {c.kind for c in cells}
        assert kinds == {"record", "sim", "profile", "timing"}

    def test_shared_cells_collected_once(self):
        """fig6/fig7/fig8 all need the MP sims; they must appear once."""
        cells = engine.collect_cells(TINY)
        mp_sims = [c for c in cells
                   if c.kind == "sim" and c.compute_model == "MP"]
        assert len(mp_sims) == len(set(mp_sims))
        assert WorkCell("sim", "gcn", "cora", "MP") in mp_sims


def _table_files(base):
    return sorted(p.name for p in base.glob("*.txt"))


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    """One cold suite run, shared by every test that only needs
    something to be warm against: (report, cache root, tables dir)."""
    base = tmp_path_factory.mktemp("cold-suite")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("GSUITE_CACHE_DIR", str(base / "cache"))
        trace_cache.reset_cache()
        clear_bench_cache()
        report = engine.run_suite(TINY, stream=io.StringIO(),
                                  results_base=str(base / "cold"))
    trace_cache.reset_cache()
    clear_bench_cache()
    return report, base / "cache", base / "cold"


@pytest.fixture
def warm_cache(cold_run, monkeypatch):
    """Point this test's process-wide cache at the cold run's root."""
    monkeypatch.setenv("GSUITE_CACHE_DIR", str(cold_run[1]))
    trace_cache.reset_cache()
    return trace_cache.get_cache()


#: The tables that hold no wall-clock number (fig3 and fig4 read
#: measured times): a recomputed cell must leave them byte-identical.
_CLOCK_FREE = ("table2", "table4", "fig5", "fig6", "fig7", "fig8", "fig9")


def _quiet_run(base):
    clear_bench_cache()
    return engine.run_suite(TINY, stream=io.StringIO(),
                            results_base=str(base))


class TestWarmRun:
    def test_warm_run_is_all_cache_hits(self, cold_run, warm_cache, tmp_path):
        """Warm means nothing is computed — pinned by cache accounting,
        not by comparing two wall-clock totals — and every table comes
        out byte for byte."""
        cold, _, cold_dir = cold_run
        assert len(cold.cell_timings) == len(engine.collect_cells(TINY))
        assert not any(t.cached for t in cold.cell_timings)
        assert cold.cache_stats.misses > 0 and cold.cache_stats.stores > 0

        stats_before, enabled_before = warm_cache.stats, warm_cache.enabled
        warm = _quiet_run(tmp_path)
        assert all(t.cached for t in warm.cell_timings)
        assert len(warm.cell_timings) == len(cold.cell_timings)
        assert warm.cache_stats.hits >= len(warm.cell_timings)
        assert warm.cache_stats.misses == warm.cache_stats.stores == 0
        # run_suite restores the shared cache's state for embedders.
        assert warm_cache.stats is stats_before
        assert warm_cache.enabled is enabled_before

        names = _table_files(cold_dir)
        assert names == _table_files(tmp_path)
        assert set(names) == {f"{name}.txt" for name in engine.EXPERIMENTS}
        for name in names:
            assert (cold_dir / name).read_bytes() == \
                (tmp_path / name).read_bytes(), name

    def test_run_suite_returns_checks(self, warm_cache):
        checks = engine.run_suite(TINY, stream=io.StringIO()).checks
        assert set(checks) == set(engine.EXPERIMENTS)
        for per_experiment in checks.values():
            assert per_experiment  # every experiment asserts something


class TestDamagedCache:
    def test_truncated_entries_are_quarantined_and_recomputed(
            self, cold_run, tmp_path, monkeypatch):
        """Cache integrity on real files: truncate one record, one sim
        and one profile entry of a cold run's cache on disk; the warm
        run quarantines each, recomputes it and writes the clock-free
        tables byte for byte, and the run after that is all hits."""
        root = tmp_path / "cache"
        shutil.copytree(cold_run[1], root)
        damaged = []
        for kind in ("record", "sim", "profile"):
            path = sorted((root / kind).glob("*.pkl"))[0]
            data = path.read_bytes()
            path.write_bytes(data[:len(data) // 2])
            damaged.append(f"{kind}-{path.name}")
        monkeypatch.setenv("GSUITE_CACHE_DIR", str(root))
        trace_cache.reset_cache()

        warm = _quiet_run(tmp_path / "warm")
        assert warm.cache_stats.corrupt == len(damaged)
        assert sorted(p.name for p in (root / "quarantine").iterdir()) == \
            sorted(damaged)
        for name in _CLOCK_FREE:
            assert (cold_run[2] / f"{name}.txt").read_bytes() == \
                (tmp_path / "warm" / f"{name}.txt").read_bytes(), name

        third = _quiet_run(tmp_path / "third")
        assert all(t.cached for t in third.cell_timings)
        assert third.cache_stats.misses == third.cache_stats.corrupt == 0


class TestEnvKillSwitch:
    def test_gsuite_cache_0_beats_programmatic_opt_in(self, monkeypatch,
                                                      tmp_path):
        """GSUITE_CACHE=0 must disable caching even when the suite asks
        for use_cache=True (the env var is the documented kill switch)."""
        monkeypatch.setenv("GSUITE_CACHE", "0")
        trace_cache.reset_cache()
        cell = WorkCell("record", "gcn", "cora", "MP")
        one_cell = SimpleNamespace(
            cells=lambda profile: [cell], rows=lambda profile: [],
            render=lambda profile: "", checks=lambda rows: {})
        monkeypatch.setattr(engine, "EXPERIMENTS", {"one": one_cell})
        report = engine.run_suite(TINY, use_cache=True, stream=io.StringIO(),
                                  results_base=str(tmp_path))
        assert [t.cell for t in report.cell_timings] == [cell]
        assert not report.cell_timings[0].cached  # the work still happened
        assert report.cache_stats == trace_cache.CacheStats()
        cache = trace_cache.get_cache()
        assert not cache.enabled
        assert not cache.root.exists() or not any(cache.root.rglob("*.pkl"))


class TestProfileSelection:
    def test_explicit_name_overrides_env(self, monkeypatch):
        monkeypatch.setenv("GSUITE_PROFILE", "ci")
        assert active_profile("full").name == "full"

    def test_env_still_default(self, monkeypatch):
        monkeypatch.setenv("GSUITE_PROFILE", "full")
        assert active_profile().name == "full"
        assert active_profile(None).name == "full"

    def test_unknown_explicit_name_rejected(self):
        with pytest.raises(ConfigError):
            active_profile("huge")


class TestCliWiring:
    def test_bench_flags(self):
        args = build_parser().parse_args(["--profile", "full", "--no-cache"])
        assert args.profile == "full"
        assert args.no_cache and not args.clear_cache

    def test_gsuite_bench_flags(self):
        args = cli_parser().parse_args(["bench", "--clear-cache"])
        assert args.command == "bench"
        assert args.clear_cache and not args.no_cache

    @pytest.mark.parametrize("argv", [
        ["bench", "--jobs", "2"], ["bench", "-j", "2"], ["--jobs", "2"],
    ])
    def test_removed_jobs_flag_exits_2(self, capsys, argv):
        """The worker pool is gone: ``gsuite bench`` and ``python -m
        repro.bench`` refuse ``--jobs`` / ``-j`` by name."""
        from repro.cli import main
        entry = main if argv[0] == "bench" else bench_main
        with pytest.raises(SystemExit) as exit_:
            entry(argv)
        assert exit_.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    def test_gsuite_cache_subcommand(self):
        assert cli_parser().parse_args(["cache"]).action == "info"
        assert cli_parser().parse_args(["cache", "clear"]).action == "clear"

    def test_bench_profile_choices_match_registry(self):
        with pytest.raises(SystemExit):
            cli_parser().parse_args(["bench", "--profile", "huge"])
        assert set(PROFILES) >= {"ci", "full"}

    def test_cache_info_command(self, capsys):
        from repro.cli import main
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "cache root" in out
        assert main(["cache", "clear"]) == 0
