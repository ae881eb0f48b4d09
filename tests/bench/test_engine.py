"""Tests for the parallel benchmark engine and the harness CLI wiring."""

import io

import pytest

from repro import cache as trace_cache
from repro.bench import engine
from repro.bench.common import WorkCell, clear_bench_cache
from repro.bench.harness import build_parser, run_all
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

    def test_rejects_bad_jobs(self):
        with pytest.raises(ConfigError):
            engine.run_suite(TINY, jobs=0, stream=io.StringIO())


def _table_files(base):
    return sorted(p.name for p in base.glob("*.txt"))


def _square(value):
    return value * value


class TestWorkerPool:
    """The pool facade behind the engine's cell fan-out."""

    def test_serial_fast_path_runs_in_process(self):
        from repro.bench.pool import WorkerPool
        with WorkerPool(1) as pool:
            assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
            assert pool._pool is None          # no processes were forked

    def test_single_task_never_pools(self):
        from repro.bench.pool import WorkerPool
        with WorkerPool(4) as pool:
            assert pool.map(_square, [5]) == [25]
            assert pool._pool is None

    def test_parallel_map_preserves_order_and_reuses_pool(self):
        from repro.bench.pool import WorkerPool
        with WorkerPool(2) as pool:
            assert pool.map(_square, list(range(6))) == [
                v * v for v in range(6)]
            first = pool._pool
            assert first is not None
            pool.map(_square, [7, 8])
            assert pool._pool is first         # lazily created once
        assert pool._pool is None              # context exit closed it

    def test_rejects_bad_jobs(self):
        from repro.bench.pool import WorkerPool
        with pytest.raises(ConfigError):
            WorkerPool(0)


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    """One cold serial suite run, shared by every test that only needs
    something to be warm against: (report, cache root, tables dir)."""
    base = tmp_path_factory.mktemp("cold-suite")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("GSUITE_CACHE_DIR", str(base / "cache"))
        trace_cache.reset_cache()
        clear_bench_cache()
        report = engine.run_suite(TINY, jobs=1, stream=io.StringIO(),
                                  results_base=str(base / "serial"))
    trace_cache.reset_cache()
    clear_bench_cache()
    return report, base / "cache", base / "serial"


@pytest.fixture
def warm_cache(cold_run, monkeypatch):
    """Point this test's process-wide cache at the cold run's root."""
    monkeypatch.setenv("GSUITE_CACHE_DIR", str(cold_run[1]))
    trace_cache.reset_cache()
    return trace_cache.get_cache()


class TestParallelParity:
    """A parallel warm run reproduces the serial run byte for byte."""

    def test_parallel_tables_identical_to_serial(self, cold_run, warm_cache,
                                                 tmp_path):
        cold, _, serial_dir = cold_run
        assert cold.cache_stats.stores > 0
        assert len(cold.cell_timings) == len(engine.collect_cells(TINY))

        warm = engine.run_suite(TINY, jobs=2, stream=io.StringIO(),
                                results_base=str(tmp_path))
        assert warm.jobs == 2
        assert warm.cache_stats.hits > 0
        assert warm.cache_stats.misses == 0

        names = _table_files(serial_dir)
        assert names == _table_files(tmp_path)
        assert set(names) == {f"{name}.txt" for name in engine.EXPERIMENTS}
        for name in names:
            assert (serial_dir / name).read_bytes() == \
                (tmp_path / name).read_bytes(), name

    def test_warm_run_is_all_cache_hits(self, cold_run, warm_cache, tmp_path):
        """Warm means nothing is computed — pinned by cache accounting,
        not by comparing two wall-clock totals."""
        cold = cold_run[0]
        assert not any(t.cached for t in cold.cell_timings)
        assert cold.cache_stats.misses > 0 and cold.cache_stats.stores > 0

        stats_before, enabled_before = warm_cache.stats, warm_cache.enabled
        warm = engine.run_suite(TINY, jobs=1, stream=io.StringIO(),
                                results_base=str(tmp_path))
        assert all(t.cached for t in warm.cell_timings)
        assert len(warm.cell_timings) == len(cold.cell_timings)
        assert warm.cache_stats.hits >= len(warm.cell_timings)
        assert warm.cache_stats.misses == warm.cache_stats.stores == 0
        # run_suite restores the shared cache's state for embedders.
        assert warm_cache.stats is stats_before
        assert warm_cache.enabled is enabled_before

    def test_run_all_returns_checks(self, warm_cache):
        checks = run_all(TINY, stream=io.StringIO(), jobs=2)
        assert set(checks) == set(engine.EXPERIMENTS)
        for per_experiment in checks.values():
            assert per_experiment  # every experiment asserts something


class TestEnvKillSwitch:
    def test_gsuite_cache_0_beats_programmatic_opt_in(self, monkeypatch):
        """GSUITE_CACHE=0 must disable caching even when the engine asks
        for use_cache=True (the env var is the documented kill switch)."""
        from repro import cache as trace_cache
        monkeypatch.setenv("GSUITE_CACHE", "0")
        trace_cache.reset_cache()
        cell = WorkCell("record", "gcn", "cora", "MP")
        _, value, _, delta, _ = engine._execute_cell((cell, TINY, True))
        assert value  # the work still happened
        assert delta.to_dict() == {"hits": 0, "misses": 0, "stores": 0,
                                   "corrupt": 0}
        root = trace_cache.get_cache().root
        assert not root.exists() or not any(root.rglob("*.pkl"))


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
        args = build_parser().parse_args(
            ["--jobs", "4", "--profile", "full", "--no-cache"])
        assert args.jobs == 4
        assert args.profile == "full"
        assert args.no_cache and not args.clear_cache

    def test_gsuite_bench_flags(self):
        args = cli_parser().parse_args(["bench", "-j", "2", "--clear-cache"])
        assert args.command == "bench"
        assert args.jobs == 2 and args.clear_cache

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
