"""Self-test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Not part of tier-1 (``testpaths`` is ``tests``): it runs the whole
suite once with ``--smoke`` (about a minute) and checks the harness,
not the program — names and units, span accounting, isolation, the
BENCHMARK.json contract.
"""

import inspect
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
RUN = [sys.executable, str(HERE / "run.py")]


def _snapshot(directory):
    return sorted((str(p), p.stat().st_size, p.stat().st_mtime_ns)
                  for p in directory.rglob("*")) if directory.exists() else None


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke`` suite run: its result file, output and side effects."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    repo_cache = ROOT / "results" / ".cache"
    before = _snapshot(repo_cache)
    done = subprocess.run(RUN + ["--smoke", "--seed", "7", "--out", str(out)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    assert done.returncode == 0, done.stderr
    return SimpleNamespace(path=out, report=json.loads(out.read_text()),
                           spans=json.loads(out.with_name(
                               "smoke.spans.json").read_text()),
                           stdout=done.stdout,
                           cache_untouched=_snapshot(repo_cache) == before)


def test_declared_names_are_the_tables(spec):
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    from workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert spec["paths"] == ["benchmarks/e2e"]


def test_every_declared_metric_is_emitted_with_its_unit(spec, smoke):
    assert smoke.report["smoke"] is True
    for key in ("platform", "nproc", "python", "numpy", "scipy", "blas",
                "blas_threads", "code_version", "cost_profile"):
        assert key in smoke.report["host"]
    for workload in spec["workloads"]:
        entry = smoke.report["workloads"][workload["name"]]
        for declared, result in ((spec["end_to_end"], entry["runs"][0]),
                                 (spec["per_layer"], entry["traced"])):
            assert {m["name"]: m["unit"] for m in declared} == \
                {name: v["unit"] for name, v in result["metrics"].items()}
            for name, value in result["metrics"].items():
                assert isinstance(value["value"], (int, float))
                assert re.search(
                    rf"^{workload['name']} {re.escape(name)} \S+ "
                    rf"{re.escape(value['unit'])} ", smoke.stdout, re.M)


def test_no_op_fails_and_simulated_cycles_repeat(spec, smoke):
    for workload in spec["workloads"]:
        entry = smoke.report["workloads"][workload["name"]]
        for result in entry["runs"] + [entry["traced"]]:
            assert result["attempted"] >= 2
            assert result["failed"] == 0
    # Every round's cycle total was compared with the set-up round's by
    # the worker (failed == 0 above); the per-op mean of equal integers
    # is that integer.
    traced = smoke.report["workloads"]["characterize"]["traced"]
    cycles = traced["metrics"]["gpu.simulator.cycles"]["value"]
    assert traced["samples"] >= 2 and cycles > 0 and cycles == int(cycles)


def test_span_self_times_sum_to_each_op_span(spec, smoke):
    for workload in spec["workloads"]:
        traced = smoke.report["workloads"][workload["name"]]["traced"]
        recorded = smoke.spans[workload["name"]]
        spans = [SimpleNamespace(**dict(zip(recorded["fields"], row)))
                 for row in recorded["rows"]]
        errors = tracing.op_sum_errors(
            [s for s in spans if s.phase == "run"])
        assert len(errors) == traced["metrics"]["driver.samples"]["value"]
        assert max(errors) < 0.01
        assert traced["span_sum_max_error"] < 0.01


def test_wrapped_callables_are_restored():
    sites = [(owner, attr, original)
             for owner, attr, original, _, _ in tracing.patch_sites()]
    assert len(sites) >= len(tracing._TARGETS)
    with tracing.instrument(tracing.Tracer()):
        assert all(inspect.getattr_static(owner, attr) is not original
                   for owner, attr, original in sites)
    assert all(inspect.getattr_static(owner, attr) is original
               for owner, attr, original in sites)


def test_repo_cache_is_untouched_and_nothing_is_left_behind(smoke):
    assert smoke.cache_untouched
    assert not (HERE / ".work").exists()


def test_a_result_file_agrees_with_itself(smoke, capsys):
    assert compare.main([str(smoke.path), str(smoke.path)]) == 0
    assert "0 worse, 0 unresolved" in capsys.readouterr().out


def test_contract_run_prints_one_json_object_last(spec):
    done = subprocess.run(
        RUN + ["--workload", "infer_dense", "--seed", "3", "--seconds", "1",
               "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert sorted(line["metrics"]) == sorted(
        m["name"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "infer_dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
