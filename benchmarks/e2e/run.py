"""End-to-end benchmark of the gSuite reproduction — the one command.

Two ways in, one code path (``run_workload``):

* the contract of BENCHMARK.json —
  ``run.py --workload NAME --seed N --seconds S --trace 0|1`` runs one
  workload and prints, as its last line, one JSON object with
  ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
  metrics untraced, per-layer metrics traced);
* the whole suite —
  ``run.py [--seed N] [--workload NAME] [--repeats K] [--out FILE]
  [--smoke]`` runs each workload untraced (K times, on seeds N..N+K-1)
  and then traced, one fresh subprocess after another, never
  concurrently, prints every metric as ``workload metric value unit``,
  writes results to FILE and the traced runs' spans beside it, and
  exits 1 on any verification failure.

Every measurement happens in worker.py subprocesses with an isolated
environment; this file imports nothing heavy.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"

#: Fresh processes whose set-up time is measured per untraced run; the
#: reported ``setup_s`` is their median.
SETUP_RUNS = 3

#: Variables that would steer the program under test from outside.
_REMOVED = ("GSUITE_COST_PROFILE", "GSUITE_FAULTS", "GSUITE_CACHE",
            "GSUITE_PROFILE")

_WORKER_TIMEOUT_S = 150


def worker_env(workdir: Path) -> dict:
    """The isolated environment of one worker subprocess."""
    env = {k: v for k, v in os.environ.items() if k not in _REMOVED}
    inherited = env.get("PYTHONPATH")
    env.update(
        GSUITE_CACHE_DIR=str(workdir / "cache"),
        GSUITE_CALIBRATION_DIR=str(workdir / "calibration"),
        # One BLAS thread, set before NumPy loads: run-to-run p50 is
        # about twice as steady as with the default thread count.
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        # glibc keeps what the process frees (one brk heap, never
        # trimmed, no mmap per large array), so steady-state ops reuse
        # pages they have touched.  By default every [E, f] message
        # matrix is mapped afresh (~1000 page faults per infer_sparse
        # op), and on a VM that backs guest pages lazily a fresh page
        # occasionally stalls for seconds.
        MALLOC_ARENA_MAX="1", MALLOC_MMAP_MAX_="0",
        MALLOC_TRIM_THRESHOLD_=str(1 << 40),
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + ([inherited] if inherited else [])),
    )
    return env


def run_worker(workload, seed, seconds, trace, *flags) -> dict:
    """One worker subprocess in a fresh work directory; its result."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        result = workdir / "result.json"
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--workdir", str(workdir), "--result", str(result), *flags],
            env=worker_env(workdir), stdout=sys.stderr, check=True,
            timeout=_WORKER_TIMEOUT_S)
        return json.loads(result.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(workload, seed, seconds, trace, setup_runs=SETUP_RUNS,
                 spans=False) -> dict:
    """One run of one workload.

    An untraced run sets up ``setup_runs`` times, each in its own fresh
    process, and reports the median as ``setup_s``; the last of those
    processes goes on to measure.  A traced run reports no ``setup_s``
    and sets up once.
    """
    if trace:
        return run_worker(workload, seed, seconds, 1,
                          *(["--spans"] if spans else []))
    setups = [run_worker(workload, seed, seconds, 0, "--setup-only")["setup_s"]
              for _ in range(setup_runs - 1)]
    result = run_worker(workload, seed, seconds, 0)
    setups.append(result["setup_s"])
    result["setup_samples"] = setups
    result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return result


def contract_line(result) -> str:
    """The last line of standard output BENCHMARK.json's driver reads."""
    return json.dumps({
        "correct": result["failed"] == 0 and result["samples"] >= 1,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _print_run(result, label):
    name = result["workload"]
    for metric, entry in result["metrics"].items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}"
              f"  [{label}, n={result['samples']}]")
    for metric, value in result.get("raw", {}).items():
        print(f"{name} raw.{metric} {value:.6g}  [{label}, as measured]")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{name} fail_ratio {failed / attempted:.6g} ratio"
          f"  [{label}, sent={attempted} succeeded={attempted - failed}"
          f" failed={failed}]")


def run_suite(spec, args) -> int:
    """Every selected workload: ``--repeats`` untraced runs (run ``i`` on
    seed ``--seed + i``), then one traced run; returns the exit code."""
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"] / (20 if args.smoke else 1)
    setup_runs = 1 if args.smoke else SETUP_RUNS
    names = [args.workload] if args.workload \
        else [w["name"] for w in spec["workloads"]]
    report = {"benchmark": "e2e", "seed": args.seed, "seconds": seconds,
              "smoke": args.smoke, "git_commit": _git_commit(),
              "workloads": {}}
    spans = {}
    failed = 0
    for name in names:
        runs = []
        for repeat in range(args.repeats):
            runs.append(run_workload(name, args.seed + repeat, seconds, 0,
                                     setup_runs))
            _print_run(runs[-1], f"run {repeat + 1}/{args.repeats}")
        traced = run_workload(name, args.seed, seconds, 1,
                              spans=args.out is not None)
        _print_run(traced, "traced")
        print(f"{name} span_sum_max_error {traced['span_sum_max_error']:.3g}"
              f" ratio  [traced]")
        spans[name] = traced.pop("spans", None)
        report["host"] = traced.pop("host")
        for run in runs:
            del run["host"]
        report["workloads"][name] = {"runs": runs, "traced": traced}
        failed += traced["failed"] + sum(run["failed"] for run in runs)
    if args.out is not None:
        out = Path(args.out)
        out.write_text(json.dumps(report, indent=1))
        span_file = out.with_name(out.stem + ".spans.json")
        span_file.write_text(json.dumps(spans))
        print(f"wrote {out} and {span_file}")
    if failed:
        print(f"FAILED: {failed} op(s) raised or failed verification",
              file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured time per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run one workload to the BENCHMARK.json "
                             "contract instead of the suite")
    parser.add_argument("--repeats", type=int, default=1,
                        help="untraced runs per workload, run i on seed "
                             "--seed + i (suite)")
    parser.add_argument("--out",
                        help="write results to FILE.json and spans to "
                             "FILE.spans.json (suite)")
    parser.add_argument("--smoke", action="store_true",
                        help="suite at one twentieth of the run time")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: the program under test is missing: "
              f"{ROOT / 'src' / 'repro'} is not a directory", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        if args.trace is None:
            return run_suite(spec, args)
        if args.workload is None or args.seconds is None:
            parser.error("--trace needs --workload and --seconds")
        print(contract_line(run_workload(args.workload, args.seed,
                                         args.seconds, args.trace)))
        return 0
    finally:
        # Left only if another run.py is using it right now.
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
