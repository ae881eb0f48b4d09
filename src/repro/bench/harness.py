"""Run every experiment and persist its table — the one-shot harness.

``python -m repro.bench`` regenerates all nine paper artifacts under
``results/`` and prints a pass/fail summary of the qualitative checks.
Heavy lifting is delegated to :mod:`repro.bench.engine`, which computes
each recording/simulation cell once and keeps a persistent trace cache
warm between runs (``--no-cache`` / ``--clear-cache`` to opt out /
reset).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.engine import EXPERIMENTS, run_suite
from repro.bench.profiles import PROFILES, active_profile
from repro.cache import get_cache
from repro.errors import GSuiteError

__all__ = ["EXPERIMENTS", "run_bench", "add_bench_arguments", "main"]


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the benchmark flags on ``parser``.

    Shared by ``python -m repro.bench`` and the ``gsuite bench``
    subcommand so the two entry points cannot drift.
    """
    parser.add_argument("--profile", default=None, choices=sorted(PROFILES),
                        help="benchmark sizing profile (default: "
                             "GSUITE_PROFILE env var, then 'ci')")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent trace cache entirely")
    parser.add_argument("--clear-cache", action="store_true",
                        help="delete all cached traces/results, then run")


def run_bench(profile_name: Optional[str] = None, use_cache: bool = True,
              clear_cache: bool = False, stream=None) -> int:
    """Full benchmark campaign; exit code 1 if any qualitative check failed."""
    stream = stream or sys.stdout
    if clear_cache:
        removed = get_cache().clear()
        print(f"cleared {removed} cache entries under {get_cache().root}",
              file=stream)
    profile = active_profile(profile_name)
    print(f"Running all experiments under profile {profile.name!r}"
          f"{'' if use_cache else ' (cache disabled)'}\n", file=stream)
    report = run_suite(profile=profile, use_cache=use_cache, stream=stream)
    failed = [f"{exp}:{check}"
              for exp, checks in report.checks.items()
              for check, ok in checks.items() if not ok]
    if failed:
        print("FAILED checks:", ", ".join(failed), file=stream)
        return 1
    print("All qualitative checks passed.", file=stream)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.bench`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Regenerate every paper table/figure.",
    )
    add_bench_arguments(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; exit code 1 if any qualitative check failed."""
    args = build_parser().parse_args(argv)
    try:
        return run_bench(profile_name=args.profile,
                         use_cache=not args.no_cache,
                         clear_cache=args.clear_cache)
    except GSuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
