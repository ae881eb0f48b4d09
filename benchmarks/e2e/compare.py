"""Compare two result files written by ``run.py --out``.

``compare.py A.json B.json`` prints one row per (workload, end-to-end
metric): A's and B's median over their runs, how much *worse* B is as a
share of A (negative = better), the bound from BENCHMARK.json, the
wider of the two run-to-run spreads (interquartile distance over the
median, needs ``--repeats`` >= 2), and a verdict:

* ``ok``         B is no worse than A by more than the bound;
* ``worse``      it is;
* ``unresolved`` the spread is wider than the bound, so the rule above
  cannot tell — unless every run of B reads better than every run of A,
  which is ``ok``.

``fail_ratio`` (ops that raised or failed verification over ops
attempted) has no bound: any increase is ``worse``.  Exit status 1 on
any ``worse``.  The same tool answers "do two sets of runs of one
commit agree": they do when no row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def spread(values):
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def fail_ratio(runs):
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def verdict(a, b, better, bound):
    """``(worse_by, spread, verdict)`` for one metric's run values."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    worse_by = sign * (statistics.median(b) - base) / base
    widest = max(spread(a), spread(b))
    if widest > bound:
        all_better = max(sign * v for v in b) < min(sign * v for v in a)
        return worse_by, widest, "ok" if all_better else "unresolved"
    return worse_by, widest, "worse" if worse_by > bound else "ok"


def compare(report_a, report_b, spec):
    """Rows ``(workload, metric, unit, a, b, worse_by, bound, spread,
    verdict)`` over the workloads both reports hold."""
    rows = []
    for name, entry_a in report_a["workloads"].items():
        entry_b = report_b["workloads"].get(name)
        if entry_b is None:
            continue
        for metric in spec["end_to_end"]:
            a, b = ([run["metrics"][metric["name"]]["value"] for run in runs]
                    for runs in (entry_a["runs"], entry_b["runs"]))
            worse_by, widest, word = verdict(a, b, metric["better"],
                                             metric["bound"])
            rows.append((name, metric["name"], metric["unit"],
                         statistics.median(a), statistics.median(b),
                         worse_by, metric["bound"], widest, word))
        fa, fb = fail_ratio(entry_a["runs"]), fail_ratio(entry_b["runs"])
        rows.append((name, "fail_ratio", "ratio", fa, fb, fb - fa, 0.0, 0.0,
                     "worse" if fb > fa else "ok"))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    report_a, report_b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for label, path, report in zip("AB", argv, (report_a, report_b)):
        print(f"{label}: {path}  commit "
              f"{report['git_commit'][:12]}  seed {report['seed']}  "
              f"{report['seconds']} s/run"
              f"{'  SMOKE' if report['smoke'] else ''}")
    rows = compare(report_a, report_b, spec)
    print(f"{'workload':<14}{'metric':<13}{'A':>12}{'B':>12}  "
          f"{'B worse by (share of A)':<26}{'bound':>7}{'spread':>8}  verdict")
    for name, metric, unit, a, b, worse_by, bound, widest, word in rows:
        if metric == "fail_ratio":
            delta = f"{worse_by:+.4f} (absolute)"
            limit = "any"
        else:
            delta = f"{worse_by:+.1%} of {a:.4g} {unit}"
            limit = f"{bound:.0%}"
        print(f"{name:<14}{metric:<13}{a:>12.4g}{b:>12.4g}  {delta:<26}"
              f"{limit:>7}{widest:>8.1%}  {word}")
    worse = [row for row in rows if row[-1] == "worse"]
    unresolved = [row for row in rows if row[-1] == "unresolved"]
    print(f"{len(rows)} rows: {len(worse)} worse, "
          f"{len(unresolved)} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
