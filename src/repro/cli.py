"""Command-line interface — the paper's "User Parameters" entry point.

Build and exercise a GNN pipeline by passing a few parameters::

    gsuite run      --model gcn --dataset cora
    gsuite run      --model gcn --dataset cora --batch 4   # batched sweep
    gsuite time     --model gin --dataset pubmed --compute-model SpMM
    gsuite record   --model sage --dataset citeseer
    gsuite simulate --model gcn --dataset cora --framework pyg
    gsuite profile  --model gcn --dataset reddit --scale 0.01
    gsuite datasets
    gsuite kernels
    gsuite bench            # regenerate every paper table/figure
    gsuite cache info       # inspect the persistent trace cache
    gsuite serve --port 8753                 # JSON-lines inference service
    gsuite loadgen --concurrency 4 --requests 8 --datasets cora,pubmed

(Also available as ``python -m repro``.)
"""

from __future__ import annotations

import argparse
import statistics
import sys
from typing import List, Optional

from repro.bench.harness import add_bench_arguments
from repro.bench.tables import format_table
from repro.core.config import SuiteConfig
from repro.core.pipeline import GNNPipeline
from repro.errors import GSuiteError

__all__ = ["main", "build_parser"]


def _knob_type(name: str):
    """An argparse ``type`` for one shared tri-state knob
    (:data:`repro.core.config.KNOBS`)."""
    from repro.core.config import KNOBS
    from repro.errors import ConfigError
    knob = KNOBS[name]

    def parse(value: str):
        try:
            return knob.parse(value)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    parse.__name__ = name
    return parse


def build_parser() -> argparse.ArgumentParser:
    """The gsuite argument parser."""
    parser = argparse.ArgumentParser(
        prog="gsuite",
        description="Framework-independent GNN inference benchmark suite "
                    "(gSuite reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Defaults are None sentinels so a --config file's values are only
    # overridden by flags the user actually passed (an unset flag must
    # not clobber the file with the built-in default); the built-in
    # defaults themselves live in SuiteConfig and apply when neither
    # the file nor the flag sets a field.
    def add_config_arg(p):
        p.add_argument("--config", default=None,
                       help="JSON config file with default parameters")

    def add_pipeline_args(p):
        p.add_argument("--model", default=None,
                       help="GNN model: gcn, gin, sage (default gcn)")
        p.add_argument("--dataset", default=None,
                       help="dataset name or short form (default cora)")
        p.add_argument("--compute-model", default=None,
                       choices=["MP", "SpMM"],
                       help="computational model (default MP)")
        p.add_argument("--framework", default=None,
                       help="execution backend: gsuite, pyg, dgl, "
                            "gsuite-adaptive (default gsuite)")
        p.add_argument("--layers", type=int, default=None,
                       help="number of GNN layers (default 2)")
        p.add_argument("--hidden", type=int, default=None,
                       help="hidden width (default 16)")
        p.add_argument("--scale", type=float, default=None,
                       help="dataset scale in (0, 1] (default 1.0)")
        p.add_argument("--seed", type=int, default=None,
                       help="generation / weight seed (default 0)")
        add_config_arg(p)

    # The flags only the pipeline commands read (``loadgen`` serves
    # fused solo requests and registers none of them).
    def add_execution_args(p):
        p.add_argument("--fuse", type=_knob_type("fuse"), default=None,
                       metavar="auto|off",
                       help="plan-level operator fusion: 'auto' (default) "
                            "fuses every legal site, 'off' disables")
        p.add_argument("--no-fuse", dest="fuse", action="store_const",
                       const="off",
                       help="shorthand for --fuse off")
        p.add_argument("--batch", type=_knob_type("batch"), default=None,
                       metavar="auto|off|N",
                       help="batched multi-graph plans: 'auto' lets the "
                            "planner pick the packed sweep width, 'off' "
                            "(default) runs one graph, N >= 2 packs N "
                            "seed-variant graphs into one plan")

    for name, help_text in (
            ("run", "run one inference pass"),
            ("time", "measure end-to-end execution time (Fig. 3)"),
            ("record", "list the kernel launches of one inference"),
            ("simulate", "cycle-level GPU simulation per kernel (Figs. 6-8)"),
            ("profile", "analytic profiler metrics per kernel (Figs. 5, 8, 9)"),
            ("plan", "show the lowered execution plan, the fusion "
                     "decision and, for gsuite-adaptive, the planner's "
                     "format choices")):
        p = sub.add_parser(name, help=help_text)
        add_pipeline_args(p)
        add_execution_args(p)
        if name == "time":      # the one command that measures repeats
            p.add_argument("--repeats", type=int, default=None,
                           help="timing repeats (default 3)")

    sub.add_parser("datasets", help="show the Table IV dataset registry")
    sub.add_parser("kernels", help="show the Table II kernel registry")

    serve = sub.add_parser(
        "serve",
        help="run the JSON-lines inference service (one request object "
             "per line in, one response summary per line out); each "
             "request carries its own pipeline parameters")
    add_config_arg(serve)
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8753,
                       help="bind port; 0 picks a free one (default 8753)")
    serve.add_argument("--max-requests", type=int, default=None,
                       metavar="N",
                       help="exit after answering N requests (default: "
                            "serve until interrupted)")

    loadgen = sub.add_parser(
        "loadgen",
        help="drive the deterministic closed-loop load generator "
             "in-process and report p50/p99 latency and throughput")
    add_pipeline_args(loadgen)
    loadgen.add_argument("--concurrency", type=int, default=4,
                         help="concurrent closed-loop clients (default 4)")
    loadgen.add_argument("--requests", type=int, default=8,
                         help="requests per client (default 8)")
    loadgen.add_argument("--datasets", default=None, metavar="A,B,...",
                         help="comma-separated dataset mix (default: the "
                              "--dataset value); multi-dataset mixes pin "
                              "out_features to the first dataset's class "
                              "count")
    loadgen.add_argument("--verify", action="store_true",
                         help="after the timed window, re-run every "
                              "request solo and assert bitwise parity "
                              "with its response (exit 1 on any mismatch)")

    bench = sub.add_parser("bench", help="regenerate every paper table/figure")
    add_bench_arguments(bench)

    cache = sub.add_parser("cache",
                           help="inspect or clear the persistent trace cache")
    cache.add_argument("action", nargs="?", default="info",
                       choices=["info", "clear", "verify"],
                       help="'info' (default) lists contents; 'clear' "
                            "deletes every entry; 'verify' checksums "
                            "every entry and quarantines corrupt ones")
    return parser


#: argparse dest -> SuiteConfig field for the pipeline flags.
_ARG_FIELDS = {
    "model": "model", "dataset": "dataset",
    "compute_model": "compute_model", "framework": "framework",
    "layers": "num_layers", "hidden": "hidden", "scale": "scale",
    "seed": "seed", "repeats": "repeats", "fuse": "fuse", "batch": "batch",
}


def _config_from_args(args) -> SuiteConfig:
    """The resolved SuiteConfig behind ``_pipeline_from_args`` (serving
    commands need the config without building a pipeline).  A flag the
    sub-command does not register reads as unset: ``gsuite serve`` has
    only ``--config``."""
    overrides = {field: getattr(args, dest)
                 for dest, field in _ARG_FIELDS.items()
                 if getattr(args, dest, None) is not None}
    if args.config:
        return SuiteConfig.from_file(args.config, **overrides)
    return SuiteConfig.from_dict(overrides)


def _pipeline_from_args(args) -> GNNPipeline:
    # Only flags the user actually passed override the config file /
    # the SuiteConfig defaults (argparse defaults are None sentinels).
    config = _config_from_args(args)
    # Backfill the args namespace from the resolved config so command
    # output (labels, decision lines) reflects what actually ran.
    for dest, field in _ARG_FIELDS.items():
        setattr(args, dest, getattr(config, field))
    return GNNPipeline(config)


def _cmd_run(args) -> int:
    from repro.graph import BatchedGraph
    pipeline = _pipeline_from_args(args)
    outputs = pipeline.run_batch()
    graph = pipeline.graph
    print(f"{pipeline.figure_label()} {args.model} on {graph.name}: "
          f"{graph.num_nodes} nodes, {graph.num_edges} edges")
    if isinstance(graph, BatchedGraph):
        for member, out in zip(graph.members, outputs):
            print(f"  {member.name}: output shape {out.shape}")
    else:
        print(f"output shape: {outputs[0].shape}")
    return 0


def _cmd_time(args) -> int:
    pipeline = _pipeline_from_args(args)
    times = pipeline.measure()
    # The graph's name, not the dataset flag: a batched pipeline's
    # measurement covers the whole packed sweep, and the label must
    # say so ("on batch(cora+...)").
    print(f"{pipeline.figure_label()} {args.model} on "
          f"{pipeline.graph.name}: "
          f"mean {statistics.mean(times) * 1e3:.2f} ms over "
          f"{len(times)} runs (min {min(times) * 1e3:.2f}, "
          f"max {max(times) * 1e3:.2f})")
    return 0


def _cmd_record(args) -> int:
    pipeline = _pipeline_from_args(args)
    launches = pipeline.record().launches
    rows = [(l.kernel, l.model, l.tag, l.threads, l.warps,
             f"{l.duration_s * 1e3:.3f}") for l in launches]
    print(format_table(
        ("Kernel", "Comp. Model", "Tag", "Threads", "Warps", "ms"),
        rows, title="Recorded kernel launches"))
    return 0


def _cmd_simulate(args) -> int:
    pipeline = _pipeline_from_args(args)
    results = pipeline.simulate()
    rows = []
    for r in results:
        cycles = str(r.cycles) if r.completed else f"{r.cycles}*"
        rows.append((r.kernel, r.tag, cycles, f"{r.ipc:.2f}",
                     f"{r.l1_hit_rate:.0%}", f"{r.l2_hit_rate:.0%}",
                     r.dominant_stall()))
    print(format_table(
        ("Kernel", "Tag", "Cycles", "IPC", "L1 Hit", "L2 Hit",
         "Dominant Stall"),
        rows, title="Cycle-level simulation (GPGPU-Sim substitute)"))
    if not all(r.completed for r in results):
        print("* stopped at the cycle cap with warps still live; the row "
              "describes the simulated window only")
    return 0


def _cmd_profile(args) -> int:
    pipeline = _pipeline_from_args(args)
    rows = []
    for p in pipeline.profile():
        mix = p.instruction_fractions
        rows.append((p.kernel, p.tag, f"{mix['FP32']:.0%}", f"{mix['INT']:.0%}",
                     f"{mix['Load/Store']:.0%}", f"{p.l1_hit_rate:.0%}",
                     f"{p.l2_hit_rate:.0%}", f"{p.compute_utilization:.0%}",
                     f"{p.memory_utilization:.0%}"))
    print(format_table(
        ("Kernel", "Tag", "FP32", "INT", "LD/ST", "L1 Hit", "L2 Hit",
         "Comp Util", "Mem Util"),
        rows, title="Profiler metrics (nvprof substitute)"))
    return 0


def _cmd_plan(args) -> int:
    pipeline = _pipeline_from_args(args)
    built = pipeline.build()
    # One typed record of everything the build applied; the rendering
    # below only formats it, so the report can't drift from execution.
    decisions = pipeline.plan(built)
    plan = decisions.execution_plan
    formats = ", ".join(decisions.formats)
    # The graph's name, not the dataset flag: a batched plan covers
    # the whole packed sweep (mirrors _cmd_time).
    print(f"{pipeline.figure_label()} {args.model} on "
          f"{pipeline.graph.name}: "
          f"{len(plan.ops)} ops, layer formats [{formats}]")
    print(f"fingerprint: {plan.fingerprint()[:16]}")
    if decisions.formats_source == "planner" and decisions.explain:
        print(decisions.explain)
    # The batch map the plan actually carries (None = single-graph).
    if plan.batch is not None and plan.batch.num_graphs > 1:
        print(f"batching: {plan.batch.describe()} "
              f"({decisions.batch_source})")
    elif decisions.batch_source == "planner" and decisions.batch <= 1:
        print("batching: off (planner declined — packed message "
              "working set or resident footprint past budget)")
    else:
        print("batching: off (1 graph; --batch auto lets the planner "
              "decide)")
    from repro.plan import describe_features, describe_fusion
    print(describe_fusion(plan))
    print(describe_features(plan, pipeline.graph, built.resident_features))
    print(format_table(("Step", "Op", "Operands", "Result"),
                       plan.describe(), title="Execution plan"))
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    from repro.serve import InferenceService, serve_tcp
    service = InferenceService(_config_from_args(args))

    def ready(bound):
        host, port = bound
        print(f"serving on {host}:{port}; one JSON request "
              f"per line, e.g. "
              f'{{"request_id": "r1", "dataset": "cora", "scale": 0.15}}')

    async def run():
        async with service:
            return await serve_tcp(service, host=args.host, port=args.port,
                                   max_requests=args.max_requests,
                                   ready=ready)

    try:
        served = asyncio.run(run())
    except KeyboardInterrupt:            # pragma: no cover - interactive
        print("interrupted")
        return 0
    stats = service.stats()
    print(f"served {served} request(s); "
          f"{stats['plan_cache_hits']} on a resident pipeline")
    return 0


def _cmd_loadgen(args) -> int:
    from repro.serve import run_loadgen
    from repro.serve.loadgen import dataset_mix
    config = _config_from_args(args)
    datasets = [name.strip() for name in args.datasets.split(",")
                if name.strip()] if args.datasets else [config.dataset]
    templates = dataset_mix(
        datasets, out_features=config.out_features, model=config.model,
        framework=config.framework, compute_model=config.compute_model,
        hidden=config.hidden, num_layers=config.num_layers,
        activation=config.activation, seed=config.seed, scale=config.scale)
    report = run_loadgen(templates, concurrency=args.concurrency,
                         requests_per_client=args.requests,
                         verify=args.verify)
    print(f"loadgen over {'+'.join(datasets)}")
    print(report.summary())
    if args.verify:
        print(f"parity: {report.parity_checked} response(s) checked, "
              f"{report.parity_failures} mismatch(es)")
        if report.parity_failures:
            return 1
    return 0


def _cmd_datasets(args) -> int:
    from repro.bench.experiments import table4
    print(table4.render())
    return 0


def _cmd_kernels(args) -> int:
    from repro.bench.experiments import table2
    print(table2.render())
    return 0


def _cmd_bench(args) -> int:
    from repro.bench.harness import run_bench
    return run_bench(profile_name=args.profile, use_cache=not args.no_cache,
                     clear_cache=args.clear_cache)


def _cmd_cache(args) -> int:
    from repro.cache import get_cache
    cache = get_cache()
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} cache entries under {cache.root}")
        return 0
    if args.action == "verify":
        corrupt = cache.verify()
        if not corrupt:
            print(f"all cache entries under {cache.root} verified clean")
            return 0
        for kind, key in corrupt:
            print(f"quarantined corrupt entry {kind}/{key[:16]}")
        print(f"{len(corrupt)} corrupt entries moved to "
              f"{cache.root / 'quarantine'}")
        return 1
    info = cache.describe()
    print(f"cache root: {info['root']}")
    print(f"enabled: {info['enabled']}")
    print(f"entries: {info['entries']} "
          f"({info['bytes'] / 1e6:.1f} MB)")
    if info.get("quarantined"):
        print(f"quarantined: {info['quarantined']} corrupt entries")
    if info["by_kind"]:
        rows = [(kind, bucket["entries"], f"{bucket['bytes'] / 1e6:.1f}")
                for kind, bucket in sorted(info["by_kind"].items())]
        print(format_table(("Kind", "Entries", "MB"), rows,
                           title="Cached artifacts"))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "time": _cmd_time,
    "record": _cmd_record,
    "simulate": _cmd_simulate,
    "profile": _cmd_profile,
    "plan": _cmd_plan,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "datasets": _cmd_datasets,
    "kernels": _cmd_kernels,
    "bench": _cmd_bench,
    "cache": _cmd_cache,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except GSuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
