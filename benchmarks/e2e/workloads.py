"""The four workloads of the end-to-end benchmark.

Each workload has a ``setup()`` (everything before the first timed op:
dataset generation, plan-cache warm-up, reference outputs) and a
``measure(seconds, tracer)`` that runs timed ops for that long and
verifies every output.  Why each exists is in README.md; the
one-sentence reasons are in BENCHMARK.json.

Only the workload *inputs* depend on ``--seed`` (model seeds, request
order); datasets are the named ones at their default generation seed,
so op cost does not move with the seed.
"""

from __future__ import annotations

import asyncio
import bisect
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.bench import common as bench_common
from repro.bench.profiles import PROFILES, BenchProfile
from repro.cache import configure_cache
from repro.core.config import SuiteConfig
from repro.core.pipeline import GNNPipeline
from repro.datasets import load_dataset
from repro.errors import GSuiteError
from repro.serve.requests import InferenceRequest
from repro.serve.service import InferenceService, solo_reference

from tracing import NullTracer

__all__ = ["WORKLOADS", "Measurement"]

#: Every measurement runs at least this many ops, however short
#: ``--seconds`` is: round-to-round checks need a second round.
MIN_OPS = 2


class HostProbe:
    """A fixed kernel mix timed between ops: how slow the host is now.

    Dense compute, a dependent gather and interpreter bytecode.  Nothing
    of the program under test runs in it, so its time moves with the
    host alone; sampled four times a second it costs 1 % of a run.
    """

    EVERY_S = 0.25

    #: An op is corrected by the samples from this long before it to
    #: this long after it: the host's slow spells last seconds.
    WINDOW_S = 1.0

    #: The probe's median on the host the baseline was taken on, on an
    #: average minute: there, corrected and measured latencies agree.
    NOMINAL_S = 2.4e-3

    def __init__(self):
        rng = np.random.default_rng(0)
        self.dense = rng.random((320, 320), dtype=np.float32)
        self.source = rng.random(1 << 18, dtype=np.float32)
        self.index = rng.integers(0, 1 << 18, 1 << 17)
        self.times = []              # when each sample ended
        self.samples = []            # seconds each took

    def sample_if_due(self):
        started = time.perf_counter()
        if self.times and started < self.times[-1] + self.EVERY_S:
            return
        self.dense @ self.dense
        self.source[self.index].sum()
        sum(i * i for i in range(12_000))
        now = time.perf_counter()
        self.times.append(now)
        self.samples.append(now - started)

    def slowness(self, start, end):
        """Median sample around ``[start, end]`` over the nominal one."""
        first = bisect.bisect_left(self.times, start - self.WINDOW_S)
        last = bisect.bisect_right(self.times, end + self.WINDOW_S)
        return statistics.median(self.samples[first:last]) / self.NOMINAL_S


@dataclass
class Measurement:
    """One ``measure()`` call: verified op latencies and the tallies."""

    latencies: list = field(default_factory=list)   # seconds, verified ops
    attempted: int = 0
    failed: int = 0            # raised, or output failed verification
    wall_s: float = 0.0
    clients: int = 1           # ops in flight at any time
    #: Per latency, the host's slowness around that op (HostProbe);
    #: ``None`` where latencies are reported as measured.
    slowness: list = None
    extra: dict = field(default_factory=dict)

    def corrected(self):
        """The latencies, each divided by the host's slowness."""
        if self.slowness is None:
            return self.latencies
        return [latency / slow
                for latency, slow in zip(self.latencies, self.slowness)]

    def host_slowness(self):
        """The median correction factor; 1 = as measured."""
        return statistics.median(self.slowness) if self.slowness else 1.0


class _Loop:
    """A workload whose ops run one after another on this thread.

    The ops are compute from end to end, so their latency stretches
    with the host: on the shared 2-core VM this was built on, slow
    spells of seconds to minutes move a 20 s run's median 10-20 % and
    its p90 up to 27 %.  A probe sampled between the ops follows them
    (correlation of run medians above 0.9); dividing each latency by the
    probe's slowness around it leaves a quarter of that spread
    (README.md has the figures).
    """

    def measure(self, seconds, tracer=NullTracer()):
        m = Measurement()
        probe = HostProbe()
        verified = []                # (start, end) of each verified op
        start = time.perf_counter()
        index = 0
        while index < MIN_OPS or time.perf_counter() - start < seconds:
            probe.sample_if_due()
            before = len(m.latencies)
            began = time.perf_counter()
            self.run_op(index, tracer, m)
            if len(m.latencies) > before:
                verified.append((began, time.perf_counter()))
            index += 1
        m.wall_s = time.perf_counter() - start
        m.slowness = [probe.slowness(*op) for op in verified]
        return m


class Infer(_Loop):
    """op = one round of ``GNNPipeline(cfg, graph=g).build().run()`` over
    the workload's cells, the model seed cycling over ``num_seeds``
    values so that many distinct plan keys per cell recur."""

    def __init__(self, seed, workdir, cells, num_seeds):
        self.cells = cells       # (model, dataset, compute_model, framework, scale)
        self.model_seeds = random.Random(seed).sample(range(1 << 20),
                                                      num_seeds)
        self.rounds = {}         # model seed -> [(config, graph, reference)]

    def setup(self):
        for model_seed in self.model_seeds:
            members = []
            for model, dataset, compute_model, framework, scale in self.cells:
                graph = load_dataset(dataset, scale=scale)
                config = SuiteConfig(
                    dataset=dataset, model=model, compute_model=compute_model,
                    framework=framework, scale=scale, seed=model_seed,
                    profile_costs="paper")
                # The fused/unfused contract: the planner's plan must
                # equal the fuse="off" plan bit for bit.  This build
                # also stores the lowered plan, so timed ops hit it.
                unfused = GNNPipeline(config.with_overrides(fuse="off"),
                                      graph=graph).build().run()
                output = GNNPipeline(config, graph=graph).build().run()
                reference = output if np.array_equal(output, unfused) else None
                members.append((config, graph, reference))
            self.rounds[model_seed] = members

    def run_op(self, index, tracer, m):
        members = self.rounds[self.model_seeds[index % len(self.model_seeds)]]
        m.attempted += 1
        try:
            with tracer.op(index):
                started = time.perf_counter()
                outputs = [GNNPipeline(config, graph=graph).build().run()
                           for config, graph, _ in members]
                latency = time.perf_counter() - started
        except GSuiteError:
            m.failed += 1
            return
        if all(reference is not None and np.array_equal(output, reference)
               for output, (_, _, reference) in zip(outputs, members)):
            m.latencies.append(latency)
        else:
            m.failed += 1


class Characterize(_Loop):
    """op = one cold round of record -> simulate -> profile over three
    cells in a fresh cache root, followed by an untimed warm pass."""

    CELLS = (("gcn", "cora", "MP"), ("gcn", "cora", "SpMM"),
             ("sage", "pubmed", "MP"))

    #: The ``ci`` profile cut down until a cold round takes about half
    #: a second: a run then holds enough rounds for a 90th percentile.
    PROFILE = BenchProfile(
        name="e2e",
        dataset_scales={**PROFILES["ci"].dataset_scales, "pubmed": 0.25},
        sample_cap=10_000, max_cycles=5_000, repeats=PROFILES["ci"].repeats)

    def __init__(self, seed, workdir):
        self.workdir = Path(workdir)
        self.profile = self.PROFILE
        self.reference = None    # digest every timed round must equal
        self.rounds = 0

    def setup(self):
        for _, dataset, _ in self.CELLS:
            load_dataset(dataset, scale=self.profile.scale_of(dataset))
        # One untimed cold round: the reference digest, and the first
        # touch of the message-matrix memory (on a fresh VM that alone
        # costs more than a whole warm round).
        configure_cache(root=self.workdir / "reference")
        self.reference = self._digest(self._pass(NullTracer(), ""))

    def _pass(self, tracer, span_name):
        bench_common.clear_bench_cache()
        results = []
        for cell in self.CELLS:
            with tracer.span(span_name):
                results.append((
                    bench_common.recorded_launches(*cell, self.profile),
                    bench_common.sim_results(*cell, self.profile),
                    bench_common.profile_results(*cell, self.profile)))
        return results

    @staticmethod
    def _digest(results):
        """What must repeat bit for bit: launch fingerprints, simulated
        cycles and instructions, the profiler's cycle and DRAM totals."""
        return tuple(
            (tuple(launch.fingerprint() for launch in launches),
             sum(r.cycles for r in sims),
             sum(r.issued_instructions for r in sims),
             sum(r.elapsed_estimate_cycles for r in profiles),
             sum(r.dram_bytes for r in profiles))
            for launches, sims, profiles in results)

    def run_op(self, index, tracer, m):
        root = self.workdir / f"round{self.rounds}"
        self.rounds += 1
        cache = configure_cache(root=root)
        m.attempted += 1
        try:
            with tracer.op(index):
                started = time.perf_counter()
                cold = self._pass(tracer, "bench.common.cold_cell")
                latency = time.perf_counter() - started
        except GSuiteError:
            m.failed += 1
            return
        digest = self._digest(cold)
        misses = cache.stats.misses
        tracer.phase = "warm"
        try:
            warm = self._pass(tracer, "bench.common.warm_cell")
        finally:
            tracer.phase = "run"
        verified = (digest == self.reference
                    and self._digest(warm) == digest
                    and cache.stats.misses == misses)
        m.extra["cache_disk_bytes"] = sum(
            path.stat().st_size for path in root.rglob("*") if path.is_file())
        shutil.rmtree(root, ignore_errors=True)
        if verified:
            m.latencies.append(latency)
        else:
            m.failed += 1


class ServeMixed:
    """Closed loop: ``CLIENTS`` coroutines, each sending its next request
    when the previous reply arrives, against one in-process service with
    default ``serve_batch``/``serve_window``.  op = one request.

    Latencies are reported as measured: a third of one is the batching
    window, a timer the host's speed does not stretch (its run medians
    follow a HostProbe with a correlation of 0.4 only)."""

    CLIENTS = 2
    DATASETS = ("cora", "citeseer", "pubmed")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.templates = [
            InferenceRequest(request_id="template", dataset=name,
                             out_features=8, scale=0.25)
            for name in self.DATASETS]
        self.references = {}     # (template index, pad width) -> output

    def setup(self):
        widths = [t.resolve_graph().num_features for t in self.templates]
        for k, template in enumerate(self.templates):
            for width in set(w for w in widths if w >= widths[k]):
                self.references[k, width] = solo_reference(template,
                                                           pad_to=width)
        asyncio.run(self._warm_plans())

    async def _warm_plans(self):
        """Store the packed plan of every ordered template pair."""
        async with InferenceService(self._config()) as service:
            for a in self.templates:
                for b in self.templates:
                    await asyncio.gather(
                        service.submit(replace(a, request_id="warm-a")),
                        service.submit(replace(b, request_id="warm-b")))

    @staticmethod
    def _config():
        return SuiteConfig(profile_costs="paper")

    def measure(self, seconds, tracer=NullTracer()):
        return asyncio.run(self._drive(seconds, tracer))

    async def _drive(self, seconds, tracer):
        m = Measurement(clients=self.CLIENTS)
        service = InferenceService(self._config())
        async with service:
            start = time.perf_counter()
            await asyncio.gather(*(
                self._client(c, service, start + seconds, tracer, m)
                for c in range(self.CLIENTS)))
            m.wall_s = time.perf_counter() - start
        m.extra = service.stats()
        return m

    async def _client(self, client, service, deadline, tracer, m):
        rng = random.Random(f"{self.seed}/{client}")
        sent = 0
        while sent < MIN_OPS or time.perf_counter() < deadline:
            k = rng.randrange(len(self.templates))
            request = replace(self.templates[k],
                              request_id=f"c{client}-{sent}")
            sent += 1
            m.attempted += 1
            try:
                with tracer.op(request.request_id):
                    response = await service.submit(request)
            except GSuiteError:
                m.failed += 1
                continue
            # Checked between two sends of this client, not stored: the
            # process's peak RSS must not grow with the number of ops.
            reference = self.references.get((k, response.padded_to))
            if reference is not None \
                    and np.array_equal(response.output, reference):
                m.latencies.append(response.latency_s)
            else:
                m.failed += 1


def _infer_dense(seed, workdir):
    return Infer(seed, workdir, num_seeds=8, cells=(
        ("gcn", "cora", "MP", "gsuite", 1.0),
        ("gcn", "citeseer", "MP", "gsuite", 1.0),
        ("gcn", "pubmed", "MP", "gsuite", 1.0)))


def _infer_sparse(seed, workdir):
    return Infer(seed, workdir, num_seeds=1, cells=(
        ("sage", "pubmed", "MP", "gsuite", 1.0),
        ("gin", "reddit", "SpMM", "gsuite", 0.02),
        ("gcn", "reddit", "MP", "gsuite-adaptive", 0.02)))


#: name -> factory(seed, workdir); the names are final (BENCHMARK.json).
WORKLOADS = {
    "infer_dense": _infer_dense,
    "infer_sparse": _infer_sparse,
    "serve_mixed": ServeMixed,
    "characterize": Characterize,
}
