"""End-to-end service tests: parity, accounting, wire.

The serving invariant under test everywhere: **how** a request executes
(on a resident pipeline or a fresh build, whatever else is queued)
never changes **what** it computes — every response is bit-for-bit the
same request executed solo, at its own feature width — and the
service's counters account every execution exactly.
"""

import asyncio
import json
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import SuiteConfig
from repro.errors import ConfigError, GSuiteError, ServeError
from repro.frameworks import get_backend
from repro.graph import Graph
from repro.serve import (
    InferenceRequest,
    InferenceService,
    run_loadgen,
    serve_tcp,
    solo_reference,
)
from repro.serve.loadgen import dataset_mix, percentile
from repro.serve.service import MAX_REQUEST_LINE, RESIDENT_PIPELINES
from strategies import PARITY_SETTINGS, power_law_graphs


def _graph(width=4, nodes=10, seed=0, name="g"):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, nodes, size=3 * nodes)
    dst = rng.integers(0, nodes, size=3 * nodes)
    return Graph(np.vstack([src, dst]).astype(np.int64), num_nodes=nodes,
                 features=rng.standard_normal((nodes, width))
                 .astype(np.float32), name=name)


def _requests(widths, **kwargs):
    kwargs.setdefault("out_features", 4)
    return [InferenceRequest(request_id=f"r{i}",
                             graph=_graph(width=w, seed=i, name=f"g{i}"),
                             **kwargs)
            for i, w in enumerate(widths)]


def _gate_worker(service):
    """Hold the service's worker inside ``_execute_group`` until the
    returned ``gate`` is set; ``started`` fires when it gets there."""
    started, gate = threading.Event(), threading.Event()
    execute = service._execute_group

    def gated(group):
        started.set()
        assert gate.wait(timeout=60)
        return execute(group)
    service._execute_group = gated
    return started, gate


def _poison_builds(monkeypatch, poison):
    """Route the service's backend builds through ``poison(spec,
    graph)`` first: it raises to fail that build."""
    import repro.serve.service as service_module
    real = service_module.get_backend

    class Poisoned:
        def __init__(self, backend):
            self.backend = backend

        def build(self, spec, graph, **kwargs):
            poison(spec, graph)
            return self.backend.build(spec, graph, **kwargs)
    monkeypatch.setattr(service_module, "get_backend",
                        lambda name: Poisoned(real(name)))


def _serve_all(requests, config=None):
    """Submit every request concurrently; return (service, responses)."""
    service = InferenceService(config or SuiteConfig())

    async def drive():
        async with service:
            return await asyncio.gather(
                *(service.submit(r) for r in requests))

    return service, asyncio.run(drive())


class TestBatchedParity:
    """Requests that arrive together are still answered one by one:
    each response is its request's plain solo run."""

    def test_equal_width_batch_is_bitwise_plain_solo(self):
        requests = _requests((5, 5, 5))
        service, responses = _serve_all(requests)
        assert {r.padded_to for r in responses} == {5}
        assert service.stats()["max_batch_size"] == 1
        for request, response in zip(requests, responses):
            assert np.array_equal(response.output,
                                  solo_reference(request)), \
                request.request_id

    def test_mixed_width_requests_run_at_their_own_width(self):
        """Simultaneous requests of different widths each run at their
        own width, and nobody's arithmetic depends on who else was in
        flight."""
        requests = _requests((3, 9, 3))
        service, responses = _serve_all(requests)
        assert [r.padded_to for r in responses] == [3, 9, 3]
        for request, response in zip(requests, responses):
            assert np.array_equal(response.output, solo_reference(request))

    def test_dispatch_report_accounts_cleanly(self):
        service, responses = _serve_all(_requests((4, 4, 4)))
        assert service.stats() == {
            "batched": 0, "solo": 3, "max_batch_size": 1,
            "plan_cache_hits": 0, "pipelines_built": 3}

    def test_incompatible_requests_never_share_a_batch(self):
        gcn = _requests((4, 4))
        gin = [InferenceRequest(request_id=f"gin-{i}", graph=r.graph,
                                model="gin", out_features=4)
               for i, r in enumerate(_requests((4, 4)))]
        service, responses = _serve_all(gcn + gin)
        stats = service.stats()
        assert stats["batched"] == 0 and stats["solo"] == 4
        assert stats["max_batch_size"] == 1
        for request, response in zip(gcn + gin, responses):
            assert np.array_equal(response.output, solo_reference(request))

    def test_latency_is_recorded(self):
        _, responses = _serve_all(_requests((4,)))
        assert responses[0].latency_s > 0


class TestWorkConservingFlush:
    """The service hands the worker the oldest request when the worker
    is free, never on a timer.  The worker is gated with an event, so
    what queues behind a running request is decided by the test, not
    by the host's speed."""

    def test_same_tick_pair_is_answered_by_the_resident_pipeline(self):
        """Two equal-width requests queued behind a running one (the
        only arrival that was ever packed) each run alone on the
        pipeline the first one built."""
        first = InferenceRequest(request_id="a", dataset="cora", scale=0.1)
        pair = [replace(first, request_id=f"b{i}") for i in range(2)]
        service = InferenceService(SuiteConfig())
        started, gate = _gate_worker(service)

        async def drive():
            loop = asyncio.get_running_loop()
            async with service:
                running = asyncio.ensure_future(service.submit(first))
                await loop.run_in_executor(None, started.wait, 60)
                assert len(service.batcher) == 0     # A was cut at once
                queued = [asyncio.ensure_future(service.submit(r))
                          for r in pair]
                while len(service.batcher) < 2:      # both queue behind A
                    await asyncio.sleep(0)
                gate.set()
                return await asyncio.gather(running, *queued)

        responses = asyncio.run(drive())
        stats = service.stats()
        assert stats["batched"] == 0 and stats["solo"] == 3
        assert stats["pipelines_built"] == 1
        assert stats["plan_cache_hits"] == 2
        for request, response in zip([first] + pair, responses):
            assert response.request_id == request.request_id
            assert np.array_equal(response.output, solo_reference(request))

    def test_featureless_request_fails_alone_between_good_neighbours(self):
        """A graph stripped of its features after validation is refused
        at ``submit`` — it never queues, the requests on either side of
        it are answered, and the drain task lives."""
        first, good_a, bad, good_b = _requests((4, 6, 6, 6))
        bad.graph.features = None
        service = InferenceService(SuiteConfig())
        started, gate = _gate_worker(service)

        async def drive():
            loop = asyncio.get_running_loop()
            async with service:
                running = asyncio.ensure_future(service.submit(first))
                await loop.run_in_executor(None, started.wait, 60)
                queued = [asyncio.ensure_future(service.submit(r))
                          for r in (good_a, bad, good_b)]
                while len(service.batcher) < 2:
                    await asyncio.sleep(0)
                gate.set()
                outcomes = await asyncio.gather(running, *queued,
                                                return_exceptions=True)
                return outcomes, not service._task.done()

        (_, a, failure, b), alive = asyncio.run(drive())
        assert alive
        assert isinstance(failure, GSuiteError)
        assert "r2" in str(failure) and "features" in str(failure)
        for request, response in ((good_a, a), (good_b, b)):
            assert np.array_equal(response.output, solo_reference(request))


class TestPoisonedRequests:
    """One bad request fails alone: the drain task survives whatever a
    request raises, and the next request is answered."""

    @staticmethod
    def _serve_in_turn(service, requests):
        async def drive():
            outcomes = []
            async with service:
                for group in requests:
                    outcomes.append(await asyncio.gather(
                        *(service.submit(r) for r in group),
                        return_exceptions=True))
                alive = not service._task.done()
            return outcomes, alive
        return asyncio.run(drive())

    def test_worker_exception_fails_the_request_not_the_service(
            self, monkeypatch):
        bad, good = _requests((4, 4))

        def poison(spec, graph):
            if graph is bad.graph:
                raise RuntimeError("kernel blew up")
        _poison_builds(monkeypatch, poison)
        service = InferenceService(SuiteConfig())
        ((failure,), (response,)), alive = self._serve_in_turn(
            service, [[bad], [good]])
        assert isinstance(failure, ServeError)
        assert "RuntimeError: kernel blew up" in str(failure)
        assert alive
        assert np.array_equal(response.output, solo_reference(good))

    def test_integer_past_int64_refused_then_next_answered(self):
        """``hidden=10**400`` used to pass construction; the drain task
        then died pricing its budget and no later submit returned."""
        async def drive():
            async with InferenceService(SuiteConfig()) as service:
                with pytest.raises(ServeError, match="int64"):
                    await service.submit(InferenceRequest(
                        request_id="x", dataset="cora", scale=0.1,
                        hidden=10 ** 400))
                response = await service.submit(good)
                return response, not service._task.done()

        (good,) = _requests((4,))
        response, alive = asyncio.run(drive())
        assert alive
        assert np.array_equal(response.output, solo_reference(good))

class TestServedPlansAreFused:
    """The service builds through ``Backend.build`` exactly as
    ``gsuite run`` does, so it serves the same fused plans."""

    @pytest.mark.parametrize("dataset", ("cora", "citeseer", "pubmed"))
    def test_solo_and_batched_run_the_pipeline_kernels(self, dataset):
        """A request served alone and a pair submitted together both
        answer with the pipeline's own output."""
        from repro.core.kernels import record_launches
        from repro.core.pipeline import GNNPipeline
        solo_request = InferenceRequest(request_id="solo", dataset=dataset,
                                        scale=0.25, out_features=8)
        pair = [replace(solo_request, request_id=f"pair-{i}")
                for i in range(2)]
        _, (solo,) = _serve_all([solo_request])
        _, together = _serve_all(pair)
        for request, response in zip([solo_request] + pair,
                                     [solo] + together):
            assert np.array_equal(response.output, solo_reference(request))
        config = SuiteConfig(dataset=dataset, scale=0.25, out_features=8)
        assert np.array_equal(
            solo.output,
            GNNPipeline(config, graph=solo_request.resolve_graph()).run())
        with record_launches() as recorder:
            solo_reference(solo_request)
        kernels = {launch.kernel for launch in recorder.launches}
        assert "fusedGatherScatter" in kernels
        assert not kernels & {"indexSelect", "scatter"}


def _serve_in_order(service, requests):
    """Submit one request at a time (each runs alone on an idle
    service); return each response or the exception it raised."""
    async def drive():
        async with service:
            return [(await asyncio.gather(service.submit(r),
                                          return_exceptions=True))[0]
                    for r in requests]
    return asyncio.run(drive())


class TestResidentPipelines:
    """A recurring dataset request runs its resident pipeline: built
    once, run every time, and bit for bit the fresh-build oracle."""

    @pytest.mark.parametrize("framework, compute_model", [
        ("gsuite", "MP"), ("gsuite", "SpMM"), ("pyg", "MP"),
        ("dgl", "SpMM"), ("gsuite-adaptive", "MP")])
    def test_recurring_request_builds_once(self, framework, compute_model):
        requests = [InferenceRequest(
            request_id=f"r{i}", dataset="cora", scale=0.1,
            framework=framework, compute_model=compute_model)
            for i in range(3)]
        service = InferenceService(SuiteConfig())
        responses = _serve_in_order(service, requests)
        stats = service.stats()
        assert stats["pipelines_built"] == 1
        assert stats["plan_cache_hits"] == 2 and stats["solo"] == 3
        for request, response in zip(requests, responses):
            assert np.array_equal(response.output, solo_reference(request))

    def test_table_is_bounded_least_recent_out(self):
        distinct = [InferenceRequest(request_id=f"r{i}", dataset="cora",
                                     scale=0.1, out_features=i + 1)
                    for i in range(3 * RESIDENT_PIPELINES)]
        first = distinct[0]
        # A hit refreshes the first spec, so the next miss evicts the
        # second one instead and the first is still resident after it.
        order = distinct[:RESIDENT_PIPELINES] + [
            first, distinct[RESIDENT_PIPELINES], first] \
            + distinct[RESIDENT_PIPELINES + 1:]
        service = InferenceService(SuiteConfig())
        responses = _serve_in_order(service, order)
        assert len(service._resident) == RESIDENT_PIPELINES
        stats = service.stats()
        assert stats["plan_cache_hits"] == 2
        assert stats["pipelines_built"] == 3 * RESIDENT_PIPELINES
        for request, response in zip(order, responses):
            assert np.array_equal(response.output, solo_reference(request))

    def test_inline_graphs_are_never_held(self):
        graph = _graph(seed=5)
        requests = [InferenceRequest(request_id=f"r{i}", graph=graph,
                                     out_features=4) for i in range(3)]
        service = InferenceService(SuiteConfig())
        responses = _serve_in_order(service, requests)
        assert not service._resident
        assert service.stats()["pipelines_built"] == 3
        assert service.stats()["plan_cache_hits"] == 0
        for request, response in zip(requests, responses):
            assert np.array_equal(response.output, solo_reference(request))

    def test_failed_build_fails_alone_and_is_not_held(self, monkeypatch):
        builds = []

        def first_fails(spec, graph):
            builds.append(spec)
            if len(builds) == 1:
                raise MemoryError("no room for the weights")
        _poison_builds(monkeypatch, first_fails)
        request = InferenceRequest(request_id="r", dataset="cora",
                                   scale=0.1)
        service = InferenceService(SuiteConfig())
        failure, first, second = _serve_in_order(service, [
            request, replace(request, request_id="r1"),
            replace(request, request_id="r2")])
        assert isinstance(failure, ServeError)
        assert "MemoryError" in str(failure)
        assert len(builds) == 2 and len(service._resident) == 1
        assert service.stats()["plan_cache_hits"] == 1
        for response in (first, second):
            assert np.array_equal(response.output, solo_reference(request))

    def test_resident_pyg_tape_holds_one_forward(self):
        request = InferenceRequest(request_id="r", dataset="cora",
                                   scale=0.1, framework="pyg")
        service = InferenceService(SuiteConfig())
        _serve_in_order(service, [replace(request, request_id=f"r{i}")
                                  for i in range(3)])
        (resident,) = service._resident.values()
        fresh = get_backend("pyg").build(request.pipeline_spec(),
                                         request.resolve_graph())
        fresh.run()
        assert resident._tape.nodes == fresh._tape.nodes


class TestBatchedRowSparseFeatures:
    def test_batched_pair_builds_no_dense_view(self):
        """Requests on a dataset that stores X row-sparse, submitted
        together, leave its dense view unbuilt."""
        from repro.datasets import clear_cache
        clear_cache()
        pair = [InferenceRequest(request_id=f"pair-{i}", dataset="cora",
                                 scale=0.25, out_features=8)
                for i in range(2)]
        _, responses = _serve_all(pair)
        for request, response in zip(pair, responses):
            assert not request.resolve_graph().dense_view_built
            assert np.array_equal(response.output, solo_reference(request))


class TestServeModes:
    def test_off_mode_runs_everything_solo(self):
        """What ``serve_batch=off`` used to select is the only mode:
        simultaneous requests of any widths each run alone."""
        requests = _requests((3, 9, 5))
        service, responses = _serve_all(requests)
        assert [r.padded_to for r in responses] == [3, 9, 5]
        for request, response in zip(requests, responses):
            assert np.array_equal(response.output, solo_reference(request))
        stats = service.stats()
        assert stats["batched"] == 0 and stats["solo"] == 3

    def test_adaptive_traffic_stays_solo(self):
        requests = _requests((4, 4), framework="gsuite-adaptive")
        service, responses = _serve_all(requests)
        for request, response in zip(requests, responses):
            assert np.array_equal(response.output, solo_reference(request))

    def test_repeat_geometry_answers_equal_solo_reference(self):
        service = InferenceService(SuiteConfig())
        first = InferenceRequest(request_id="a", graph=_graph(seed=3),
                                 out_features=4)
        repeat = InferenceRequest(request_id="b", graph=_graph(seed=3),
                                  out_features=4)

        async def drive():
            async with service:
                return [await service.submit(first),
                        await service.submit(repeat)]

        responses = asyncio.run(drive())
        for request, response in zip((first, repeat), responses):
            assert np.array_equal(response.output, solo_reference(request))

    def test_submit_requires_started_service(self):
        service = InferenceService(SuiteConfig())
        with pytest.raises(ServeError, match="not started"):
            asyncio.run(service.submit(_requests((4,))[0]))


class TestTcpServer:
    def test_json_lines_round_trip_and_error_reply(self):
        async def scenario():
            service = InferenceService(SuiteConfig())
            async with service:
                ready = asyncio.get_running_loop().create_future()
                server = asyncio.ensure_future(serve_tcp(
                    service, port=0, max_requests=2,
                    ready=ready.set_result))
                host, port = await ready
                reader, writer = await asyncio.open_connection(host, port)
                good = InferenceRequest(request_id="t1", graph=_graph(),
                                        out_features=4)
                writer.write(json.dumps(good.to_dict()).encode() + b"\n")
                writer.write(json.dumps(
                    {"request_id": "t2", "dataset": "nope"}).encode()
                    + b"\n")
                await writer.drain()
                first = json.loads(await reader.readline())
                second = json.loads(await reader.readline())
                writer.close()
                return first, second, await server

        first, second, served = asyncio.run(scenario())
        assert served == 2
        assert first["request_id"] == "t1"
        assert first["output_shape"] == [10, 4]
        assert "error" in second and "nope" in second["error"]

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_inline_features_get_an_error_line(self):
        """NaN features would come back as ``"output_checksum": NaN`` —
        not JSON.  The payload refuses instead, the connection stays."""
        async def scenario():
            service = InferenceService(SuiteConfig())
            async with service:
                ready = asyncio.get_running_loop().create_future()
                server = asyncio.ensure_future(serve_tcp(
                    service, port=0, max_requests=4,
                    ready=ready.set_result))
                reader, writer = await asyncio.open_connection(*await ready)
                good = InferenceRequest(request_id="ok", graph=_graph(),
                                        out_features=4).to_dict()
                # 3e38 is finite going in and overflows float32 inside.
                for bad_value in (float("nan"), float("inf"), 3e38):
                    bad = json.loads(json.dumps(good))
                    bad["request_id"] = "bad"
                    bad["graph"]["features"][0][0] = bad_value
                    writer.write(json.dumps(bad).encode() + b"\n")
                writer.write(json.dumps(good).encode() + b"\n")
                await writer.drain()
                lines = [await reader.readline() for _ in range(4)]
                writer.close()
                return lines, await server

        lines, served = asyncio.run(scenario())
        assert served == 4
        strict = [json.loads(line, parse_constant=pytest.fail)
                  for line in lines]                 # no NaN on the wire
        for reply in strict[:2]:
            assert reply["error"].startswith("bad inline graph")
            assert "NaN or infinite" in reply["error"]
        assert "not JSON compliant" in strict[2]["error"]
        assert strict[3]["request_id"] == "ok"
        assert strict[3]["output_shape"] == [10, 4]

    def test_mistyped_fields_get_an_error_line(self):
        """A mistyped field used to escape ``from_dict`` / ``submit`` as
        an untyped error: the connection closed with no reply (and an
        unknown model killed the service's drain task).  Each now gets
        its error line and the next request on the line is answered."""
        async def scenario():
            service = InferenceService(SuiteConfig())
            async with service:
                ready = asyncio.get_running_loop().create_future()
                server = asyncio.ensure_future(serve_tcp(
                    service, port=0, max_requests=4,
                    ready=ready.set_result))
                reader, writer = await asyncio.open_connection(*await ready)
                good = InferenceRequest(request_id="ok", graph=_graph(),
                                        out_features=4).to_dict()
                for bad in ({"request_id": "r1", "dataset": []},
                            {**good, "model": 3}, {**good, "model": "foo"},
                            good):
                    writer.write(json.dumps(bad).encode() + b"\n")
                await writer.drain()
                lines = [json.loads(await reader.readline())
                         for _ in range(4)]
                writer.close()
                return lines, await server

        lines, served = asyncio.run(scenario())
        assert served == 4
        assert "'dataset' must be" in lines[0]["error"]
        assert "'model' must be" in lines[1]["error"]
        assert "unknown model 'foo'" in lines[2]["error"]
        assert lines[3]["request_id"] == "ok"
        assert lines[3]["output_shape"] == [10, 4]

    def test_unbuildable_request_gets_an_error_line(self):
        """A negative seed, an unknown compute model and an unknown
        activation are refused at construction with an error line, and
        the next request on the line is answered."""
        async def scenario():
            service = InferenceService(SuiteConfig())
            async with service:
                ready = asyncio.get_running_loop().create_future()
                server = asyncio.ensure_future(serve_tcp(
                    service, port=0, max_requests=4,
                    ready=ready.set_result))
                reader, writer = await asyncio.open_connection(*await ready)
                good = InferenceRequest(request_id="ok", graph=_graph(),
                                        out_features=4).to_dict()
                for payload in ({"request_id": "s", "dataset": "cora",
                                 "scale": 0.1, "seed": -1},
                                {**good, "compute_model": "XX"},
                                {**good, "activation": "nope"}, good):
                    writer.write(json.dumps(payload).encode() + b"\n")
                await writer.drain()
                lines = [json.loads(await reader.readline())
                         for _ in range(4)]
                writer.close()
                return lines, await server

        lines, served = asyncio.run(scenario())
        assert served == 4
        assert "seed must be >= 0" in lines[0]["error"]
        assert "unknown compute_model 'XX'" in lines[1]["error"]
        assert "unknown activation 'nope'" in lines[2]["error"]
        assert lines[3]["request_id"] == "ok"
        assert lines[3]["output_shape"] == [10, 4]

    def test_integer_past_int64_gets_an_error_line(self):
        async def scenario():
            service = InferenceService(SuiteConfig())
            async with service:
                ready = asyncio.get_running_loop().create_future()
                server = asyncio.ensure_future(serve_tcp(
                    service, port=0, max_requests=2,
                    ready=ready.set_result))
                reader, writer = await asyncio.open_connection(*await ready)
                good = InferenceRequest(request_id="ok", graph=_graph(),
                                        out_features=4).to_dict()
                for payload in ({**good, "request_id": "big",
                                 "hidden": 10 ** 400}, good):
                    writer.write(json.dumps(payload).encode() + b"\n")
                await writer.drain()
                lines = [json.loads(await reader.readline())
                         for _ in range(2)]
                writer.close()
                return lines, await server

        lines, served = asyncio.run(scenario())
        assert served == 2
        assert "'hidden' must be within the int64 range" in lines[0]["error"]
        assert lines[1]["request_id"] == "ok"
        assert lines[1]["output_shape"] == [10, 4]

    def test_overlong_request_line_gets_error_reply_then_close(self):
        async def scenario():
            service = InferenceService(SuiteConfig())
            async with service:
                ready = asyncio.get_running_loop().create_future()
                server = asyncio.ensure_future(serve_tcp(
                    service, port=0, max_requests=1,
                    ready=ready.set_result))
                reader, writer = await asyncio.open_connection(*await ready)
                big = InferenceRequest(request_id="big", out_features=4,
                                       graph=_graph(width=64, nodes=400))
                line = json.dumps(big.to_dict()).encode() + b"\n"
                assert len(line) > MAX_REQUEST_LINE
                writer.write(line)
                await writer.drain()
                reply = json.loads(await reader.readline())
                closed = await reader.read() == b""
                writer.close()
                return reply, closed, await server

        reply, closed, served = asyncio.run(scenario())
        assert reply == {
            "error": f"request line exceeds {MAX_REQUEST_LINE} bytes"}
        assert closed and served == 1


class TestLoadgen:
    def test_percentile_nearest_rank(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 0.5) == 3.0
        assert percentile(values, 1.0) == 5.0
        assert percentile([], 0.5) == 0.0

    def test_dataset_mix_pins_head_width(self):
        mix = dataset_mix(["cora", "pubmed"])
        assert {t.out_features for t in mix} == {7}   # cora's class count
        assert dataset_mix(["cora"])[0].out_features is None

    def test_dataset_mix_validates(self):
        with pytest.raises(ServeError, match="at least one"):
            dataset_mix([])

    def test_closed_loop_run_with_verification(self):
        templates = [InferenceRequest(
            request_id="template", graph=_graph(width=w, seed=w),
            out_features=4) for w in (3, 6)]
        report = run_loadgen(templates, concurrency=3,
                             requests_per_client=2,
                             verify=True)
        assert report.requests == 6
        assert report.parity_checked == 6
        assert report.parity_failures == 0
        assert report.plan_cache_hits == 0      # inline graphs: no hits
        assert report.throughput_rps > 0
        assert report.p99_ms >= report.p50_ms >= 0
        summary = report.summary()
        assert "p50" in summary and "resident" in summary

    def test_bad_parameters_refused(self):
        template = InferenceRequest(request_id="t", graph=_graph(),
                                    out_features=4)
        with pytest.raises(ServeError, match=">= 1"):
            run_loadgen([template], concurrency=0, requests_per_client=1)
        with pytest.raises(ServeError, match="template"):
            run_loadgen([], concurrency=1, requests_per_client=1)


class TestCli:
    def test_loadgen_command(self, capsys):
        from repro.cli import main
        assert main(["loadgen", "--concurrency", "2", "--requests", "2",
                     "--datasets", "cora,pubmed", "--scale", "0.1",
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "loadgen over cora+pubmed" in out
        assert "parity" in out

    def test_serve_knobs_validate(self, capsys):
        """Serving has no batch size to set: the flag is unknown to
        ``gsuite serve`` and ``gsuite loadgen``, and a config naming
        it is refused."""
        from repro.cli import main
        for command in ("serve", "loadgen"):
            with pytest.raises(SystemExit) as exited:
                main([command, "--serve-batch", "off"])
            assert exited.value.code == 2
        assert "unrecognized arguments: --serve-batch" in \
            capsys.readouterr().err
        with pytest.raises(ConfigError, match="unknown configuration keys"):
            SuiteConfig.from_dict({"serve_batch": -2})


@st.composite
def _arrivals(draw):
    """2-6 inline graphs over 2-3 distinct feature widths, each with a
    flag: is the worker free right after this one is submitted?"""
    widths = draw(st.lists(st.integers(1, 12), min_size=2, max_size=3,
                           unique=True))
    steps = draw(st.lists(st.tuples(st.sampled_from(widths), st.booleans()),
                          min_size=2, max_size=6))
    return [(draw(power_law_graphs(max_nodes=24, width=width)), free)
            for width, free in steps]


@PARITY_SETTINGS
@given(arrivals=_arrivals())
def test_any_arrival_order_serves_every_request_at_its_own_width(arrivals):
    """The width contract, driven call by call (no loop, no clock): no
    group mixes widths, and every response is the plain solo run."""
    service = InferenceService(SuiteConfig())
    groups = []
    for i, (graph, worker_free) in enumerate(arrivals):
        service.batcher.submit(InferenceRequest(
            request_id=f"r{i}", graph=graph, out_features=3))
        if worker_free:
            groups += service.batcher.due()
    groups += service.batcher.flush_all()
    assert sum(group.size for group in groups) == len(arrivals)
    for group in groups:
        assert len({e.graph.num_features for e in group.entries}) == 1
        for entry, response in zip(group.entries,
                                   service._execute_group(group)):
            assert response.padded_to == entry.graph.num_features
            assert np.array_equal(response.output,
                                  solo_reference(entry.request))
