"""Tests for the gsuite command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        # Unset flags stay None at the parser (sentinels, so a --config
        # file is never clobbered by built-in defaults); the defaults
        # resolve through SuiteConfig when the pipeline is built.
        from repro.cli import _pipeline_from_args
        args = build_parser().parse_args(["run"])
        assert args.model is None
        assert args.dataset is None
        assert args.compute_model is None
        pipeline = _pipeline_from_args(args)
        assert pipeline.config.model == "gcn"
        assert pipeline.config.dataset == "cora"
        assert pipeline.config.compute_model == "MP"
        # The namespace is backfilled for command output.
        assert (args.model, args.dataset) == ("gcn", "cora")

    def test_compute_model_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--compute-model", "TPU"])

    @pytest.mark.parametrize("flag,value", [
        ("--shards", "2"), ("--partitioner", "rows"), ("--jobs", "2"),
        ("--task-timeout", "1"), ("--faults", "x"),
    ])
    def test_removed_sharding_flags_exit_2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--dataset", "cora", "--scale", "0.1", flag, value])
        assert exit_.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command",
                             ["run", "record", "simulate", "profile", "plan"])
    def test_repeats_is_refused_where_nothing_repeats(self, capsys, command):
        """Only ``gsuite time`` measures repeats; elsewhere the flag is
        refused instead of being accepted and ignored."""
        with pytest.raises(SystemExit) as exit_:
            main([command, "--dataset", "cora", "--scale", "0.1",
                  "--repeats", "3"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --repeats 3" in capsys.readouterr().err

    def test_time_reads_repeats(self, capsys):
        code = main(["time", "--dataset", "cora", "--scale", "0.1",
                     "--repeats", "2"])
        assert code == 0
        assert "over 2 runs" in capsys.readouterr().out


class TestCommands:
    def test_run(self, capsys):
        code = main(["run", "--dataset", "cora", "--scale", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "output shape" in out

    def test_time(self, capsys):
        code = main(["time", "--dataset", "cora", "--scale", "0.1",
                     "--repeats", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ms" in out

    def test_record(self, capsys):
        code = main(["record", "--dataset", "cora", "--scale", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fusedGatherScatter" in out and "indexSelect" not in out

    def test_record_no_fuse_shows_the_papers_kernels(self, capsys):
        code = main(["record", "--dataset", "cora", "--scale", "0.1",
                     "--no-fuse"])
        kernels = [line.split()[0]
                   for line in capsys.readouterr().out.splitlines()[3:]
                   if line.strip()]
        assert code == 0
        assert kernels == ["sgemm", "indexSelect", "scatter"] * 2

    def test_simulate(self, capsys):
        code = main(["simulate", "--dataset", "cora", "--scale", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Dominant Stall" in out
        assert "*" not in out          # every launch ran to completion

    def test_simulate_marks_capped_launches(self, capsys, monkeypatch):
        """A launch cut off at ``max_cycles`` is starred in the Cycles
        column and footnoted; it is extrapolated, not fully simulated."""
        import repro.gpu.simulator as simulator
        from repro.gpu.config import v100_config
        monkeypatch.setattr(simulator, "v100_config",
                            lambda: v100_config(max_cycles=40))
        code = main(["simulate", "--dataset", "cora", "--scale", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert " 40* " in out
        assert "* stopped at the cycle cap" in out

    def test_profile(self, capsys):
        code = main(["profile", "--dataset", "cora", "--scale", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "L1 Hit" in out

    def test_kernels(self, capsys):
        assert main(["kernels"]) == 0
        assert "indexSelect" in capsys.readouterr().out

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        assert "livejournal" in capsys.readouterr().out

    def test_framework_flag(self, capsys):
        code = main(["run", "--dataset", "cora", "--scale", "0.1",
                     "--framework", "pyg"])
        assert code == 0

    def test_config_file(self, tmp_path, capsys):
        from repro.core.config import SuiteConfig
        path = tmp_path / "cfg.json"
        SuiteConfig(dataset="citeseer", scale=0.1).save(path)
        code = main(["run", "--config", str(path), "--scale", "0.1",
                     "--dataset", "citeseer"])
        assert code == 0

    def test_error_paths_return_2(self, capsys):
        assert main(["run", "--dataset", "nope"]) == 2
        assert "unknown dataset" in capsys.readouterr().err
        assert main(["run", "--scale", "7"]) == 2
        assert main(["run", "--model", "transformer"]) == 2
        capsys.readouterr()
        assert main(["run", "--model", "gat", "--scale", "0.1"]) == 2
        err = capsys.readouterr().err
        assert "unknown model 'gat'" in err and "Traceback" not in err

    def test_mistyped_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"hidden": true}')
        assert main(["run", "--config", str(path)]) == 2
        assert "error: hidden must be an integer" in capsys.readouterr().err

    def test_profile_costs_flag(self, tmp_path, capsys):
        """The planner's constants are fixed: the flag is gone (argparse
        exits 2), ``gsuite plan`` prints no cost-profile line, and a
        config file naming a profile is refused with an error line."""
        with pytest.raises(SystemExit) as exit_info:
            main(["plan", "--dataset", "cora", "--scale", "0.1",
                  "--profile-costs", "paper"])
        assert exit_info.value.code == 2
        assert "--profile-costs" in capsys.readouterr().err
        assert main(["plan", "--dataset", "cora", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "cost profile" not in out and "[costs:" not in out
        path = tmp_path / "cfg.json"
        path.write_text('{"profile_costs": "custom.json"}')
        assert main(["plan", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: profile_costs must be")
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("field", ["hidden", "scale", "seed"])
    def test_config_integer_past_int64_exits_2(self, tmp_path, capsys,
                                               field):
        """A JSON integer too large for a float used to escape
        ``math.isfinite`` as an ``OverflowError`` traceback."""
        path = tmp_path / "cfg.json"
        path.write_text('{"%s": %s}' % (field, "9" * 400))
        assert main(["run", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field} must be")
        assert "int64" in captured.err and "Traceback" not in captured.err

    def test_plan_reports_the_feature_operand(self, capsys):
        """The header is what ``Graph.feature_rows`` answers; each
        indented line is one kernel that reads ``X`` and the form the
        executor will hand it (``takes_row_sparse`` for an aggregation
        or an unfused gather; a gather whose messages feed max / min or
        two consumers reads ``dense (...)``, pinned in
        ``tests/plan/test_resident_structures.py``)."""
        def block(*args):
            assert main(["plan", *args]) == 0
            lines = capsys.readouterr().out.splitlines()
            at = next(i for i, l in enumerate(lines)
                      if l.startswith("features:"))
            end = next(i for i in range(at + 1, len(lines) + 1)
                       if i == len(lines) or not lines[i].startswith("  "))
            return lines[at:end]

        def line(*args):
            return block(*args)[0]

        assert block("--dataset", "cora") == [
            "features: row-sparse (nnz/size 0.97 %, 15.5 MB dense "
            "\u2192 0.3 MB; no dense view)",
            "  sgemm gcn-l0: row-sparse"]
        assert block("--dataset", "reddit", "--scale", "0.02") == [
            "features: dense (100 %)", "  sgemm gcn-l0: dense"]
        # Three seed variants packed: each member's own structure, the
        # members' CSRs stacked, so packing builds no dense view.
        batched = line("--dataset", "cora", "--scale", "0.1", "--batch", "3")
        assert batched.startswith("features: row-sparse (nnz/size 0.9")
        assert batched.endswith("; no dense view)")
        # No resident operand: PyG re-materialises X.
        assert block("--dataset", "cora", "--scale", "0.1", "--framework",
                     "pyg") == \
            ["features: dense (X is re-materialised on every run)"]
        # The aggregations over X are its other readers.
        assert block("--dataset", "cora", "--scale", "0.1", "--model",
                     "gin")[1:] == [
            "  fusedGatherScatter gin-l0: row-sparse "
            "(nnz\u00b7k / (nnz + expansion) = 96.1 \u2265 64)"]
        assert block("--dataset", "cora", "--model", "sage")[1:] == [
            "  fusedGatherScatter sage-l0: row-sparse "
            "(nnz\u00b7k / (nnz + expansion) = 95.9 \u2265 64)",
            "  sgemm sage-l0: row-sparse",
            "  sgemm sage-l0 (aggregate of X): row-sparse "
            "(product nnz/size 2.88 % \u2264 1/16)"]
        assert block("--dataset", "cora", "--model", "gcn",
                     "--compute-model", "SpMM")[1:] == [
            "  spmm gcn-l0: row-sparse "
            "(nnz\u00b7k / (nnz + expansion) = 95.9 \u2265 64)",
            "  sgemm gcn-l0 (aggregate of X): row-sparse "
            "(product nnz/size 2.88 % \u2264 1/16)"]
        assert block("--dataset", "reddit", "--scale", "0.02", "--model",
                     "gin", "--compute-model", "SpMM") == [
            "features: dense (100 %)", "  spmm gin-l0: dense",
            "  sgemm gin-l0 (aggregate of X): dense (square: 602 \u2192 602)"]
        # The sum / mean of X a layer transforms: handed to a narrowing
        # W2 as the SpGEMM product, densified for GIN's square W1.
        assert block("--dataset", "pubmed", "--model", "sage")[3:] == [
            "  sgemm sage-l0 (aggregate of X): row-sparse "
            "(product nnz/size 3.18 % \u2264 1/16)"]
        assert block("--dataset", "cora", "--model", "gin",
                     "--compute-model", "SpMM")[1:] == [
            "  spmm gin-l0: row-sparse "
            "(nnz\u00b7k / (nnz + expansion) = 95.9 \u2265 64)",
            "  sgemm gin-l0 (aggregate of X): dense "
            "(square: 1433 \u2192 1433)"]
        # The unfused gather asks the rule its fused pair would ask.
        assert block("--no-fuse", "--dataset", "pubmed", "--model",
                     "sage")[1:] == [
            "  indexSelect sage-l0: row-sparse "
            "(nnz\u00b7k / (nnz + expansion) = 83.6 \u2265 64)",
            "  sgemm sage-l0: row-sparse",
            "  sgemm sage-l0 (aggregate of X): row-sparse "
            "(product nnz/size 3.18 % \u2264 1/16)"]
        assert block("--no-fuse", "--dataset", "cora", "--scale", "0.1",
                     "--model", "gin")[1:] == [
            "  indexSelect gin-l0: row-sparse "
            "(nnz\u00b7k / (nnz + expansion) = 96.1 \u2265 64)"]
        # Packed members: the aggregation reads their rows stacked.
        assert block("--dataset", "cora", "--scale", "0.1", "--batch", "3",
                     "--model", "sage")[1] == (
            "  fusedGatherScatter sage-l0: row-sparse "
            "(nnz\u00b7k / (nnz + expansion) = 96 \u2265 64)")

    def test_serve_answers_then_exits_0(self, capsys, monkeypatch):
        """``gsuite serve --max-requests 1`` answers one TCP request and
        exits 0 with a summary built from the service's own counters."""
        import json
        import socket
        import threading

        import repro.serve as serve

        real_serve_tcp = serve.serve_tcp
        replies = []

        def client(port):
            request = {"request_id": "r1", "dataset": "cora", "scale": 0.1,
                       "out_features": 7}
            with socket.create_connection(("127.0.0.1", port)) as sock:
                sock.sendall(json.dumps(request).encode() + b"\n")
                replies.append(json.loads(sock.makefile().readline()))

        threads = []

        async def serve_tcp(service, ready=None, **kwargs):
            def connect(bound):
                ready(bound)
                thread = threading.Thread(target=client, args=(bound[1],))
                thread.start()
                threads.append(thread)
            return await real_serve_tcp(service, ready=connect, **kwargs)

        monkeypatch.setattr(serve, "serve_tcp", serve_tcp)
        code = main(["serve", "--port", "0", "--max-requests", "1"])
        for thread in threads:
            thread.join(timeout=30)
        out = capsys.readouterr().out
        assert code == 0
        assert replies[0]["request_id"] == "r1"
        assert replies[0]["padded_to"] == 1433
        assert "served 1 request(s); 0 on a resident pipeline" in out
