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
        ("--task-timeout", "1"),
    ])
    def test_removed_sharding_flags_exit_2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--dataset", "cora", "--scale", "0.1", flag, value])
        assert exit_.value.code == 2
        assert flag in capsys.readouterr().err


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

    def test_profile_costs_flag(self, tmp_path, capsys):
        code = main(["plan", "--dataset", "cora", "--scale", "0.1",
                     "--profile-costs", "paper"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cost profile 'paper'" in out
        # An explicit profile path is loaded and named in the output.
        from repro.plan import CostProfile
        path = tmp_path / "custom.json"
        CostProfile.paper().with_overrides(name="custom").save(path)
        code = main(["plan", "--dataset", "cora", "--scale", "0.1",
                     "--profile-costs", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "cost profile 'custom'" in out
        # A missing file refuses cleanly.
        assert main(["plan", "--dataset", "cora", "--scale", "0.1",
                     "--profile-costs", str(tmp_path / "nope.json")]) == 2
        # So does a hand-mangled constant: exit 2, one error line
        # naming the field and the file, no traceback.
        import json
        payload = CostProfile.paper().to_dict()
        payload["profile"]["spmm_unit"] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["plan", "--dataset", "reddit", "--scale", "0.01",
                     "--framework", "adaptive",
                     "--profile-costs", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "spmm_unit" in captured.err and str(bad) in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_plan_reports_the_feature_operand(self, capsys):
        """The line is what ``Graph.feature_rows`` answers for the
        operand the first-layer sgemm will be handed."""
        def line(*args):
            assert main(["plan", *args]) == 0
            return next(l for l in capsys.readouterr().out.splitlines()
                        if l.startswith("features:"))

        assert line("--dataset", "cora") == (
            "features: row-sparse (nnz/size 0.97 %, 15.5 MB dense "
            "\u2192 0.3 MB)")
        assert line("--dataset", "reddit", "--scale", "0.02") == \
            "features: dense (100 %)"
        # Three seed variants packed: each member's own structure.
        assert line("--dataset", "cora", "--scale", "0.1",
                    "--batch", "3").startswith(
                        "features: row-sparse (nnz/size 0.9")
        # No resident operand: PyG re-materialises X, GIN aggregates it.
        assert line("--dataset", "cora", "--scale", "0.1", "--framework",
                    "pyg") == \
            "features: dense (X is re-materialised on every run)"
        assert line("--dataset", "cora", "--scale", "0.1", "--model",
                    "gin") == "features: dense (no sgemm reads X)"
