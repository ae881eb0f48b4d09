"""Tests for the CostProfile subsystem.

Three contracts:

* **Persistence** — profiles round-trip through JSON exactly; wrong
  schema versions, unknown fields and invalid constants *refuse* to
  load (a stale or hand-mangled profile must never silently steer the
  planner).
* **Resolution** — planner constants have exactly two sources, the
  ``"paper"`` selector and an explicitly passed file; nothing ambient
  (environment, host name, working directory) is consulted.
* **Paper parity** — the default profile is the paper's static
  constants bit-for-bit: every gate decision with ``profile=None`` is
  identical to an explicit :meth:`CostProfile.paper`, across the same
  dataset grid the planner acceptance tests pin.
"""

import json

import pytest

from repro.datasets import get_spec
from repro.errors import CalibrationError
from repro.plan import (
    CostProfile,
    GraphStats,
    choose_batching,
    choose_formats,
    explain_choice,
    resolve_cost_profile,
)
from repro.plan.planner import (
    mp_layer_cost,
    spmm_layer_cost,
    spmm_setup_cost,
)

#: Mirrors tests/plan/test_planner.py — the decisions the paper profile
#: must keep making.
EXPECTED = {
    "cora": "MP",
    "citeseer": "MP",
    "pubmed": "MP",
    "reddit": "SpMM",
    "livejournal": "SpMM",
}


def _dims(spec):
    return [(spec.feature_length, 16), (16, spec.num_classes)]


class TestProfilePersistence:
    def test_round_trip(self, tmp_path):
        profile = CostProfile.paper().with_overrides(
            name="hand-edited", gather_unit=0.123, max_auto_batch=8)
        path = tmp_path / "profile.json"
        profile.save(path)
        loaded = CostProfile.load(path)
        assert loaded == profile
        assert loaded.gather_unit == 0.123
        assert loaded.max_auto_batch == 8
        assert loaded.name == "hand-edited"

    def test_version_mismatch_refused(self, tmp_path):
        payload = CostProfile.paper().to_dict()
        payload["schema"] = 99
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CalibrationError, match="schema"):
            CostProfile.load(path)

    def test_unknown_field_refused(self, tmp_path):
        payload = CostProfile.paper().to_dict()
        payload["profile"]["warp_tax"] = 1.0
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CalibrationError):
            CostProfile.load(path)

    @pytest.mark.parametrize("schema,extra", [
        (3, None),
        (4, None),
        (4, "fuse_partition_unit"),
        (4, "launch_overhead"),
        (4, "fuse_stream_block_bytes"),
        (5, "shard_setup_instructions"),
    ])
    def test_removed_fusion_constants_refused(self, tmp_path, schema,
                                              extra):
        """A file of an older schema is refused by the version check; a
        schema-5 file still carrying a removed constant by the
        unknown-field one."""
        payload = CostProfile.paper().to_dict()
        assert payload["schema"] == 5 and len(payload["profile"]) == 10
        payload["schema"] = schema
        if extra is not None:
            payload["profile"][extra] = 1
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CalibrationError,
                           match=extra if schema == 5
                           else f"schema version {schema}"):
            CostProfile.load(path)

    def test_missing_field_refused(self, tmp_path):
        payload = CostProfile.paper().to_dict()
        del payload["profile"]["gather_unit"]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CalibrationError):
            CostProfile.load(path)

    def test_invalid_constant_refused(self):
        with pytest.raises(CalibrationError):
            CostProfile.paper().with_overrides(gather_unit=-1.0)

    @pytest.mark.parametrize("field,value", [
        ("spmm_unit", float("nan")),
        ("gather_unit", float("inf")),
        ("scatter_unit", True),
        ("contention_weight", "7"),
        ("max_auto_batch", 2.5),
    ])
    def test_unpriceable_constant_refused(self, tmp_path, field, value):
        """Every comparison against NaN is false, so a NaN unit used to
        load cleanly and flip adaptive reddit from [MP, SpMM] to
        [MP, MP]; the file boundary now names the field and the file."""
        payload = CostProfile.paper().to_dict()
        payload["profile"][field] = value
        path = tmp_path / "mangled.json"
        path.write_text(json.dumps(payload))    # NaN / Infinity / true
        with pytest.raises(CalibrationError) as excinfo:
            CostProfile.load(path)
        assert field in str(excinfo.value)
        assert str(path) in str(excinfo.value)

    def test_missing_file_refused(self, tmp_path):
        with pytest.raises(CalibrationError):
            CostProfile.load(tmp_path / "nope.json")


class TestResolution:
    def test_paper_selector(self):
        assert resolve_cost_profile("paper") == CostProfile.paper()

    def test_explicit_path(self, tmp_path):
        profile = CostProfile.paper().with_overrides(name="explicit")
        path = tmp_path / "p.json"
        profile.save(path)
        assert resolve_cost_profile(str(path)).name == "explicit"

    def test_ambient_profile_sources_are_ignored(self, tmp_path,
                                                 monkeypatch):
        """The removed lookups stay removed: a profile named by
        ``GSUITE_COST_PROFILE``, or saved where the host-default lookup
        (``$GSUITE_CALIBRATION_DIR/<host>-<arch>-V100-GPGPUSim.json``)
        used to find one, no longer steers a default-configured
        pipeline."""
        import platform

        from repro.core.config import SuiteConfig
        from repro.core.pipeline import GNNPipeline
        perturbed = CostProfile.paper().with_overrides(
            name="ambient", scatter_unit=1e6)
        node = platform.node().split(".")[0] or "unknown-host"
        host = "".join(ch if ch.isalnum() or ch in "-_" else "-"
                       for ch in node.lower())
        perturbed.save(tmp_path / "calib" / f"{host}-"
                       f"{platform.machine() or 'any'}-V100-GPGPUSim.json")
        monkeypatch.setenv("GSUITE_CALIBRATION_DIR", str(tmp_path / "calib"))
        monkeypatch.setenv("GSUITE_COST_PROFILE",
                           str(perturbed.save(tmp_path / "env.json")))
        assert GNNPipeline(SuiteConfig()).cost_profile() == \
            CostProfile.paper()


class TestPaperParity:
    """``profile=None`` must be bit-identical to an explicit paper()."""

    PAPER = CostProfile.paper()

    @pytest.mark.parametrize("dataset", sorted(EXPECTED))
    def test_gate_decisions_identical(self, dataset):
        spec = get_spec(dataset)
        stats = GraphStats.from_spec(spec)
        dims = _dims(spec)
        assert choose_formats(dims, stats) == \
            choose_formats(dims, stats, profile=self.PAPER)
        assert choose_batching(8, dims, stats) == \
            choose_batching(8, dims, stats, profile=self.PAPER)
        assert explain_choice(dims, stats) == \
            explain_choice(dims, stats, profile=self.PAPER)

    @pytest.mark.parametrize("dataset", sorted(EXPECTED))
    def test_costs_identical(self, dataset):
        stats = GraphStats.from_spec(get_spec(dataset))
        for width in (4, 64, 1433):
            assert mp_layer_cost(stats, width) == \
                mp_layer_cost(stats, width, profile=self.PAPER)
            assert spmm_layer_cost(stats, width) == \
                spmm_layer_cost(stats, width, profile=self.PAPER)
        assert spmm_setup_cost(stats) == \
            spmm_setup_cost(stats, profile=self.PAPER)

    @pytest.mark.parametrize("dataset,expected", sorted(EXPECTED.items()))
    def test_paper_decisions_pinned(self, dataset, expected):
        # The acceptance decisions themselves, under the default profile.
        spec = get_spec(dataset)
        formats = choose_formats(_dims(spec), GraphStats.from_spec(spec))
        assert formats == (expected, expected)

    def test_perturbed_profile_flips_a_decision(self):
        # The profile parameter is live: pricing scatter traffic three
        # orders of magnitude higher must push a citation graph to SpMM.
        spec = get_spec("cora")
        stats = GraphStats.from_spec(spec)
        expensive_mp = self.PAPER.with_overrides(
            name="perturbed", scatter_unit=self.PAPER.scatter_unit * 1e3)
        assert choose_formats(_dims(spec), stats) == ("MP", "MP")
        assert set(choose_formats(_dims(spec), stats,
                                  profile=expensive_mp)) == {"SpMM"}
