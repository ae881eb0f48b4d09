"""Tests for SuiteConfig (defaults file + user-parameter overrides)."""

import json

import pytest

from repro.core.config import DEFAULTS, KNOBS, SuiteConfig
from repro.errors import ConfigError


class TestDefaults:
    def test_shipped_defaults(self):
        assert DEFAULTS.dataset == "cora"
        assert DEFAULTS.model == "gcn"
        assert DEFAULTS.compute_model == "MP"
        assert DEFAULTS.framework == "gsuite"
        assert DEFAULTS.repeats == 3  # paper: three runs, mean reported

    def test_partial_overrides(self):
        cfg = SuiteConfig(model="gin", dataset="reddit")
        assert cfg.model == "gin"
        assert cfg.num_layers == DEFAULTS.num_layers


class TestValidation:
    @pytest.mark.parametrize("bad", [
        {"num_layers": 0},
        {"hidden": 0},
        {"out_features": 0},
        {"scale": 0.0},
        {"scale": 1.5},
        {"repeats": 0},
        {"sample_cap": 0},
        {"compute_model": "TPU"},
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            SuiteConfig(**bad)

    @pytest.mark.parametrize("payload", [
        '{"hidden": null}', '{"scale": "0.5"}', '{"batch": Infinity}',
        '{"hidden": 16.5}', '{"seed": "x"}', '{"dataset": 5}',
        '{"hidden": true}', '{"scale": NaN}', '{"out_features": 7.5}',
        '{"repeats": Infinity}', '{"seed": -1}', '{"serve_batch": -Infinity}',
    ])
    def test_mistyped_file_fields_refused(self, tmp_path, payload):
        """Whatever type a JSON config holds, a bad field refuses with
        ConfigError when the config is built, never later in a run."""
        path = tmp_path / "bad.json"
        path.write_text(payload)
        with pytest.raises(ConfigError):
            SuiteConfig.from_file(path)

    @pytest.mark.parametrize("payload", [
        {"hidden": 10 ** 400}, {"scale": 10 ** 400}, {"seed": 10 ** 400},
        {"seed": 2 ** 63}, {"hidden": 1e300}, {"batch": 10 ** 400},
        {"serve_batch": 2 ** 63},
    ])
    def test_integers_past_int64_refused(self, payload):
        """An integer too large for a float used to escape
        ``math.isfinite`` as an ``OverflowError``."""
        with pytest.raises(ConfigError, match="int64"):
            SuiteConfig(**payload)

    def test_int64_bounds_accepted(self):
        assert SuiteConfig(seed=2 ** 63 - 1).seed == 2 ** 63 - 1

    def test_integral_numbers_coerce(self):
        cfg = SuiteConfig(hidden=16.0, scale=1, out_features=7.0)
        assert (cfg.hidden, cfg.scale, cfg.out_features) == (16, 1.0, 7)
        assert type(cfg.hidden) is int and type(cfg.scale) is float

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError) as err:
            SuiteConfig.from_dict({"modle": "gcn"})
        assert "modle" in str(err.value)

    @pytest.mark.parametrize("params", [
        [], 1, None, "x", ("model", "gcn"), [("model", "gcn")], 1.5,
        {1: "gcn", "modle": "gcn"},
    ])
    def test_from_dict_refuses_non_mappings(self, params):
        """Anything but a mapping of field names is a ConfigError, never
        a bare TypeError (a non-string key included)."""
        with pytest.raises(ConfigError):
            SuiteConfig.from_dict(params)

    @pytest.mark.parametrize("key,value", [
        ("shards", 2), ("partitioner", "rows"), ("jobs", 2),
        ("task_timeout", 1.0), ("faults", "worker_crash"),
    ])
    def test_removed_sharding_keys_refused(self, tmp_path, key, value):
        """The plan-sharding knobs and the ``faults`` spec are gone: a
        dict or a config file still carrying one is refused by name, not
        silently ignored."""
        with pytest.raises(ConfigError, match=key):
            SuiteConfig.from_dict({key: value})
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"model": "gcn", key: value}))
        with pytest.raises(ConfigError, match=key):
            SuiteConfig.from_file(path)

    def test_with_overrides_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            DEFAULTS.with_overrides(depth=3)


class TestFileRoundTrip:
    def test_save_and_load(self, tmp_path):
        cfg = SuiteConfig(model="sage", dataset="pubmed", num_layers=3)
        path = tmp_path / "config.json"
        cfg.save(path)
        loaded = SuiteConfig.from_file(path)
        assert loaded == cfg

    def test_file_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        SuiteConfig(model="gcn").save(path)
        loaded = SuiteConfig.from_file(path, model="gin")
        assert loaded.model == "gin"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            SuiteConfig.from_file(tmp_path / "absent.json")

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(ConfigError):
            SuiteConfig.from_file(path)

    def test_integer_past_int_parse_limit(self, tmp_path):
        """``json.loads`` refuses a 5000-digit integer with a plain
        ``ValueError``, not a ``JSONDecodeError``."""
        path = tmp_path / "long.json"
        path.write_text('{"seed": %s}' % ("9" * 5000))
        with pytest.raises(ConfigError, match="cannot load config"):
            SuiteConfig.from_file(path)

    def test_non_object_file(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1, 2]))
        with pytest.raises(ConfigError):
            SuiteConfig.from_file(path)


class TestImmutability:
    def test_with_overrides_returns_new(self):
        cfg = SuiteConfig()
        other = cfg.with_overrides(model="gin")
        assert cfg.model == "gcn"
        assert other.model == "gin"

    def test_to_dict_round_trips(self):
        cfg = SuiteConfig(model="gin", scale=0.5)
        assert SuiteConfig.from_dict(cfg.to_dict()) == cfg


class TestKnobs:
    """The shared knob vocabulary (fuse / batch / serve_batch)."""

    def test_registry_covers_the_plan_knobs(self):
        assert set(KNOBS) == {"fuse", "batch", "serve_batch"}

    @pytest.mark.parametrize("name,auto,off", [
        ("batch", 0, 1),
        ("serve_batch", 0, 1),
        ("fuse", "auto", "off"),
    ])
    def test_uniform_auto_off_vocabulary(self, name, auto, off):
        knob = KNOBS[name]
        assert knob.parse("auto") == auto
        assert knob.parse("AUTO") == auto       # case-insensitive
        assert knob.parse("off") == off

    def test_integer_knobs_accept_ints_and_digit_strings(self):
        assert KNOBS["serve_batch"].parse(4) == 4
        assert KNOBS["serve_batch"].parse("4") == 4
        assert KNOBS["batch"].parse(16) == 16
        assert KNOBS["batch"].parse(16.0) == 16  # integral float ok

    def test_fuse_is_auto_or_off_only(self):
        assert KNOBS["fuse"].vocabulary() == "'auto' or 'off'"
        with pytest.raises(ConfigError):
            KNOBS["fuse"].parse(2)              # fuse takes no integer

    @pytest.mark.parametrize("name,bad", [
        ("serve_batch", "some"), ("serve_batch", 2.5),
        ("serve_batch", True), ("batch", "many"), ("batch", False),
        ("fuse", "maybe"), ("fuse", "force"),
    ])
    def test_uniform_refusal(self, name, bad):
        knob = KNOBS[name]
        with pytest.raises(ConfigError) as err:
            knob.parse(bad)
        assert str(err.value) == \
            f"{name} must be {knob.vocabulary()}, got {bad!r}"

    @pytest.mark.parametrize("name", ["serve_batch", "batch"])
    def test_below_minimum_refused_with_range_message(self, name):
        with pytest.raises(ConfigError, match="must be >= 0"):
            KNOBS[name].parse(-1)

    def test_parse_batch_is_the_batch_knob(self):
        parse = KNOBS["batch"].parse
        assert parse("auto") == 0
        assert parse("off") == 1
        assert parse(3) == 3

    def test_config_fields_parse_through_knobs(self):
        cfg = SuiteConfig(serve_batch="auto", fuse="OFF", batch="off")
        assert cfg.serve_batch == 0
        assert cfg.fuse == "off"
        assert cfg.batch == 1

    def test_profile_costs_field(self):
        """A vestige: ``"paper"`` is accepted (older configs name it),
        anything else — a profile path included — is refused."""
        assert SuiteConfig().profile_costs == "paper"
        assert SuiteConfig(profile_costs="paper").profile_costs == "paper"
        for bad in ("p.json", "", "Paper", None):
            with pytest.raises(ConfigError, match="constants are fixed"):
                SuiteConfig(profile_costs=bad)
