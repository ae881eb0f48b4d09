"""Suite configuration — the paper's default-parameter file + user overrides.

gSuite's interface "does not require the end user to pass all the
parameters ... there is a configuration file that includes all these
settings as default parameters, where these default parameters take
action when a parameter value is not specified by the user."

:class:`SuiteConfig` is that mechanism: construct it with any subset of
keyword overrides (everything else defaults), or load a JSON file with
:meth:`SuiteConfig.from_file` and override on top.
"""

from __future__ import annotations

import json
import numbers
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any, Optional

from repro.errors import ConfigError

__all__ = ["SuiteConfig", "DEFAULTS", "KNOBS", "Knob"]

#: The int64 range every integer field must fit: a JSON integer can be
#: arbitrarily long, and one past it overflows the first float or NumPy
#: conversion that meets it.
INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1


@dataclass(frozen=True)
class Knob:
    """One tri-state pipeline knob with the shared vocabulary.

    Every plan-level knob (``fuse``, ``batch``, ``serve_batch``) answers
    the same three-way question — *planner decides* / *feature off* /
    *explicit value* — and historically each grew its own parser with
    its own spellings and error text.  A ``Knob`` is the one shared
    parser: ``"auto"`` maps to :attr:`auto` (planner decides),
    ``"off"`` maps to :attr:`off` (feature disabled), and — when
    :attr:`integer` — plain integers pass through (``batch 0/1/B`` stay
    valid, so existing configs never break).
    Everything else refuses with one uniform
    :class:`~repro.errors.ConfigError` shape.
    """

    name: str
    auto: Any                 # canonical value "auto" parses to
    off: Any                  # canonical value "off" parses to
    integer: bool = True      # whether plain integers are accepted
    minimum: int = 0          # smallest accepted integer

    def vocabulary(self) -> str:
        """The accepted spellings, rendered for error messages."""
        options = ["'auto'", "'off'"]
        if self.integer:
            options.append("an integer")
        return ", ".join(options[:-1]) + f" or {options[-1]}"

    def _refuse(self, value) -> ConfigError:
        return ConfigError(
            f"{self.name} must be {self.vocabulary()}, got {value!r}")

    def parse(self, value):
        """Parse one knob value, refusing anything off-vocabulary."""
        if isinstance(value, bool):
            # bool is an int subclass: {"batch": false} would silently
            # coerce to 0 = planner auto — the opposite of the likely
            # intent.  Demand the explicit vocabulary instead.
            raise self._refuse(value)
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered == "auto":
                return self.auto
            if lowered == "off":
                return self.off
            if not self.integer:
                raise self._refuse(value)
        elif not self.integer:
            raise self._refuse(value)
        try:
            coerced = int(value)
        except (TypeError, ValueError, OverflowError):  # inf overflows
            raise self._refuse(value) from None
        if not isinstance(value, str) and coerced != value:
            raise self._refuse(value)  # non-integral number, e.g. 4.5
        if coerced > INT64_MAX:
            raise ConfigError(
                f"{self.name} must be within the int64 range, got {value!r}")
        if coerced < self.minimum:
            raise ConfigError(
                f"{self.name} must be >= {self.minimum} "
                f"({self.auto!r} = planner decides), got {value!r}")
        return coerced


#: The plan-level knobs, one vocabulary each.  ``batch`` and
#: ``serve_batch`` canonicalise to the historical integer encoding (0 =
#: planner auto, 1 = off, B >= 2 explicit); ``fuse`` has no explicit
#: third value (``"auto"`` fuses every legal site).
KNOBS = {
    "fuse": Knob("fuse", auto="auto", off="off", integer=False),
    "batch": Knob("batch", auto=0, off=1),
    "serve_batch": Knob("serve_batch", auto=0, off=1),
}


@dataclass(frozen=True)
class SuiteConfig:
    """All knobs of one benchmark pipeline.

    Attributes mirror the user parameters of Fig. 1: dataset, GNN model,
    computational model, framework, number of layers — plus the
    reproduction-specific knobs (dataset scale, trace sample cap).
    """

    dataset: str = "cora"
    model: str = "gcn"
    compute_model: str = "MP"
    framework: str = "gsuite"     # "none"/"gsuite", "pyg", "dgl"
    num_layers: int = 2
    hidden: int = 16
    out_features: Optional[int] = None   # None -> dataset's class count
    activation: str = "relu"
    seed: int = 0
    scale: float = 1.0            # dataset down-scaling for CI-sized runs
    repeats: int = 3              # paper: "run three times; mean collected"
    sample_cap: int = 1_000_000   # memory-trace sampling budget
    fuse: str = "auto"            # plan fusion: "auto" = every legal
                                  # site, "off" = never (--no-fuse)
    batch: int = 1                # batched multi-graph plans: 0 = planner
                                  # decides the packed sweep width ("auto"),
                                  # 1 = single-graph ("off"), B >= 2 = pack
                                  # B seed-variant graphs into one plan
    profile_costs: str = "paper"  # vestigial: the planner's constants
                                  # are fixed, so "paper" is the only
                                  # accepted value
    serve_batch: int = 0          # serving micro-batcher: 0 = planner
                                  # decides the batch size ("auto",
                                  # choose_batching budgets), 1 = off
                                  # (every request executes solo),
                                  # N >= 2 additionally caps batches
                                  # at N members

    def __post_init__(self):
        # A JSON config can put any type in any field: refuse a mistyped
        # one here, before a comparison below or a kernel later meets it
        # (JSON true is an int to Python, so bools refuse by name).
        for name in ("dataset", "model", "compute_model", "framework",
                     "activation"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(
                    f"{name} must be a string, got {getattr(self, name)!r}")
        for name in ("num_layers", "hidden", "out_features", "seed",
                     "repeats", "sample_cap", "scale"):
            value, integer = getattr(self, name), name != "scale"
            if value is None and name == "out_features":
                continue
            # Exact comparison, no float conversion: a JSON integer past
            # int64 would overflow math.isfinite, and NaN / inf fail it.
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not INT64_MIN <= value <= INT64_MAX
                    or (integer and value != int(value))):
                raise ConfigError(f"{name} must be "
                                  f"{'an integer' if integer else 'finite'}"
                                  f" within the int64 range, got {value!r}")
            object.__setattr__(self, name,
                               int(value) if integer else float(value))
        if self.num_layers < 1:
            raise ConfigError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.hidden < 1:
            raise ConfigError(f"hidden must be >= 1, got {self.hidden}")
        if self.out_features is not None and self.out_features < 1:
            raise ConfigError(
                f"out_features must be >= 1, got {self.out_features}"
            )
        if not 0.0 < self.scale <= 1.0:
            raise ConfigError(f"scale must be in (0, 1], got {self.scale}")
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")
        if self.sample_cap < 1:
            raise ConfigError(f"sample_cap must be >= 1, got {self.sample_cap}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # Config files may use the CLI's vocabulary ("auto"/"off")
        # directly; numbers coerce to int (non-integral ones refuse).
        # One shared parser per knob keeps spellings and errors uniform.
        for name, knob in KNOBS.items():
            object.__setattr__(self, name, knob.parse(getattr(self, name)))
        if self.compute_model not in ("MP", "SpMM"):
            raise ConfigError(
                f"compute_model must be 'MP' or 'SpMM', got {self.compute_model!r}"
            )
        if self.profile_costs != "paper":
            raise ConfigError(
                f"profile_costs must be 'paper': the planner's cost "
                f"constants are fixed, got {self.profile_costs!r}"
            )

    # -- construction helpers ----------------------------------------------
    @classmethod
    def from_dict(cls, params: dict) -> "SuiteConfig":
        """Build a config from a parameter dict, rejecting unknown keys."""
        if not isinstance(params, Mapping):
            raise ConfigError(
                f"configuration must be a mapping, got "
                f"{type(params).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(params) - known
        if unknown:
            raise ConfigError(
                f"unknown configuration keys: {sorted(unknown, key=repr)}; "
                f"known: {sorted(known)}"
            )
        return cls(**params)

    @classmethod
    def from_file(cls, path, **overrides) -> "SuiteConfig":
        """Load defaults from a JSON file, then apply overrides."""
        path = Path(path)
        try:
            params = json.loads(path.read_text())
        except (OSError, ValueError) as exc:  # JSONDecodeError included
            raise ConfigError(f"cannot load config {path}: {exc}") from exc
        if not isinstance(params, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        params.update(overrides)
        return cls.from_dict(params)

    def with_overrides(self, **overrides) -> "SuiteConfig":
        """A copy of this config with some fields replaced."""
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
        return replace(self, **overrides)

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-serialisable)."""
        return asdict(self)

    def save(self, path) -> None:
        """Write this config as JSON (round-trips with from_file)."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


#: The shipped defaults (equivalent of gSuite's default config file).
DEFAULTS = SuiteConfig()
