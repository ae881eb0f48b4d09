"""Planner cost profiles: the constants every ``choose_*`` gate prices with.

The planner's decision procedures (:mod:`repro.plan.planner`) compare
modelled costs built from a handful of constants — per-kernel
instructions per unit of logical work, the SpMM row-traversal overhead,
the scatter contention weight, and the cache/footprint budgets that
gate batching.  Those numbers used to live as module
globals tuned once against the paper's Fig. 5 mixes and one host;
:class:`CostProfile` packages them into an explicit, versioned value
that is

* **constructed** from the paper's static mixes
  (:meth:`CostProfile.paper` — bit-for-bit the historical globals, so
  every pre-profile planner decision is unchanged under the default)
  or derived from them (:meth:`CostProfile.with_overrides`);
* **persisted** as JSON (:meth:`CostProfile.save` / ``load``) with a
  schema version that refuses to load profiles written for an
  incompatible planner, and a boundary check that refuses constants
  no gate can price with (non-finite, boolean, non-numeric);
* **resolved** once per pipeline (:func:`resolve_cost_profile`) from
  exactly two sources: the selector ``"paper"``, or the path of a
  profile file the user passed.  Nothing is looked up from the
  environment, the host name or the working directory.

Every planner entry point takes an optional ``profile``; ``None``
means :meth:`CostProfile.paper`.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any, Dict, Mapping, Union

from repro.core.kernels.costmodel import COSTS
from repro.errors import CalibrationError

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "CostProfile",
    "resolve_cost_profile",
]

#: Bump when :class:`CostProfile` gains/renames/drops fields — loading
#: refuses a mismatched version instead of silently misreading it.
#: Version 2 added the skew-aware partitioner constants
#: (``shard_skew_threshold``, ``shard_balance_unit``); version 3 dropped
#: the fit-provenance fields (``source``/``host``/``gpu``/``created``/
#: ``fit``) with the simulator fit that filled them; version 4 dropped
#: the three fusion constants with the fusion cost gate that read them;
#: version 5 dropped the three shard constants with plan sharding and
#: renamed ``shard_working_set_bytes`` to ``working_set_bytes``.
PROFILE_SCHEMA_VERSION = 5

#: Constants that must be integers (byte budgets and the batch ceiling).
_INTEGRAL = ("working_set_bytes", "batch_footprint_bytes",
             "max_auto_batch")


def _instructions_per_unit(kernel: str) -> float:
    cost = COSTS[kernel]
    return cost.fp32 + cost.int_ops + cost.ldst + cost.control + cost.other


@dataclass(frozen=True)
class CostProfile:
    """One complete set of planner cost constants.

    Kernel units are dynamic instructions per unit of logical work —
    only consistent *relative* magnitudes matter to the planner, since
    every gate compares modelled costs against each other.  Budgets are
    bytes on the executing host.
    """

    # -- per-kernel units (cost per element of logical work) --------------
    gather_unit: float
    scatter_unit: float
    spmm_unit: float
    spgemm_unit: float
    # -- cost-shape constants ---------------------------------------------
    row_overhead_nnz: float          # SpMM row startup, in nnz per row
    contention_weight: float         # scatter atomic-collision strength
    # -- batching ---------------------------------------------------------
    working_set_bytes: int           # packed message LLC residency target
    batch_footprint_bytes: int       # packed resident-state budget
    max_auto_batch: int              # planner-chosen batch ceiling
    # -- label (what ``PlannerDecisions.cost_profile`` records) -----------
    name: str = "paper"

    def __post_init__(self):
        for f in fields(self):
            if f.name == "name":
                continue
            value = getattr(self, f.name)
            integral = f.name in _INTEGRAL
            # Every comparison against NaN is false, so a non-finite
            # unit would pass the range check below and silently flip
            # planner decisions; bools and strings are not prices.
            if (isinstance(value, bool)
                    or not isinstance(value, int if integral
                                      else (int, float))
                    or not math.isfinite(value)):
                raise CalibrationError(
                    f"cost profile {self.name!r}: {f.name} must be "
                    f"{'an integer' if integral else 'a finite number'}, "
                    f"got {value!r}")
            # Budgets are >= 1 and prices >= 0; contention_weight is the
            # one constant that never carried a sign constraint.
            floor = 1 if integral else 0
            if value < floor and f.name != "contention_weight":
                raise CalibrationError(
                    f"cost profile {self.name!r}: {f.name} must be "
                    f">= {floor}, got {value}")

    # -- construction ------------------------------------------------------
    @classmethod
    def paper(cls) -> "CostProfile":
        """The static Fig. 5 constants — the historical module globals.

        Kernel units derive from :data:`repro.core.kernels.costmodel.COSTS`,
        so retuning those retunes this profile with them; everything else
        is the hand-set value each planner gate shipped with.  Decisions
        under this profile are bit-for-bit the pre-profile decisions
        (pinned in ``tests/plan/test_costprofile.py``).
        """
        return cls(
            gather_unit=_instructions_per_unit("indexSelect"),
            scatter_unit=_instructions_per_unit("scatter"),
            spmm_unit=_instructions_per_unit("spmm"),
            spgemm_unit=_instructions_per_unit("SpGEMM"),
            row_overhead_nnz=8.0,
            contention_weight=0.05,
            working_set_bytes=32 * 1024 * 1024,
            batch_footprint_bytes=1024 ** 3,
            max_auto_batch=64,
            name="paper",
        )

    # -- serialisation -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (round-trips with :meth:`from_dict`)."""
        return {"schema": PROFILE_SCHEMA_VERSION, "profile": asdict(self)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any],
                  origin: str = "profile") -> "CostProfile":
        """Rebuild a profile, refusing version or shape mismatches."""
        if not isinstance(payload, Mapping) or "profile" not in payload:
            raise CalibrationError(
                f"{origin}: not a cost-profile document (expected a JSON "
                f"object with 'schema' and 'profile' keys)")
        schema = payload.get("schema")
        if schema != PROFILE_SCHEMA_VERSION:
            raise CalibrationError(
                f"{origin}: schema version {schema!r} is not the supported "
                f"version {PROFILE_SCHEMA_VERSION}; re-save it from "
                f"CostProfile.paper().with_overrides(...) with this build")
        body = dict(payload["profile"])
        known = {f.name for f in fields(cls)}
        unknown = set(body) - known
        missing = {f.name for f in fields(cls)
                   if f.default is MISSING
                   and f.default_factory is MISSING} - set(body)
        if unknown:
            raise CalibrationError(
                f"{origin}: unknown cost-profile fields {sorted(unknown)}")
        if missing:
            raise CalibrationError(
                f"{origin}: missing cost-profile fields {sorted(missing)}")
        try:
            return cls(**body)
        except (TypeError, CalibrationError) as exc:
            raise CalibrationError(f"{origin}: {exc}") from exc

    def save(self, path: Union[str, Path]) -> Path:
        """Write this profile as JSON; returns the written path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2,
                                   sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CostProfile":
        """Load a profile file, refusing unreadable or mismatched ones."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CalibrationError(
                f"cannot load cost profile {path}: {exc}") from exc
        return cls.from_dict(payload, origin=str(path))

    # -- introspection -----------------------------------------------------
    def with_overrides(self, **overrides) -> "CostProfile":
        """A copy with some fields replaced (hand-edited profiles, the
        perturbed-profile tests)."""
        return replace(self, **overrides)

    def describe(self) -> str:
        """One-line summary for CLI output."""
        return (f"cost profile {self.name!r}: "
                f"units is={self.gather_unit:.3g} sc={self.scatter_unit:.3g} "
                f"sp={self.spmm_unit:.3g} sg={self.spgemm_unit:.3g}, "
                f"row-overhead {self.row_overhead_nnz:.3g} nnz, "
                f"working set {self.working_set_bytes / 2**20:.0f} MB, "
                f"footprint {self.batch_footprint_bytes / 2**30:.0f} GB, "
                f"batch <= {self.max_auto_batch}")


def resolve_cost_profile(selector: str) -> CostProfile:
    """The :class:`CostProfile` a ``--profile-costs`` /
    ``SuiteConfig.profile_costs`` value names: ``"paper"`` is the static
    built-in, anything else the path of a profile file (missing,
    mismatched or invalid files refuse with
    :class:`~repro.errors.CalibrationError`)."""
    selector = selector.strip()
    if selector.lower() == "paper":
        return CostProfile.paper()
    return CostProfile.load(selector)
