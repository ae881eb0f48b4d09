"""Exception hierarchy for the gSuite reproduction.

Every error raised intentionally by this package derives from
:class:`GSuiteError`, so callers can catch package failures with a single
``except`` clause while letting programming errors (``TypeError`` from
misuse of NumPy, etc.) propagate unchanged.
"""

from __future__ import annotations


class GSuiteError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphFormatError(GSuiteError):
    """A graph container was constructed from inconsistent arrays."""


class ConversionError(GSuiteError):
    """A graph-format conversion was requested that cannot be performed."""


class DatasetError(GSuiteError):
    """A dataset name is unknown or a generator was misconfigured."""


class KernelError(GSuiteError):
    """A core kernel received arguments with incompatible shapes/dtypes."""


class ModelError(GSuiteError):
    """A GNN model was built or invoked with invalid configuration."""


class ConfigError(GSuiteError):
    """The suite configuration contains an unknown key or a bad value."""


class BackendError(GSuiteError):
    """A framework backend is unknown or does not support the request."""


class SimulationError(GSuiteError):
    """The GPU simulator was configured or driven inconsistently."""


class PlanError(GSuiteError):
    """An execution plan is malformed or was executed with bad bindings."""


class CalibrationError(GSuiteError):
    """A cost profile could not be loaded or holds an invalid constant."""


class CacheIntegrityError(GSuiteError):
    """A persistent cache entry failed its checksum and cannot be isolated."""


class ServeError(GSuiteError):
    """An inference-service request is malformed or cannot be served."""
