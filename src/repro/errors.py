"""Exception hierarchy for the SPCD reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """A component was constructed with invalid parameters."""


class TopologyError(ConfigurationError):
    """A machine topology is malformed (e.g. non-uniform children)."""


class AddressError(ReproError):
    """A virtual or physical address is out of range or misaligned."""


class PageFaultError(ReproError):
    """The fault pipeline was driven in an inconsistent way."""


class SchedulerError(ReproError):
    """Scheduler state was violated (e.g. migrating an unknown task)."""


class MappingError(ReproError):
    """The mapping algorithm received an unsolvable instance."""


class MatchingError(MappingError):
    """A perfect matching does not exist or the matcher failed."""


class WorkloadError(ReproError):
    """A workload generator was misconfigured."""


class SimulationError(ReproError):
    """The execution engine reached an inconsistent state."""


class ServeError(ReproError):
    """The mapping service or its client reached an inconsistent state."""


class ProtocolError(ServeError):
    """A malformed or out-of-sequence frame arrived on a serve connection."""


class AdmissionError(ServeError):
    """The server refused a session (capacity or per-tenant memory caps).

    Carries the machine-readable refusal ``code`` the server sent
    (``draining``, ``at-capacity``, ``too-large``, ``bad-hello``).
    """

    def __init__(self, message: str, code: str = "refused") -> None:
        super().__init__(message)
        self.code = code


class GridExecutionError(SimulationError):
    """A strict-mode grid sweep had cells that produced no result.

    Carries the typed failure records so callers can inspect exactly which
    cells failed and why.
    """

    def __init__(self, message: str, failures: "list | None" = None) -> None:
        super().__init__(message)
        #: the sweep's :class:`~repro.engine.gridrunner.CellFailure` records
        self.failures = list(failures or [])
