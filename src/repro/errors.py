"""Exception hierarchy for the repro package.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch package failures with a single ``except`` clause while
letting programming errors (``TypeError`` etc.) propagate.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent state."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class ResourceError(ReproError):
    """A resource request could not be satisfied (e.g. unknown resource)."""


class ProcessCrash(ReproError):
    """A simulated process died abnormally.

    The engine catches this class when it escapes a process body and
    records the process as KILLED instead of aborting the simulation —
    the simulated analogue of a crashing application.
    """


class OutOfMemoryError(ResourceError, ProcessCrash):
    """A node ran out of physical memory; the allocating process is killed.

    Mirrors the behaviour reported in the paper: Voltrino has no swap and
    processes are killed when the node's memory is exhausted.
    """

    def __init__(self, node: str, requested: float, available: float):
        self.node = node
        self.requested = requested
        self.available = available
        super().__init__(
            f"node {node!r}: requested {requested:.0f} B "
            f"with only {available:.0f} B free (no swap; process killed)"
        )


class ProcessKilled(ReproError):
    """Raised inside a simulated process when the engine terminates it."""


class SchedulingError(ReproError):
    """A job could not be scheduled/allocated."""


class FaultError(ReproError):
    """Invalid fault-injection configuration or usage (repro.faults)."""


class MPITimeoutError(ProcessCrash):
    """A collective operation exceeded its timeout (abort semantics)."""


class AnomalyError(ReproError):
    """Invalid anomaly configuration or usage."""


class ObservabilityError(ReproError):
    """Invalid use of the span/trace/manifest layer (repro.obs)."""


class CheckError(ReproError):
    """A runtime invariant or differential oracle was violated (repro.check)."""


class TraceError(ReproError):
    """Invalid use of the trace layer (repro.traces)."""


class TraceFormatError(TraceError):
    """A trace file or record violates the canonical JSONL schema."""


class ServiceError(ReproError):
    """Invalid use of the job-service layer (repro.service / repro.api)."""


class QuotaError(ServiceError):
    """A client exceeded its per-client active-job quota."""


class JobNotFound(ServiceError):
    """The referenced job id is unknown to the queue."""
