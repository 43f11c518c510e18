"""Exception hierarchy for the Rubick reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class InfeasiblePlanError(ReproError):
    """An execution plan violates a structural constraint.

    Examples: tensor-parallel degree does not divide the hidden size, pipeline
    stages do not divide the layer count, or the global batch cannot be split
    across the requested data-parallel ranks.
    """


class OutOfMemoryError(ReproError):
    """A plan's estimated memory footprint exceeds device or host capacity.

    Mirrors the OOM failures a real cluster would surface when launching a job
    with a plan that does not fit the allocated GPUs / host memory.
    """


class PlacementError(ReproError):
    """A placement request cannot be satisfied by the cluster topology."""


class FittingError(ReproError):
    """Performance-model fitting failed or was given insufficient samples."""


class WorkloadError(ReproError):
    """A workload scenario could not be resolved or built."""


class WorkloadConfigError(WorkloadError):
    """A workload configuration is invalid.

    Examples: a ``gpu_mix`` whose weights do not sum to ~1.0 (numpy would
    silently mis-sample after normalization), a mix whose every entry exceeds
    the cluster's total GPUs, or arrival-process knobs outside their domain.
    """


class TraceAdapterError(WorkloadError):
    """An external trace file or row could not be ingested.

    Carries the offending file and row so malformed inputs point at the
    exact line instead of failing deep inside trace construction.
    """


class SimulationError(ReproError):
    """The discrete-time simulator reached an inconsistent state.

    Carries the run's incident stream (when one exists) so a hard failure
    still surfaces every contained fault that preceded it — the sweep
    runner persists them in the quarantine record.
    """

    def __init__(self, message: str, *, incidents: tuple = ()):
        super().__init__(message)
        self.incidents = tuple(incidents)


class ClusterDynamicsError(ReproError):
    """A cluster-dynamics profile or event stream is invalid.

    Examples: an unknown dynamics profile name, a ``fail`` event without a
    node id, a ``recover`` event for a node that was never part of the
    cluster, or a malformed ``file:<path>`` event document.
    """


class FaultPlanError(ReproError):
    """A fault plan is invalid or cannot be resolved.

    Examples: an unknown plan or seam name, a rule with non-positive
    occurrence indices, or a malformed ``file:<path>`` plan document.
    """


class InjectedFault(ReproError):
    """A failure raised on purpose by the fault-injection harness.

    Deterministic by construction: the message is a pure function of
    (plan, seam, occurrence), so quarantine records and incident streams
    built from injected faults are byte-stable across invocations.
    """

    def __init__(self, message: str, *, seam: str = "", occurrence: int = 0):
        super().__init__(message)
        self.seam = seam
        self.occurrence = occurrence


class InjectedCrash(InjectedFault):
    """An injected mid-run worker death (the ``worker-crash`` seam)."""


class InjectedHang(InjectedFault):
    """An injected worker hang (the ``worker-hang`` seam).

    Raised in place of an actual indefinite sleep so chaos tests stay
    fast; the sweep runner classifies it exactly like a run timeout.
    """


class RunTimeoutError(ReproError):
    """A sweep run exceeded its per-run wall-clock budget."""


class CorruptRunRecordError(ReproError):
    """A persisted run record is unreadable (truncated line, bad JSON,
    or format-version drift).

    The message deliberately names only the run key, never the absolute
    path: it ends up in quarantine records, which must be byte-identical
    across output directories.
    """

    def __init__(self, message: str, *, run_key: str = ""):
        super().__init__(message)
        self.run_key = run_key


class ProtocolError(ReproError):
    """A scheduling-service frame violated the wire protocol.

    Examples: a frame longer than the size guard, a payload that is not a
    JSON object, an unknown frame type, or a deterministic-mode submission
    behind the session clock.  The master replies with an ERROR frame and
    keeps serving; the decoder raises it for unrecoverable stream damage.
    """
