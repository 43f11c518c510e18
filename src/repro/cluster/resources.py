"""Multi-dimensional resource vectors.

Rubick schedules three resource types per job — GPUs, CPUs and host memory
(paper §5.2) — plus it reasons about network bandwidth through the performance
model.  :class:`ResourceVector` is the common currency passed between the
scheduler, the cluster substrate and the memory estimator.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=False)
class ResourceVector:
    """An amount of (GPU, CPU, host-memory) resources.

    Every dimension is an integer count: GPUs, CPUs and bytes of host
    memory (rounded up where a memory estimate is born), so sums are exact
    in any order.  The vector is immutable — arithmetic returns new
    vectors — so allocations can be shared safely across scheduler
    snapshots.

    Vectors may be *negative*: scheduling math uses them as deltas and
    deficits.  Non-negativity is an allocation-boundary invariant, enforced
    where vectors meet capacity (``Node.allocate``); use
    :meth:`require_non_negative` to assert it explicitly.
    """

    gpus: int = 0
    cpus: int = 0
    host_mem: int = 0

    def require_non_negative(self) -> "ResourceVector":
        """Assert every dimension is >= 0 (allocation-boundary invariant)."""
        if self.gpus < 0 or self.cpus < 0 or self.host_mem < 0:
            raise ValueError(f"resource amounts must be non-negative: {self}")
        return self

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.gpus + other.gpus,
            self.cpus + other.cpus,
            self.host_mem + other.host_mem,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.gpus - other.gpus,
            self.cpus - other.cpus,
            self.host_mem - other.host_mem,
        )

    # ------------------------------------------------------------------
    # Comparisons (componentwise partial order)
    # ------------------------------------------------------------------
    def fits_within(self, other: "ResourceVector") -> bool:
        """True iff every dimension of ``self`` is <= the same dimension of ``other``."""
        return (
            self.gpus <= other.gpus
            and self.cpus <= other.cpus
            and self.host_mem <= other.host_mem
        )

    def dominates(self, other: "ResourceVector") -> bool:
        """True iff every dimension of ``self`` is >= that of ``other``."""
        return other.fits_within(self)

    @property
    def is_zero(self) -> bool:
        return self.gpus == 0 and self.cpus == 0 and self.host_mem == 0

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @staticmethod
    def zero() -> "ResourceVector":
        # Immutable, so one shared instance serves every caller; zero() is
        # on the scheduler's per-round hot path (share defaults, fold seeds).
        return _ZERO

    def __repr__(self) -> str:  # compact, log-friendly
        from repro.units import fmt_bytes

        return (
            f"Res(gpu={self.gpus}, cpu={self.cpus}, mem={fmt_bytes(self.host_mem)})"
        )


_ZERO = ResourceVector(0, 0, 0)
