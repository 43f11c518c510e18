"""Pluggable arrival processes for synthetic workload generation.

The paper's trace uses one arrival shape — a uniform background with two
submission peaks over a 12-hour window (§7.3).  This module generalizes the
*when do jobs arrive* axis into frozen, composable process configs that the
generator (``repro.sim.workload.generate_trace``) samples through a single
``sample(rng, num_jobs, span)`` contract:

* :class:`UniformPeaksArrivals` — the paper's shape (the default instance is
  draw-for-draw identical to the pre-subsystem generator, so the default
  scenario's traces are byte-identical);
* :class:`PoissonArrivals` — memoryless arrivals at the same average rate;
* :class:`MarkovModulatedArrivals` — bursty MMPP-2 arrivals flip-flopping
  between a calm and a burst state;
* :class:`DiurnalArrivals` — day/night (and optionally weekday/weekend)
  submission rhythm over multi-day windows, sampled by thinning.

Every process is deterministic in the generator's RNG stream and returns a
sorted list of floats.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import ClassVar

from repro.errors import WorkloadConfigError
from repro.units import DAY, HOUR, MINUTE


@dataclass(frozen=True)
class ArrivalProcess:
    """Base class: a deterministic sampler of job submission times."""

    #: Name of the concrete process (shown by ``repro workload show``).
    kind: ClassVar[str] = "abstract"

    def sample(self, rng, num_jobs: int, span: float) -> list[float]:
        """Sorted submission times for ``num_jobs`` jobs over ``span``.

        ``rng`` is the generator's shared stream: a process must consume it
        deterministically (same rng state → same times, bit for bit).
        """
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human summary for CLI listings."""
        fields = ", ".join(
            f"{name}={value!r}" for name, value in asdict(self).items()
        )
        return f"{self.kind}({fields})"


@dataclass(frozen=True)
class UniformPeaksArrivals(ArrivalProcess):
    """Uniform background plus Gaussian submission peaks (paper §7.3).

    ``peaks`` entries are ``(center, width, weight)`` fractions of the span;
    ``background`` is the probability mass of the uniform component.  The
    default instance reproduces the pre-subsystem generator exactly: one
    ``random()`` mode draw per job, then one ``uniform``/``normal`` draw.
    """

    kind: ClassVar[str] = "uniform-peaks"

    background: float = 0.5
    peaks: tuple[tuple[float, float, float], ...] = (
        (0.30, 0.08, 0.25),
        (0.70, 0.08, 0.25),
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "peaks", tuple(tuple(p) for p in self.peaks)
        )
        if not 0.0 <= self.background <= 1.0:
            raise WorkloadConfigError(
                f"background mass must be in [0, 1], got {self.background}"
            )
        total = self.background + sum(w for _, _, w in self.peaks)
        if abs(total - 1.0) > 1e-6:
            raise WorkloadConfigError(
                f"background + peak weights must sum to 1.0, got {total:g}"
            )
        for center, width, weight in self.peaks:
            if not 0.0 <= center <= 1.0 or width <= 0.0 or weight < 0.0:
                raise WorkloadConfigError(
                    f"bad peak (center={center}, width={width}, "
                    f"weight={weight}): need 0<=center<=1, width>0, weight>=0"
                )

    def sample(self, rng, num_jobs: int, span: float) -> list[float]:
        times = []
        for _ in range(num_jobs):
            mode = rng.random()
            if mode < self.background or not self.peaks:
                t = rng.uniform(0.0, span)
            else:
                # Walk the cumulative peak weights; the last peak absorbs
                # any floating-point remainder of the mode draw.
                acc = self.background
                center, width, _ = self.peaks[-1]
                for c, w, weight in self.peaks:
                    acc += weight
                    if mode < acc:
                        center, width = c, w
                        break
                t = rng.normal(center * span, width * span)
            times.append(float(min(max(t, 0.0), span)))
        return sorted(times)


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals at the average rate ``num_jobs / span``.

    Inter-arrival gaps are exponential, so the expected last arrival sits at
    the end of the window; individual draws may land slightly past it.
    """

    kind: ClassVar[str] = "poisson"

    def sample(self, rng, num_jobs: int, span: float) -> list[float]:
        scale = span / max(num_jobs, 1)
        times, t = [], 0.0
        for gap in rng.exponential(scale, size=num_jobs):
            t += float(gap)
            times.append(t)
        return times


@dataclass(frozen=True)
class MarkovModulatedArrivals(ArrivalProcess):
    """Bursty MMPP-2 arrivals: exponential sojourns in a calm/burst pair.

    The calm-state rate is solved so the *stationary* average rate equals
    ``num_jobs / span``; the burst state submits ``burst_factor`` times
    faster.  Sojourn times in each state are exponential with the given
    means, so the process produces the heavy-tailed gap distribution real
    cluster logs show (quiet stretches punctuated by submission storms).
    """

    kind: ClassVar[str] = "mmpp"

    burst_factor: float = 8.0
    mean_burst: float = 20 * MINUTE
    mean_calm: float = 2 * HOUR

    def __post_init__(self) -> None:
        if self.burst_factor < 1.0:
            raise WorkloadConfigError(
                f"burst_factor must be >= 1, got {self.burst_factor}"
            )
        if self.mean_burst <= 0.0 or self.mean_calm <= 0.0:
            raise WorkloadConfigError("state sojourn means must be positive")

    def sample(self, rng, num_jobs: int, span: float) -> list[float]:
        stationary_burst = self.mean_burst / (self.mean_burst + self.mean_calm)
        average = num_jobs / max(span, 1e-9)
        calm_rate = average / (
            (1.0 - stationary_burst) + self.burst_factor * stationary_burst
        )
        times: list[float] = []
        t = 0.0
        in_burst = bool(rng.random() < stationary_burst)
        state_end = t + float(
            rng.exponential(self.mean_burst if in_burst else self.mean_calm)
        )
        while len(times) < num_jobs:
            rate = calm_rate * (self.burst_factor if in_burst else 1.0)
            gap = float(rng.exponential(1.0 / rate))
            if t + gap < state_end:
                t += gap
                times.append(t)
            else:
                # The arrival would fall past the state switch: advance to
                # the switch and re-draw in the new state (memorylessness
                # makes discarding the partial gap exact).
                t = state_end
                in_burst = not in_burst
                state_end = t + float(
                    rng.exponential(
                        self.mean_burst if in_burst else self.mean_calm
                    )
                )
        return times


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Day/night (and optional weekend) submission rhythm, by thinning.

    Relative intensity is a raised cosine over the 24-hour clock peaking at
    ``peak_hour`` and bottoming at ``night_depth`` of the peak; days 5 and 6
    of each week are additionally scaled by ``weekend_factor``.  Candidates
    are drawn from a homogeneous process at the intensity ceiling and
    accepted with probability ``intensity / ceiling`` until ``num_jobs``
    arrivals land — the overall average rate matches ``num_jobs / span``.
    """

    kind: ClassVar[str] = "diurnal"

    peak_hour: float = 14.0
    night_depth: float = 0.15
    weekend_factor: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.peak_hour < 24.0:
            raise WorkloadConfigError(
                f"peak_hour must be in [0, 24), got {self.peak_hour}"
            )
        if not 0.0 < self.night_depth <= 1.0:
            raise WorkloadConfigError(
                f"night_depth must be in (0, 1], got {self.night_depth}"
            )
        if self.weekend_factor <= 0.0:
            raise WorkloadConfigError(
                f"weekend_factor must be positive, got {self.weekend_factor}"
            )

    def relative_intensity(self, t: float) -> float:
        """Unnormalized intensity at time ``t`` (peak weekday hour = 1.0)."""
        hour = (t / HOUR) % 24.0
        phase = math.cos(2.0 * math.pi * (hour - self.peak_hour) / 24.0)
        level = self.night_depth + (1.0 - self.night_depth) * 0.5 * (
            1.0 + phase
        )
        if int(t // DAY) % 7 >= 5:
            level *= self.weekend_factor
        return level

    def sample(self, rng, num_jobs: int, span: float) -> list[float]:
        # Mean relative intensity over the window (deterministic midpoint
        # grid) fixes the candidate rate so ~num_jobs candidates survive
        # thinning inside the span.
        steps = 288
        grid = [self.relative_intensity((i + 0.5) * span / steps)
                for i in range(steps)]
        mean_level = sum(grid) / steps
        ceiling = max(1.0, self.weekend_factor)
        candidate_rate = (num_jobs / max(span, 1e-9)) * ceiling / mean_level
        times: list[float] = []
        t = 0.0
        budget = 1000 * num_jobs + 1000  # thinning is >= night_depth efficient
        while len(times) < num_jobs:
            budget -= 1
            if budget <= 0:
                raise WorkloadConfigError(
                    "diurnal thinning failed to converge "
                    f"(night_depth={self.night_depth}, "
                    f"weekend_factor={self.weekend_factor})"
                )
            t += float(rng.exponential(1.0 / candidate_rate))
            if rng.random() * ceiling < self.relative_intensity(t):
                times.append(t)
        return times


#: The paper's default arrival shape (shared instance used as the
#: ``WorkloadConfig.arrival`` default).
UNIFORM_PEAKS = UniformPeaksArrivals()
