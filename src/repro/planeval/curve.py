"""Best-plan configurations and GPU sensitivity curves (paper §5.2, Fig. 6).

These value types are produced by :class:`repro.planeval.PlanEvalEngine` and
consumed by every scheduling policy.  A sensitivity curve gives, for each
amount of one resource type (others held fixed), the best achievable
predicted throughput over *all* permitted execution plans — the upper
envelope of the per-plan curves.  The curves serve the scheduling policy
twice:

* their **slopes** rank jobs by marginal benefit, steering allocation toward
  the most sensitive jobs; and
* they factor execution planning out of the allocation search: the policy
  reasons over resource amounts and asks the curve for the matching best plan
  (``GetBestPlan``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.plans.plan import ExecutionPlan

#: An envelope rise at or below this does not move a curve's peak count.
_PEAK_EPS = 1e-9

#: An envelope rise at or below this does not end a lookahead plateau.
_RISE_EPS = 1e-12


@dataclass(frozen=True)
class BestConfig:
    """Best predicted configuration at one resource amount."""

    plan: ExecutionPlan
    throughput: float


@dataclass(frozen=True)
class GpuCurve:
    """Best-plan throughput vs. GPU count (upper envelope, Fig. 6).

    ``envelope[g]`` is the best throughput achievable with *up to* ``g`` GPUs
    — flat across GPU counts where no plan uses exactly ``g`` (the paper:
    "the curve remains flat for invalid GPU numbers").
    """

    max_gpus: int
    raw: tuple[BestConfig | None, ...]  # index g: best plan using exactly g GPUs
    envelope: tuple[float, ...]  # index g: best throughput with <= g GPUs
    envelope_config: tuple[BestConfig | None, ...]
    #: index g: per-GPU gain from g to the next count whose envelope rises
    #: by more than ``_RISE_EPS`` (0.0 where none does).
    lookahead: tuple[float, ...]
    #: Peak count: the last count whose envelope beats the previous peak
    #: count's by more than ``_PEAK_EPS``, scanning up from 0 (0 if none).
    peak_gpus: int

    def throughput_at(self, gpus: int) -> float:
        gpus = max(0, min(gpus, self.max_gpus))
        return self.envelope[gpus]

    def config_at(self, gpus: int) -> BestConfig | None:
        gpus = max(0, min(gpus, self.max_gpus))
        return self.envelope_config[gpus]

    def slope_up(self, gpus: int, delta: int = 1) -> float:
        """Throughput gained by the next ``delta`` GPUs."""
        return (
            self.throughput_at(gpus + delta) - self.throughput_at(gpus)
        ) / delta

    def slope_down(self, gpus: int, delta: int = 1) -> float:
        """Throughput lost by giving up ``delta`` GPUs."""
        if gpus <= 0:
            return 0.0
        delta = min(delta, gpus)
        return (
            self.throughput_at(gpus) - self.throughput_at(gpus - delta)
        ) / delta

    def lookahead_slope_up(self, gpus: int) -> float:
        """Per-GPU gain to the next envelope rise (0 if the curve is done).

        Gang constraints make the envelope a step function; unit-slope
        signals read zero inside a flat run even when a large jump lies
        ahead (e.g. 8 -> 16 GPUs for a 3D-parallel job).  An O(1) read of
        the table :func:`build_envelope` precomputes.
        """
        if gpus < 0:
            raise ValueError(f"gpus must be >= 0, got {gpus}")
        if gpus > self.max_gpus:
            return 0.0
        return self.lookahead[gpus]


def build_envelope(limit: int, raw: Sequence[BestConfig | None]) -> GpuCurve:
    """Assemble a :class:`GpuCurve` from per-count best configs.

    ``raw[g]`` is the best config using exactly ``g`` GPUs (``raw[0]`` is
    ``None``); the envelope carries the running maximum forward across GPU
    counts where no plan exists.  The lookahead-slope table and the peak
    count are computed here, once per curve, so the scheduler's per-node
    slope probes are lookups.
    """
    envelope = [0.0]
    env_cfg: list[BestConfig | None] = [None]
    for g in range(1, limit + 1):
        cand = raw[g]
        if cand is not None and cand.throughput > envelope[-1]:
            envelope.append(cand.throughput)
            env_cfg.append(cand)
        else:
            envelope.append(envelope[-1])
            env_cfg.append(env_cfg[-1])
    # The envelope is non-decreasing, so each count's next strict rise is
    # at or after the previous count's: one forward pointer serves all.
    lookahead = []
    nxt = 1
    for g in range(limit + 1):
        here = envelope[g]
        nxt = max(nxt, g + 1)
        while nxt <= limit and not envelope[nxt] > here + _RISE_EPS:
            nxt += 1
        if nxt > limit:
            lookahead.append(0.0)
        else:
            lookahead.append((envelope[nxt] - here) / (nxt - g))
    peak = 0
    for g in range(1, limit + 1):
        if envelope[g] > envelope[peak] + _PEAK_EPS:
            peak = g
    return GpuCurve(
        max_gpus=limit,
        raw=tuple(raw),
        envelope=tuple(envelope),
        envelope_config=tuple(env_cfg),
        lookahead=tuple(lookahead),
        peak_gpus=peak,
    )
