"""Performance model for reconfigurable DL training (paper §4)."""

from repro.perfmodel.components import (
    Effects,
    IDEAL_EFFECTS,
    IterBreakdown,
    comm_volume_dp,
    comm_volume_pp,
    comm_volume_tp,
    compute_breakdown,
    forward_pass_time,
    offload_volume,
)
from repro.perfmodel.fitting import (
    FitReport,
    MIN_OFFLOAD_SAMPLES,
    MIN_SAMPLES,
    ThroughputSample,
    fit_perf_model,
)
from repro.perfmodel.model import PerfModel
from repro.perfmodel.online import OnlineRefitter, RefitEvent
from repro.perfmodel.overlap import overlap
from repro.perfmodel.params import PARAM_BOUNDS, PerfParams
from repro.perfmodel.shape import Interconnect, ResourceShape

__all__ = [
    "Effects",
    "FitReport",
    "IDEAL_EFFECTS",
    "Interconnect",
    "IterBreakdown",
    "MIN_OFFLOAD_SAMPLES",
    "MIN_SAMPLES",
    "OnlineRefitter",
    "PARAM_BOUNDS",
    "PerfModel",
    "RefitEvent",
    "PerfParams",
    "ResourceShape",
    "ThroughputSample",
    "comm_volume_dp",
    "comm_volume_pp",
    "comm_volume_tp",
    "compute_breakdown",
    "fit_perf_model",
    "forward_pass_time",
    "offload_volume",
    "overlap",
]
