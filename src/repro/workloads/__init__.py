"""Workload scenario subsystem: arrivals × job mix × external traces.

Three composable layers generalize the paper's single §7.3 trace shape:

* **arrival processes** (:mod:`repro.workloads.arrivals`) — when jobs
  arrive: the paper's uniform+peaks, Poisson, bursty MMPP, diurnal/weekly
  rhythms, deterministic replay;
* **job mixes** (:mod:`repro.workloads.mix`) — what the jobs look like:
  GPU-size mix, duration distribution, model-sampling weights;
* **external-trace adapters** (:mod:`repro.workloads.adapters`) — replay
  Philly-style CSV / Helios-style JSONL logs with the paper's feasibility
  fix-up applied.

The **scenario registry** (:mod:`repro.workloads.registry`) names
compositions of the three (``paper-12h``, ``diurnal-3d``,
``largemodel-heavy``, ``multitenant-burst``, ``replay:<path>``, …) and is
what the experiment specs, the sweep CLI and ``repro workload`` resolve
against.
"""

from repro.workloads.arrivals import (
    ARRIVAL_KINDS,
    UNIFORM_PEAKS,
    ArrivalProcess,
    DiurnalArrivals,
    FixedArrivals,
    MarkovModulatedArrivals,
    PoissonArrivals,
    UniformPeaksArrivals,
    arrival_from_dict,
    arrival_to_dict,
)
from repro.workloads.mix import DEFAULT_GPU_MIX, JobMix, validate_gpu_mix
from repro.workloads.adapters import (
    HELIOS_COLUMNS,
    PHILLY_COLUMNS,
    ColumnMap,
    load_external_trace,
    load_helios_jsonl,
    load_philly_csv,
)
from repro.workloads.registry import (
    DEFAULT_SCENARIO,
    REPLAY_PREFIX,
    SCENARIOS,
    Scenario,
    resolve_scenario,
    scenario_trace,
    scenario_workload_config,
)

__all__ = [
    "ARRIVAL_KINDS",
    "DEFAULT_GPU_MIX",
    "DEFAULT_SCENARIO",
    "HELIOS_COLUMNS",
    "PHILLY_COLUMNS",
    "REPLAY_PREFIX",
    "SCENARIOS",
    "UNIFORM_PEAKS",
    "ArrivalProcess",
    "ColumnMap",
    "DiurnalArrivals",
    "FixedArrivals",
    "JobMix",
    "MarkovModulatedArrivals",
    "PoissonArrivals",
    "Scenario",
    "UniformPeaksArrivals",
    "arrival_from_dict",
    "arrival_to_dict",
    "load_external_trace",
    "load_helios_jsonl",
    "load_philly_csv",
    "resolve_scenario",
    "scenario_trace",
    "scenario_workload_config",
    "validate_gpu_mix",
]
