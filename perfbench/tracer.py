"""Layer spans recorded from outside the program.

The traced run wraps the public entry point of each layer of ``repro`` at
run time (``src/`` is never edited) and keeps one span per outermost call:
``[layer, start_ns, end_ns, parent]``.  A call into a layer that is already the
innermost open span does not open a new one, so a layer's recursion and its
internal helper calls are one span.  Spans stay in memory and are written
out when the traced process exits.

Run as a wrapper around a program:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json cli sweep ...
    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json fleet --policy ...

``cli`` runs ``repro.cli.main`` and ``fleet`` runs ``perfbench/fleet.py``,
both in this process, with every layer wrapped.  The spans file also holds
the counters read at the layer boundaries (fit calls, policy rounds, plan
cache hits, frames, bytes).  :func:`layer_metrics` turns it into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
import weakref
from collections import Counter
from pathlib import Path

#: Layers in report order; ``unwrapped`` is the traced wall not covered by
#: any layer's self time (interpreter start, CLI glue, tracer output).
LAYERS = (
    "import", "trace", "fit", "policy", "planeval", "sim", "serialize",
    "store", "service",
)


class Recorder:
    """In-memory span list plus counters for one single-threaded process."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter_ns()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.round_s: list[float] = []
        self.finished: weakref.WeakSet = weakref.WeakSet()

    def open(self, layer: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([layer, time.perf_counter_ns() - self.t0, 0, parent])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> float:
        """End the span; returns its duration in seconds."""
        self.stack.pop()
        span = self.spans[index]
        span[2] = time.perf_counter_ns() - self.t0
        return (span[2] - span[1]) / 1e9

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(
                {
                    "spans": self.spans,
                    "counters": dict(self.counters),
                    "round_s": self.round_s,
                },
                allow_nan=False,
            )
        )


def _wrap(rec: Recorder, layer: str, fn, after=None):
    """``fn`` timed as one ``layer`` span unless already inside that layer.

    ``after(result, args, seconds)`` runs on the outermost call's return to
    count work at the boundary.
    """
    if getattr(fn, "__perfbench_layer__", None):
        return fn

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.innermost() == layer:
            return fn(*args, **kwargs)
        index = rec.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = rec.close(index)
        if after is not None:
            after(result, args, seconds)
        return result

    wrapper.__perfbench_layer__ = layer
    return wrapper


def _counting(fn, after):
    """``fn`` with ``after(result, args, seconds)`` run on every call, even
    one nested inside its own layer's span (no span of its own)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        after(result, args, time.perf_counter() - start)
        return result

    return wrapper


def _rebind(original, wrapped) -> None:
    """Point every loaded ``repro`` module's name for ``original`` at
    ``wrapped`` (``from x import f`` copies the binding at import time)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (
            name == "repro" or name.startswith("repro.") or name == "fleet"
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _wrap_function(rec, layer, module, name, after=None) -> None:
    original = getattr(module, name)
    _rebind(original, _wrap(rec, layer, original, after))


def _wrap_methods(rec, layer, cls, names, after=None) -> None:
    for name in names:
        if name in vars(cls):
            setattr(cls, name, _wrap(rec, layer, vars(cls)[name], after))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(rec: Recorder) -> None:
    """Wrap each layer's public entry points (after ``import repro``)."""
    import repro.cluster.dynamics as dynamics
    import repro.experiments.runner as runner
    import repro.experiments.store as store
    import repro.oracle.profiler as profiler
    import repro.service.master as master
    import repro.service.protocol as protocol
    import repro.sim.serialization as serialization
    import repro.sim.workload as workload
    from repro.planeval.engine import PlanEvalEngine
    from repro.scheduler.interfaces import SchedulerPolicy
    from repro.sim.engine import Simulator

    count = rec.counters

    def traced_jobs(result, args, seconds):
        count["trace.jobs"] += len(result)

    generate = workload.generate_trace
    _rebind(generate, _wrap(rec, "trace", _counting(generate, traced_jobs)))
    for name in ("to_best_plan_trace", "to_multi_tenant_trace"):
        _wrap_function(rec, "trace", workload, name)
    _wrap_function(rec, "trace", runner, "build_trace")
    _wrap_function(rec, "trace", runner, "run_cluster_events")
    for cls in (dynamics.ClusterDynamics, *_subclasses(dynamics.ClusterDynamics)):
        _wrap_methods(rec, "trace", cls, ("events",))

    def fitted(result, args, seconds):
        count["fit.calls"] += 1

    _wrap_function(rec, "fit", profiler, "build_perf_model", fitted)

    def scheduled(result, args, seconds):
        rec.round_s.append(seconds)

    for cls in _subclasses(SchedulerPolicy):
        _wrap_methods(rec, "policy", cls, ("schedule",), scheduled)

    def evaluated(result, args, seconds):
        count["planeval.calls"] += 1

    _wrap_methods(
        rec, "planeval", PlanEvalEngine,
        ("plans_for", "best", "best_of", "best_of_many", "score_all",
         "curve", "curve_of"),
        evaluated,
    )

    def stepped(report, args, seconds):
        sim = args[0]
        if not report.done or sim in rec.finished:
            return
        rec.finished.add(sim)
        result = sim.result()
        count["sim.rounds"] += result.sim_rounds
        count["policy.skips"] += result.policy_skips
        count["sim.calendar_fast"] += result.calendar_fast_rounds
        count["sim.calendar_exact"] += result.calendar_exact_scans
        # The policy may share the simulator's engine: count each once.
        engines = {sim.plan_engine, getattr(sim.policy, "engine", None)}
        for engine in engines - {None}:
            stats = engine.stats()
            count["planeval.hits"] += stats.hits
            count["planeval.lookups"] += stats.lookups

    _wrap_methods(rec, "sim", Simulator, ("step",), stepped)

    def drained(result, args, seconds):
        count["service.drain_at"] = time.perf_counter_ns() - rec.t0

    _wrap_methods(rec, "sim", Simulator, ("drain",), drained)
    _wrap_methods(rec, "sim", Simulator,
                  ("start", "submit", "post_cluster_event"))

    def written(result, args, seconds):
        count["serialize.bytes"] += Path(args[1]).stat().st_size

    for name in ("result_to_dict", "result_from_dict", "trace_to_dict",
                 "trace_from_dict", "trace_job_to_dict",
                 "trace_job_from_dict", "load_result", "load_trace",
                 "save_trace"):
        _wrap_function(rec, "serialize", serialization, name)
    save_result = serialization.save_result
    _rebind(save_result,
            _wrap(rec, "serialize", _counting(save_result, written)))

    def saved(path, args, seconds):
        count["store.saves"] += 1
        count["store.save_s"] += seconds
        count["serialize.bytes"] += path.stat().st_size

    store.RunStore.save = _wrap(rec, "store",
                                _counting(store.RunStore.save, saved))
    _wrap_methods(
        rec, "store", store.RunStore,
        ("load_record", "load", "save_failure", "write_spec", "append_meta",
         "gc_stale_tmp", "acquire_lease", "release_lease", "clear_failure",
         "completed_keys", "quarantine_record"),
    )
    for name in ("run_sweep", "execute_run", "simulator_for_run"):
        _wrap_function(rec, "store", runner, name)

    def decoded(frames, args, seconds):
        count["service.frames"] += len(frames)

    def sent(data, args, seconds):
        if args[0].get("type") == protocol.DRAINED:
            count["serialize.bytes"] += len(data)

    _rebind(protocol.encode_frame, _counting(protocol.encode_frame, sent))
    protocol.FrameDecoder.feed = _counting(protocol.FrameDecoder.feed, decoded)
    _wrap_methods(rec, "service", master.ServiceMaster,
                  ("bind", "serve_forever", "close"))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def layer_metrics(doc: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced process (see the README table).

    ``wall_s`` is the traced process's launch-to-exit wall time measured
    by the parent; ``unwrapped.s`` is what no layer's self time covers.
    """
    spans = doc["spans"]
    counters = Counter(doc["counters"])
    child = [0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    selfs = Counter()
    inclusive = Counter()
    for index, (layer, start, end, parent) in enumerate(spans):
        selfs[layer] += (end - start - child[index]) / 1e9
        inclusive[layer] += (end - start) / 1e9
    # Engine time spent on SUBMIT/CLUSTER_EVENT frames: Simulator calls
    # directly below a service span, before the DRAIN frame arrived.
    drain_at = counters.get("service.drain_at", math.inf)
    service_step = sum(
        end - start
        for layer, start, end, parent in spans
        if layer == "sim" and parent >= 0 and spans[parent][0] == "service"
        and start < drain_at
    ) / 1e9
    rounds_ms = [s * 1000.0 for s in doc["round_s"]]
    loop_total = inclusive["sim"]
    decided = counters["sim.calendar_fast"] + counters["sim.calendar_exact"]
    lookups = counters["planeval.lookups"]
    return {
        "import.s": selfs["import"],
        "trace.build_s": selfs["trace"],
        "trace.jobs": counters["trace.jobs"],
        "fit.s": selfs["fit"],
        "fit.calls": counters["fit.calls"],
        "policy.s": selfs["policy"],
        "policy.calls": len(rounds_ms),
        "policy.round_p50_ms": statistics.median(rounds_ms) if rounds_ms else 0.0,
        "policy.round_p99_ms": percentile(rounds_ms, 99),
        "policy.skips": counters["policy.skips"],
        "planeval.s": selfs["planeval"],
        "planeval.calls": counters["planeval.calls"],
        "planeval.hit_rate": counters["planeval.hits"] / lookups if lookups else 0.0,
        "sim.loop_self_s": selfs["sim"],
        "sim.rounds": counters["sim.rounds"],
        "sim.events_per_s": (
            counters["sim.rounds"] / loop_total if loop_total else 0.0
        ),
        "sim.calendar_fast_frac": (
            counters["sim.calendar_fast"] / decided if decided else 0.0
        ),
        "serialize.s": selfs["serialize"],
        "serialize.bytes": counters["serialize.bytes"],
        "store.s": selfs["store"],
        "store.save_s": counters["store.save_s"],
        "store.saves": counters["store.saves"],
        "service.s": selfs["service"],
        "service.step_s": service_step,
        "service.frames": counters["service.frames"],
        "unwrapped.s": wall_s - sum(selfs[layer] for layer in LAYERS),
    }


def main(argv: list[str]) -> int:
    spans_path, target, *args = argv
    rec = Recorder()
    index = rec.open("import")
    import repro  # noqa: F401  (the import layer's own cost)

    if target == "cli":
        import repro.cli as program
    else:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import fleet as program
    rec.close(index)
    install(rec)
    try:
        return program.main(args)
    finally:
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
