"""The perfbench tracer's hooks still land on methods that exist.

``perfbench/tracer.py`` wraps layer entry points by name and silently skips
a name its class no longer defines, so a rename in ``src/`` would drop a
layer from the per-layer metrics without any error.  This test reads the
method names the tracer passes to ``_wrap_methods`` (plus the directly
assigned ``RunStore.save``), installs the tracer in a fresh interpreter and
asserts every named method now carries ``__perfbench_layer__``.  The
``SimulationResult`` counters its ``stepped`` hook reads are pinned the
same way: read from the hook's source, checked against the dataclass.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"

#: Classes whose hooks are pinned: tracer spelling -> importable path.
CLASSES = {
    "Simulator": "repro.sim.engine:Simulator",
    "PlanEvalEngine": "repro.planeval.engine:PlanEvalEngine",
    "RunStore": "repro.experiments.store:RunStore",
    "ServiceMaster": "repro.service.master:ServiceMaster",
}

PROBE = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
import tracer
tracer.install(tracer.Recorder())
missing = []
for target, names in json.loads(sys.argv[2]).items():
    module, cls_name = target.split(":")
    cls = getattr(importlib.import_module(module), cls_name)
    for name in names:
        fn = vars(cls).get(name)
        if getattr(fn, "__perfbench_layer__", None) is None:
            missing.append(f"{cls_name}.{name}")
print(json.dumps(missing))
"""


def _class_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _hooked_methods() -> dict[str, list[str]]:
    """Method names the tracer wraps on each pinned class, read from its
    source so a hook added there is pinned here too."""
    hooked: dict[str, list[str]] = {target: [] for target in CLASSES.values()}
    for node in ast.walk(ast.parse(TRACER.read_text())):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_wrap_methods"
            and isinstance(node.args[3], ast.Tuple)
        ):
            cls = CLASSES.get(_class_name(node.args[2]))
            if cls is not None:
                hooked[cls] += [elt.value for elt in node.args[3].elts]
        elif (
            isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Attribute)
        ):
            target = node.targets[0]
            cls = CLASSES.get(_class_name(target.value))
            if cls is not None:
                hooked[cls].append(target.attr)
    return hooked


def test_every_hooked_method_is_wrapped():
    hooked = _hooked_methods()
    # The parse itself must keep seeing the hooks it is meant to pin.
    assert all(hooked.values()), hooked
    assert {"start", "step", "submit", "post_cluster_event", "drain"} <= set(
        hooked[CLASSES["Simulator"]]
    )
    assert "save" in hooked[CLASSES["RunStore"]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(TRACER.parent), json.dumps(hooked)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert json.loads(proc.stdout) == []


def test_stepped_hook_reads_existing_result_fields():
    from repro.sim.metrics import SimulationResult

    (stepped,) = [
        node for node in ast.walk(ast.parse(TRACER.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "stepped"
    ]
    reads = {
        node.attr for node in ast.walk(stepped)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "result"
    }
    # The parse itself must keep seeing the counters it is meant to pin.
    assert {
        "sim_rounds", "policy_skips",
        "calendar_fast_rounds", "calendar_exact_scans",
    } <= reads
    fields = {f.name for f in dataclasses.fields(SimulationResult)}
    assert reads <= fields, sorted(reads - fields)
