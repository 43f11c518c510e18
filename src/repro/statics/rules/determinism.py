"""RPL001/RPL002: nondeterminism sources and iteration-order hazards.

The repo's headline contract is *byte determinism*: the same spec produces
byte-identical persisted documents regardless of executor topology, worker
count, or Python version (CI diffs run documents across 3.10/3.12).  Two
textual patterns break it silently:

* reading ambient entropy — wall clocks, the process-global ``random`` /
  ``numpy.random`` state — instead of deriving a stream from the run's seed
  via :func:`repro.rng.rng_for` (RPL001);
* accumulating floats in an order the language does not pin — ``sum`` over
  a ``set`` or over ``dict.values()``, or iterating an OS directory listing
  unsorted (float addition is not associative; ``os.listdir`` order is
  filesystem-dependent) (RPL002).
"""

from __future__ import annotations

import ast

from repro.statics.core import (
    PERF_TIMERS,
    SEEDED_RNG,
    WALL_CLOCKS,
    Finding,
    ImportMap,
    Rule,
    SourceFile,
)


class NondeterminismRule(Rule):
    code = "RPL001"
    title = "ambient entropy on a reproducible path"
    rationale = (
        "Persisted documents must be a pure function of the run spec. "
        "Wall clocks and the process-global random state vary per host and "
        "per run; derive randomness from the seed via repro.rng.rng_for "
        "and keep wall-clock timing on the non-persisted perf channel."
    )

    def check(self, src: SourceFile) -> list[Finding]:
        imports = src.imports
        in_benchmarks = src.rel.startswith("benchmarks/")
        out: list[Finding] = []
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            name = imports.resolve(node.func)
            if name is None or name in SEEDED_RNG:
                continue
            if name in WALL_CLOCKS:
                out.append(
                    src.finding(
                        self.code,
                        node,
                        f"wall-clock {name}() on a reproducible path; "
                        "simulation time is the only clock persisted "
                        "documents may depend on",
                    )
                )
            elif name in PERF_TIMERS and not in_benchmarks:
                out.append(
                    src.finding(
                        self.code,
                        node,
                        f"{name}() reads the host clock; keep timing on "
                        "the non-persisted perf channel (and suppress "
                        "with the justification) or drop it",
                    )
                )
            elif name == "random" or name.startswith("random."):
                out.append(
                    src.finding(
                        self.code,
                        node,
                        f"{name}() uses the process-global random state; "
                        "derive an isolated stream with "
                        "repro.rng.rng_for(seed, *scope)",
                    )
                )
            elif name.startswith("numpy.random."):
                out.append(
                    src.finding(
                        self.code,
                        node,
                        f"{name}() draws from numpy's module-level RNG; "
                        "derive an isolated stream with "
                        "repro.rng.rng_for(seed, *scope)",
                    )
                )
        return out


#: Directory-listing calls whose order is filesystem-dependent.
_LISTING_CALLS = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
#: Method names with the same hazard on ``pathlib.Path`` receivers.
_LISTING_METHODS = {"glob", "rglob", "iterdir"}


class IterationOrderRule(Rule):
    code = "RPL002"
    title = "order-sensitive accumulation over an unordered source"
    rationale = (
        "Float addition is not associative: summing a set, a dict's "
        "values, or an unsorted directory listing makes the last digits "
        "of persisted metrics depend on insertion/filesystem order. "
        "Iterate sorted keys (or sorted paths) instead."
    )

    def check(self, src: SourceFile) -> list[Finding]:
        imports = src.imports
        sorted_args: set[int] = set()
        for node in ast.walk(src.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("sorted", "list", "tuple", "len", "set")
            ):
                # sorted(...) pins the order; list/tuple/set/len do not
                # accumulate floats, so a listing passed to them is
                # order-benign at this site.
                for arg in node.args:
                    sorted_args.add(id(arg))
        out: list[Finding] = []
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            out.extend(self._check_sum(src, node))
            out.extend(
                self._check_listing(src, node, imports, sorted_args)
            )
        return out

    def _check_sum(self, src: SourceFile, node: ast.Call) -> list[Finding]:
        if not (isinstance(node.func, ast.Name) and node.func.id == "sum"):
            return []
        if not node.args:
            return []
        arg = node.args[0]
        if (
            isinstance(arg, ast.Call)
            and isinstance(arg.func, ast.Attribute)
            and arg.func.attr == "values"
            and not arg.args
            and not arg.keywords
        ):
            return [
                src.finding(
                    self.code,
                    node,
                    "sum over dict.values() accumulates in insertion "
                    "order; sum over sorted keys "
                    "(sum(d[k] for k in sorted(d))) to pin it",
                )
            ]
        is_set_literal = isinstance(arg, (ast.Set, ast.SetComp))
        is_set_call = (
            isinstance(arg, ast.Call)
            and isinstance(arg.func, ast.Name)
            and arg.func.id in ("set", "frozenset")
        )
        if is_set_literal or is_set_call:
            return [
                src.finding(
                    self.code,
                    node,
                    "sum over a set accumulates in hash order; "
                    "sum(sorted(...)) to pin it",
                )
            ]
        return []

    def _check_listing(
        self,
        src: SourceFile,
        node: ast.Call,
        imports: ImportMap,
        sorted_args: set[int],
    ) -> list[Finding]:
        name = imports.resolve(node.func)
        is_listing = name in _LISTING_CALLS
        if (
            not is_listing
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _LISTING_METHODS
            and imports.resolve(node.func) is None  # not e.g. glob.glob
        ):
            is_listing = True
            name = f"<path>.{node.func.attr}"
        if not is_listing or id(node) in sorted_args:
            return []
        return [
            src.finding(
                self.code,
                node,
                f"{name}() order is filesystem-dependent; wrap the "
                "listing in sorted(...) before iterating",
            )
        ]
