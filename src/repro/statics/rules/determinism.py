"""RPL001: ambient entropy on a reproducible path.

The repo's headline contract is *byte determinism*: the same spec produces
byte-identical persisted documents regardless of executor topology, worker
count, or Python version (CI diffs run documents across 3.10/3.12).
Reading ambient entropy — wall clocks, the process-global ``random`` /
``numpy.random`` state, the pid, hostname or environment — instead of
deriving a stream from the run's seed via :func:`repro.rng.rng_for`
breaks it silently.
"""

from __future__ import annotations

import ast

from repro.statics.core import (
    HOST_ENTROPY_CALLS,
    PERF_TIMERS,
    SEEDED_RNG,
    WALL_CLOCKS,
    Finding,
    Rule,
    SourceFile,
)


class NondeterminismRule(Rule):
    code = "RPL001"
    title = "ambient entropy on a reproducible path"
    rationale = (
        "Persisted documents must be a pure function of the run spec. "
        "Wall clocks, the process-global random state, pids, hostnames "
        "and environment variables vary per host and per run; derive "
        "randomness from the seed via repro.rng.rng_for and keep "
        "wall-clock timing on the non-persisted perf channel."
    )

    def check(self, src: SourceFile) -> list[Finding]:
        imports = src.imports
        in_benchmarks = src.rel.startswith("benchmarks/")
        out: list[Finding] = []
        for node in ast.walk(src.tree):
            if (
                isinstance(node, (ast.Attribute, ast.Name))
                and imports.resolve(node) == "os.environ"
            ):
                out.append(
                    src.finding(
                        self.code,
                        node,
                        "os.environ reads the host environment; pass the "
                        "value in through the run spec or a CLI option",
                    )
                )
                continue
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
            elif name in HOST_ENTROPY_CALLS:
                out.append(
                    src.finding(
                        self.code,
                        node,
                        f"{name}() reads process/host identity or OS "
                        "entropy, which differs per host and per run; "
                        "keep it off reproducible paths",
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

