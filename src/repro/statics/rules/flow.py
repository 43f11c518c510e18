"""Whole-program flow rules: RPL008 and RPL010.

These are the interprocedural upgrades of the per-line rules: RPL008
follows entropy through calls into persisted documents (where RPL001 can
only flag the source line), and RPL010 proves fault-seam exceptions cannot
escape an entry point without an incident record (the flow-sensitive
upgrade of RPL007's per-handler check).  Both are :class:`ProjectRule`\\ s
driven by the shared :class:`repro.statics.dataflow.Project`.
"""

from __future__ import annotations

from typing import Any

from repro.statics.core import Finding, ProjectRule
from repro.statics.dataflow import EscapeHit, FlowHit


def _render_flow(hit: FlowHit) -> str:
    src_name, src_rel, src_line, _ = hit.source
    sink_name, sink_rel, sink_line, _ = hit.sink
    parts = [f"source {src_name} at {src_rel}:{src_line}"]
    parts.extend(
        f"  -> {rel}:{line}: {desc}" for rel, line, desc in hit.trail
    )
    parts.append(f"sink {sink_name} at {sink_rel}:{sink_line}")
    return "\n".join(parts)


def _render_escape(hit: EscapeHit) -> str:
    origin_rel, origin_line, _ = hit.origin
    parts = [
        f"armed seam '{hit.seam}' at {origin_rel}:{origin_line}"
    ]
    parts.extend(
        f"  -> {rel}:{line}: escapes through call to {callee}()"
        for rel, line, callee in hit.chain
    )
    parts.append(f"reaches entry point {hit.entry}() uncontained")
    return "\n".join(parts)


class DeterminismFlowRule(ProjectRule):
    """RPL008: ambient entropy must not *reach* a persisted document.

    RPL001 flags entropy at the line it is produced; this rule follows the
    value through assignments, container/field structure, and any number
    of project-internal calls, and fires where it crosses into a
    serialization/digest/frame sink.  The finding anchors at the call site
    inside the anchored file — the actionable frame — and carries the full
    hop trail for ``repro lint --explain``.
    """

    code = "RPL008"
    title = "entropy flows into a persisted document"
    rationale = (
        "Wall clocks, unseeded RNG, pids/hostnames/env reaching "
        "json/pickle/digest/frame sinks make persisted artifacts "
        "host- and run-dependent, breaking the byte-determinism contract "
        "even when the source line itself looks innocent."
    )

    def applies_to(self, rel: str) -> bool:
        # Wall-clock measurement is the *point* of benchmarks/; a
        # benchmark report is not a determinism-contract document.
        return not rel.startswith("benchmarks/")

    def check_project(self, project: Any) -> list[Finding]:
        findings: list[Finding] = []
        for hit in project.flow_hits():
            rel, line, col = hit.anchor
            if not self.applies_to(rel):
                continue
            src_name, src_rel, src_line, _ = hit.source
            sink_name, sink_rel, sink_line, _ = hit.sink
            local = src_rel == rel and sink_rel == rel
            where = "" if local else f" via {len(hit.trail)} call hop(s)"
            findings.append(
                Finding(
                    path=rel,
                    line=line,
                    col=col + 1,
                    code=self.code,
                    message=(
                        f"value derived from {src_name} "
                        f"({src_rel}:{src_line}) reaches persisted-document "
                        f"sink {sink_name} ({sink_rel}:{sink_line})"
                        f"{where}; derive it from the run spec or the "
                        "virtual clock instead"
                    ),
                    content=project.line(rel, line),
                    explanation=_render_flow(hit),
                )
            )
        return findings


class SeamEscapeRule(ProjectRule):
    """RPL010: armed fault seams must not escape an entry point.

    A seam call (``injector.check(...)`` / ``.mangle(...)``) raises
    :class:`~repro.faults.injector.InjectedFault` when armed.  RPL007
    checks individual handlers; this rule proves the whole call chain: if
    an armed seam's exception can propagate out of a function nobody in
    the project calls (an entry point — CLI command, service handler)
    without crossing a handler that records an incident or quarantines
    the run, the fault disappears into a raw traceback and the run
    quarantine contract is broken.
    """

    code = "RPL010"
    title = "fault seam can escape an entry point unrecorded"
    rationale = (
        "Injected faults that surface as raw tracebacks defeat the "
        "quarantine/incident-stream contract: the run dies without a "
        "failure record, so replay and triage lose the evidence."
    )

    def check_project(self, project: Any) -> list[Finding]:
        findings: list[Finding] = []
        for hit in project.seam_escapes():
            rel, line, col = hit.anchor
            if not self.applies_to(rel):
                continue
            origin_rel, origin_line, _ = hit.origin
            findings.append(
                Finding(
                    path=rel,
                    line=line,
                    col=col + 1,
                    code=self.code,
                    message=(
                        f"fault seam '{hit.seam}' "
                        f"({origin_rel}:{origin_line}) can escape entry "
                        f"point {hit.entry}() without an incident record "
                        "or quarantine; catch it and record the incident"
                    ),
                    content=project.line(rel, line),
                    explanation=_render_escape(hit),
                )
            )
        return findings
