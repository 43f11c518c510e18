"""Whole-program flow rules: RPL008, RPL009, RPL010.

These are the interprocedural upgrades of the per-line determinism rules:
RPL008 follows entropy through calls into persisted documents (where
RPL001 can only flag the source line), RPL009 checks every literal service
frame against :data:`repro.service.protocol.FRAME_SCHEMAS`, and RPL010
proves fault-seam exceptions cannot escape an entry point without an
incident record (the flow-sensitive upgrade of RPL007's per-handler
check).  RPL008/RPL010 are :class:`ProjectRule`\\ s driven by the shared
:class:`repro.statics.dataflow.Project`; RPL009 stays per-file (a frame
literal is checkable where it is written).
"""

from __future__ import annotations

import ast
import re
from typing import Any

from repro.service import protocol as _protocol
from repro.statics.core import Finding, ImportMap, ProjectRule, Rule, SourceFile
from repro.statics.dataflow import EscapeHit, FlowHit

_PROTOCOL_MODULE = "repro.service.protocol"
#: Constant-string frame types are only checked when they look like frame
#: type tags (ALL_CAPS); ``{"type": "gauge"}`` in unrelated service code
#: is not a frame literal.
_TYPE_TAG = re.compile(r"[A-Z][A-Z_]*\Z")


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


class FrameConformanceRule(Rule):
    """RPL009: literal frames must match ``protocol.FRAME_SCHEMAS``.

    Every dict literal with a ``"type"`` key, in any module that imports
    the protocol (or in ``protocol.py`` itself), is checked against the
    registry: unknown type, missing required keys, keys outside the
    schema.  ``**splat`` construction skips the missing-required check
    (the splat may supply them) but literal extra keys are still definite
    violations.
    """

    code = "RPL009"
    title = "service frame literal violates the protocol schema"
    rationale = (
        "A malformed frame fails at the peer, at runtime, in a live "
        "session; the schema registry makes the contract checkable where "
        "the frame is written."
    )

    def check(self, src: SourceFile) -> list[Finding]:
        imap = src.imports
        local_consts = self._module_constants(src.tree)
        if not self._engaged(src, imap):
            return []
        findings: list[Finding] = []
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Dict):
                findings.extend(
                    self._check_dict(src, node, imap, local_consts)
                )
        return findings

    @staticmethod
    def _module_constants(tree: ast.Module) -> dict[str, str]:
        consts: dict[str, str] = {}
        for stmt in tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            ):
                consts[stmt.targets[0].id] = stmt.value.value
        return consts

    @staticmethod
    def _engaged(src: SourceFile, imap: ImportMap) -> bool:
        rel = src.rel
        if rel.endswith("service/protocol.py") or rel == "protocol.py":
            return True
        if _PROTOCOL_MODULE in imap.modules.values():
            return True
        for module, symbol in imap.symbols.values():
            if f"{module}.{symbol}" == _PROTOCOL_MODULE:
                return True
            if module == _PROTOCOL_MODULE:
                return True
        return False

    def _frame_type(
        self,
        value: ast.expr,
        imap: ImportMap,
        local_consts: dict[str, str],
    ) -> tuple[str, str] | None:
        """``(type_value, spelled)`` of a frame-type expression.

        ``type_value`` is the runtime string (or ``""`` when the spelling
        names a protocol attribute that does not exist), ``spelled`` is
        how the source wrote it.  ``None`` means "not recognizably a
        frame type" and the dict is skipped.
        """
        if isinstance(value, ast.Constant):
            if isinstance(value.value, str) and _TYPE_TAG.fullmatch(
                value.value
            ):
                return (value.value, repr(value.value))
            return None
        if isinstance(value, ast.Name) and value.id in local_consts:
            return (local_consts[value.id], value.id)
        resolved = imap.resolve(value)
        if resolved is None:
            return None
        if resolved.startswith(_PROTOCOL_MODULE + "."):
            attr = resolved[len(_PROTOCOL_MODULE) + 1 :]
            runtime = getattr(_protocol, attr, None)
            if isinstance(runtime, str):
                return (runtime, f"protocol.{attr}")
            return ("", f"protocol.{attr}")
        return None

    def _check_dict(
        self,
        src: SourceFile,
        node: ast.Dict,
        imap: ImportMap,
        local_consts: dict[str, str],
    ) -> list[Finding]:
        literal_keys: list[str] = []
        type_value: ast.expr | None = None
        has_splat = False
        has_dynamic = False
        for key, value in zip(node.keys, node.values):
            if key is None:
                has_splat = True
            elif isinstance(key, ast.Constant) and isinstance(
                key.value, str
            ):
                literal_keys.append(key.value)
                if key.value == "type":
                    type_value = value
            else:
                has_dynamic = True
        if type_value is None:
            return []
        resolved = self._frame_type(type_value, imap, local_consts)
        if resolved is None:
            return []
        frame_type, spelled = resolved
        schemas = _protocol.FRAME_SCHEMAS
        if frame_type not in schemas:
            return [
                src.finding(
                    self.code,
                    node,
                    f"frame literal has unknown type {spelled} "
                    f"(known: {', '.join(sorted(schemas))})",
                )
            ]
        required, optional = schemas[frame_type]
        findings: list[Finding] = []
        missing = sorted(required - set(literal_keys))
        if missing and not has_splat and not has_dynamic:
            findings.append(
                src.finding(
                    self.code,
                    node,
                    f"{frame_type} frame literal is missing required "
                    f"key(s): {', '.join(missing)}",
                )
            )
        extra = sorted(set(literal_keys) - required - optional)
        if extra:
            findings.append(
                src.finding(
                    self.code,
                    node,
                    f"{frame_type} frame literal has key(s) outside the "
                    f"schema: {', '.join(extra)}",
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
