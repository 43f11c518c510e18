"""RPL004/RPL006: serialization round-trips and frozen-spec immutability.

RPL004 guards the document contract: every ``*_to_dict`` writer must have a
``*_from_dict`` reader (a write-only format drifts unnoticed until a reload
is needed), and every raw ``json.dump(s)`` must pass ``allow_nan=False`` —
Python's encoder happily emits ``NaN``/``Infinity``, which is not RFC 8259
and breaks every strict reader.  NaN-bearing statistics must be mapped to
``null`` first, the way ``sim/serialization.py`` does.

RPL006 guards frozen dataclasses: ``object.__setattr__`` is the sanctioned
escape hatch *inside* ``__init__``/``__post_init__`` (normalizing fields at
construction); anywhere else it mutates a value object other code assumes
immutable (specs are hashed into run keys — mutating one after digesting
silently invalidates the key).
"""

from __future__ import annotations

import ast

from repro.statics.core import Finding, ImportMap, Rule, SourceFile

#: Functions in which ``object.__setattr__`` is construction, not mutation.
_CONSTRUCTION_SCOPES = {"__init__", "__post_init__", "__new__", "__setstate__"}


def _pair_name(name: str) -> str | None:
    """The reader expected for a writer name (``None`` when exempt)."""
    if name.startswith("_"):
        return None  # private helpers are inlined by their public caller
    if name == "to_dict":
        return "from_dict"
    if name.endswith("_to_dict"):
        return name[: -len("_to_dict")] + "_from_dict"
    return None


class SerializationContractRule(Rule):
    code = "RPL004"
    title = "serialization-contract drift"
    rationale = (
        "Documents are the unit of exchange: a to_dict without a from_dict "
        "cannot be round-trip tested, and a raw json.dump without "
        "allow_nan=False can emit non-RFC-8259 NaN. Map NaN to null first "
        "(see sim/serialization.py) and keep reader/writer pairs together."
    )

    def check(self, src: SourceFile) -> list[Finding]:
        out: list[Finding] = []
        out.extend(self._check_pairs(src))
        imports = src.imports
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call):
                out.extend(self._check_dump(src, node, imports))
        return out

    def _check_pairs(self, src: SourceFile) -> list[Finding]:
        out: list[Finding] = []
        module_defs = {
            n.name
            for n in src.tree.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in src.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                expected = _pair_name(node.name)
                if expected and expected not in module_defs:
                    out.append(
                        src.finding(
                            self.code,
                            node,
                            f"{node.name}() has no matching {expected}() "
                            "in this module; writers without readers "
                            "cannot be round-trip tested",
                        )
                    )
            elif isinstance(node, ast.ClassDef):
                methods = {
                    m.name
                    for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                for member in node.body:
                    if not isinstance(
                        member, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue
                    expected = _pair_name(member.name)
                    if expected and expected not in methods:
                        out.append(
                            src.finding(
                                self.code,
                                member,
                                f"{node.name}.{member.name}() has no "
                                f"matching {expected}() on the class",
                            )
                        )
        return out

    def _check_dump(
        self, src: SourceFile, node: ast.Call, imports: ImportMap
    ) -> list[Finding]:
        name = imports.resolve(node.func)
        if name not in ("json.dump", "json.dumps"):
            return []
        for kw in node.keywords:
            if (
                kw.arg == "allow_nan"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is False
            ):
                return []
        return [
            src.finding(
                self.code,
                node,
                f"{name}() without allow_nan=False can emit non-RFC-8259 "
                "NaN/Infinity; map NaN to null first "
                "(see sim/serialization.py) and pass allow_nan=False",
            )
        ]


class FrozenMutationRule(Rule):
    code = "RPL006"
    title = "frozen dataclass mutated outside construction"
    rationale = (
        "object.__setattr__ outside __init__/__post_init__ mutates a value "
        "object other code hashes, digests, or shares by reference; build "
        "a new instance instead (dataclasses.replace)."
    )

    def check(self, src: SourceFile) -> list[Finding]:
        out: list[Finding] = []
        self._walk(src, src.tree.body, scope=None, out=out)
        return out

    def _walk(
        self,
        src: SourceFile,
        body: list[ast.stmt],
        scope: str | None,
        out: list[Finding],
    ) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk(src, node.body, scope=node.name, out=out)
            elif isinstance(node, ast.ClassDef):
                self._walk(src, node.body, scope=None, out=out)
            else:
                for call in ast.walk(node):
                    if (
                        isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "__setattr__"
                        and isinstance(call.func.value, ast.Name)
                        and call.func.value.id == "object"
                        and scope not in _CONSTRUCTION_SCOPES
                    ):
                        out.append(
                            src.finding(
                                self.code,
                                call,
                                "object.__setattr__ outside __init__/"
                                "__post_init__ mutates a frozen value "
                                "object; use dataclasses.replace or a "
                                "mutable holder",
                            )
                        )
