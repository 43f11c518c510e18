"""Deterministic project call graph for whole-program lint rules.

The graph is built from the same per-file *facts* documents the dataflow
engine extracts (`repro.statics.dataflow`): each file contributes its
module-qualified definitions (functions, classes with bases, inferred
attribute types) and every call site's *target descriptor* — either a
dotted name resolved through :class:`~repro.statics.core.ImportMap` at
extraction time, or a method call pending receiver-type resolution here.

Receiver types come from cheap, deterministic heuristics: parameter
annotations, ``AnnAssign`` declarations, constructor-call assignments,
return annotations of resolved callees, ``self`` bound to the defining
class, and attribute types inferred from ``__init__``.  A ``Union``/
``Optional`` annotation resolves to its first project class — a deliberate
conflation documented as a known false-negative shape (DESIGN.md).

Everything is sorted: same tree, same JSON, byte for byte.
"""

from __future__ import annotations

import ast
from typing import Any

from repro.statics.core import ImportMap

CALL_GRAPH_FORMAT_VERSION = 1

#: Targets whose leading path component is stripped before deriving the
#: module name (``src/repro/sim/engine.py`` -> ``repro.sim.engine``).
_SRC_PREFIX = "src/"


def module_name_for(rel: str) -> str:
    """Module name of a repo-root-relative path, forward slashes."""
    name = rel
    if name.startswith(_SRC_PREFIX):
        name = name[len(_SRC_PREFIX):]
    if name.endswith(".py"):
        name = name[:-3]
    if name.endswith("/__init__"):
        name = name[: -len("/__init__")]
    return name.replace("/", ".")


def _unparse_dotted(node: ast.expr) -> str | None:
    """``a.b.c`` as a string for plain Name/Attribute chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def annotation_name(
    node: ast.expr | None,
    imap: ImportMap,
    module: str,
    local_classes: set[str],
) -> str | None:
    """Best-effort dotted type name of an annotation expression.

    ``Optional[X]``/``Union[X, ...]``/``X | None`` unwrap to the first
    concrete alternative; generic containers (``list[X]``) resolve to
    nothing (the element type is not the receiver type).
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, str):
            return None
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
        return annotation_name(node, imap, module, local_classes)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        for side in (node.left, node.right):
            name = annotation_name(side, imap, module, local_classes)
            if name is not None and name != "None":
                return name
        return None
    if isinstance(node, ast.Subscript):
        head = _unparse_dotted(node.value)
        if head is None:
            return None
        tail = head.rsplit(".", 1)[-1]
        if tail in ("Optional", "Union"):
            inner = node.slice
            if isinstance(inner, ast.Tuple):
                for elt in inner.elts:
                    name = annotation_name(elt, imap, module, local_classes)
                    if name is not None and name != "None":
                        return name
                return None
            return annotation_name(inner, imap, module, local_classes)
        return None
    dotted = _unparse_dotted(node)
    if dotted is None:
        return None
    resolved = imap.resolve(node)
    if resolved is not None:
        return resolved
    if "." not in dotted and dotted in local_classes:
        return f"{module}.{dotted}"
    return dotted


def extract_defs(
    tree: ast.Module, rel: str, imap: ImportMap
) -> dict[str, Any]:
    """The definition side of a file's facts document (JSON-able).

    ``{"module": ..., "functions": {name: FN}, "classes": {name: CLS}}``
    where ``FN = {"line", "params", "ret", "static"}`` and
    ``CLS = {"line", "bases": [dotted], "methods": {name: FN},
    "attrs": {attr: dotted-type}}``.
    """
    module = module_name_for(rel)
    local_classes = {
        node.name for node in tree.body if isinstance(node, ast.ClassDef)
    }

    # Module-level imports double as re-exports: ``from repro.experiments
    # import execute_run`` at a call site spells the function as
    # ``repro.experiments.execute_run`` even though it is *defined* in
    # ``repro.experiments.runner`` — the index chases these maps.
    is_init = rel.endswith("__init__.py")
    package = module if is_init else module.rpartition(".")[0]
    reexports: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                parts = package.split(".") if package else []
                parts = parts[: len(parts) - (node.level - 1)]
                if node.module:
                    parts.append(node.module)
                base = ".".join(parts)
            if not base:
                continue
            for alias in node.names:
                if alias.name != "*":
                    reexports[alias.asname or alias.name] = (
                        f"{base}.{alias.name}"
                    )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    reexports[alias.asname] = alias.name

    def fn_entry(node: ast.FunctionDef | ast.AsyncFunctionDef) -> dict[str, Any]:
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args]
        kwonly = [a.arg for a in args.kwonlyargs]
        anns: dict[str, str] = {}
        for a in args.posonlyargs + args.args + args.kwonlyargs:
            name = annotation_name(a.annotation, imap, module, local_classes)
            if name is not None:
                anns[a.arg] = name
        static = any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list
        )
        return {
            "line": node.lineno,
            "params": params,
            "kwonly": kwonly,
            "anns": anns,
            "ret": annotation_name(node.returns, imap, module, local_classes),
            "static": static,
        }

    def class_attrs(node: ast.ClassDef) -> dict[str, str]:
        """Attribute types from class-level AnnAssign and ``__init__``."""
        attrs: dict[str, str] = {}

        def note(attr: str, type_name: str | None) -> None:
            if type_name is not None and attr not in attrs:
                attrs[attr] = type_name

        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                note(
                    stmt.target.id,
                    annotation_name(
                        stmt.annotation, imap, module, local_classes
                    ),
                )
        init = next(
            (
                s
                for s in node.body
                if isinstance(s, ast.FunctionDef) and s.name == "__init__"
            ),
            None,
        )
        if init is None:
            return attrs
        param_anns = {
            a.arg: annotation_name(a.annotation, imap, module, local_classes)
            for a in init.args.posonlyargs
            + init.args.args
            + init.args.kwonlyargs
        }

        def value_type(value: ast.expr) -> str | None:
            if isinstance(value, ast.Name):
                return param_anns.get(value.id)
            if isinstance(value, ast.Call):
                dotted = _unparse_dotted(value.func)
                if dotted is None:
                    return None
                resolved = imap.resolve(value.func)
                if resolved is not None:
                    return resolved
                if "." not in dotted and dotted in local_classes:
                    return f"{module}.{dotted}"
                return dotted
            if isinstance(value, ast.IfExp):
                return value_type(value.body) or value_type(value.orelse)
            return None

        for stmt in ast.walk(init):
            if isinstance(stmt, ast.AnnAssign):
                target = stmt.target
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    note(
                        target.attr,
                        annotation_name(
                            stmt.annotation, imap, module, local_classes
                        ),
                    )
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    note(target.attr, value_type(stmt.value))
        return attrs

    functions: dict[str, Any] = {}
    classes: dict[str, Any] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = fn_entry(node)
        elif isinstance(node, ast.ClassDef):
            bases: list[str] = []
            for base in node.bases:
                name = annotation_name(base, imap, module, local_classes)
                if name is not None:
                    bases.append(name)
            methods = {
                s.name: fn_entry(s)
                for s in node.body
                if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            classes[node.name] = {
                "line": node.lineno,
                "bases": bases,
                "methods": methods,
                "attrs": class_attrs(node),
            }
    return {
        "module": module,
        "functions": functions,
        "classes": classes,
        "reexports": reexports,
    }


class ProjectIndex:
    """All project definitions, addressable by qualified name.

    Function qualnames are ``module.func`` / ``module.Class.method``;
    class qualnames are ``module.Class``.
    """

    def __init__(self, facts_by_rel: dict[str, dict[str, Any]]) -> None:
        #: qualname -> {"rel", "line", "params", "kwonly", "anns", "ret",
        #:              "static", "cls" (class qualname or None)}
        self.functions: dict[str, dict[str, Any]] = {}
        #: class qualname -> {"rel", "bases", "attrs", "methods": {name}}
        self.classes: dict[str, dict[str, Any]] = {}
        self.modules: set[str] = set()
        #: module -> {local name: dotted target} (import re-exports).
        self.reexports: dict[str, dict[str, str]] = {}
        for rel in sorted(facts_by_rel):
            defs = facts_by_rel[rel]["defs"]
            module = defs["module"]
            self.modules.add(module)
            reexports = defs.get("reexports", {})
            if reexports:
                self.reexports[module] = dict(reexports)
            for name, fn in defs["functions"].items():
                qn = f"{module}.{name}"
                self.functions[qn] = {**fn, "rel": rel, "cls": None}
            for cname, cls in defs["classes"].items():
                cqn = f"{module}.{cname}"
                self.classes[cqn] = {
                    "rel": rel,
                    "bases": list(cls["bases"]),
                    "attrs": dict(cls["attrs"]),
                    "methods": sorted(cls["methods"]),
                }
                for mname, fn in cls["methods"].items():
                    self.functions[f"{cqn}.{mname}"] = {
                        **fn,
                        "rel": rel,
                        "cls": cqn,
                    }

    def resolve_class(self, dotted: str | None) -> str | None:
        if dotted is None:
            return None
        if dotted in self.classes:
            return dotted
        resolved = self.resolve_dotted(dotted)
        if resolved is not None and resolved[0] == "ctor":
            return resolved[1]
        return None

    def method_on(self, class_qn: str, attr: str) -> str | None:
        """Resolve ``<instance of class_qn>.attr()`` walking project bases."""
        seen: set[str] = set()
        stack = [class_qn]
        while stack:
            cqn = stack.pop(0)
            if cqn in seen or cqn not in self.classes:
                continue
            seen.add(cqn)
            qn = f"{cqn}.{attr}"
            if qn in self.functions:
                return qn
            stack.extend(self.classes[cqn]["bases"])
        return None

    def resolve_dotted(self, dotted: str | None) -> tuple[str, str] | None:
        """``("func", qualname)`` or ``("ctor", class qualname)``.

        Accepts ``module.func``, ``module.Class`` (a constructor call) and
        ``module.Class.method``; anything else is external.
        """
        if dotted is None:
            return None
        if dotted in self.functions:
            return ("func", dotted)
        if dotted in self.classes:
            return ("ctor", dotted)
        head, _, attr = dotted.rpartition(".")
        if head in self.classes:
            qn = self.method_on(head, attr)
            if qn is not None:
                return ("func", qn)
        return self._chase_reexport(dotted)

    def _chase_reexport(
        self, dotted: str, depth: int = 0
    ) -> tuple[str, str] | None:
        """Resolve through package re-exports (bounded chase)."""
        if depth >= 5:
            return None
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:i])
            exported = self.reexports.get(module)
            if exported is not None and parts[i] in exported:
                target = ".".join([exported[parts[i]], *parts[i + 1 :]])
                if target == dotted:
                    return None
                if target in self.functions:
                    return ("func", target)
                if target in self.classes:
                    return ("ctor", target)
                head, _, attr = target.rpartition(".")
                if head in self.classes:
                    qn = self.method_on(head, attr)
                    if qn is not None:
                        return ("func", qn)
                return self._chase_reexport(target, depth + 1)
            if module in self.modules:
                return None
        return None


def local_type_env(
    index: ProjectIndex, qn: str, facts_fn: dict[str, Any]
) -> dict[str, str]:
    """Variable -> class-qualname map for one function.

    Sources, in priority order per variable (first clue wins, matching
    extraction order): parameter annotations, ``AnnAssign``, constructor
    assignments, return annotations of resolved callees.  ``self`` binds
    to the defining class.
    """
    env: dict[str, str] = {}
    fn = index.functions[qn]
    if fn["cls"] is not None and not fn["static"]:
        env["self"] = fn["cls"]
    for param, ann in fn["anns"].items():
        cls = index.resolve_class(ann)
        if cls is not None and param not in env:
            env[param] = cls
    for var, clue in facts_fn.get("clues", {}).items():
        if var in env:
            continue
        kind = clue.get("c")
        if kind == "ann":
            cls = index.resolve_class(clue.get("t"))
        elif kind == "ctor":
            resolved = index.resolve_dotted(clue.get("t"))
            if resolved is None:
                cls = None
            elif resolved[0] == "ctor":
                cls = resolved[1]
            else:
                cls = index.resolve_class(
                    index.functions[resolved[1]]["ret"]
                )
        else:
            cls = None
        if cls is not None:
            env[var] = cls
    return env


def resolve_call(
    index: ProjectIndex,
    caller_qn: str,
    record: dict[str, Any],
    type_env: dict[str, str],
) -> tuple[str, str] | None:
    """Resolve one call record to ``("func"|"ctor", qualname)`` or None.

    Method calls go through the receiver's inferred type; attribute types
    of ``self.<attr>`` come from the defining class's ``__init__``
    heuristics.
    """
    target = record["target"]
    kind = target.get("kind")
    if kind == "dotted":
        return index.resolve_dotted(target["name"])
    if kind != "method":
        return None
    recv = target["recv"]
    recv_type: str | None = None
    if recv["r"] == "var":
        recv_type = type_env.get(recv["id"])
    elif recv["r"] == "selfattr":
        own = index.functions[caller_qn]["cls"]
        if own is not None and own in index.classes:
            recv_type = index.resolve_class(
                index.classes[own]["attrs"].get(recv["attr"])
            )
    if recv_type is None:
        return None
    qn = index.method_on(recv_type, target["attr"])
    return ("func", qn) if qn is not None else None


class CallGraph:
    """Resolved adjacency over every project function, sorted throughout."""

    def __init__(
        self,
        index: ProjectIndex,
        facts_by_rel: dict[str, dict[str, Any]],
    ) -> None:
        self.index = index
        #: caller qualname -> sorted tuple of callee qualnames (functions
        #: and constructed classes alike).
        self.calls: dict[str, tuple[str, ...]] = {}
        #: callee qualname -> sorted tuple of caller qualnames.
        self.callers: dict[str, list[str]] = {}
        #: (caller qualname, call index) -> ("func"|"ctor", qualname)
        self.resolved: dict[tuple[str, int], tuple[str, str]] = {}
        self.type_envs: dict[str, dict[str, str]] = {}
        for rel in sorted(facts_by_rel):
            for qn in sorted(facts_by_rel[rel]["functions"]):
                fn_facts = facts_by_rel[rel]["functions"][qn]
                env = local_type_env(index, qn, fn_facts)
                self.type_envs[qn] = env
                out: set[str] = set()
                for record in fn_facts["calls"]:
                    resolved = resolve_call(index, qn, record, env)
                    if resolved is None:
                        continue
                    self.resolved[(qn, record["i"])] = resolved
                    out.add(resolved[1])
                self.calls[qn] = tuple(sorted(out))
        for caller in sorted(self.calls):
            for callee in self.calls[caller]:
                self.callers.setdefault(callee, []).append(caller)

    def entry_points(self) -> tuple[str, ...]:
        """Functions no project call site resolves to, sorted.

        Constructors don't count as callers of ``__init__``; dynamically
        dispatched functions (CLI ``args.func``, pool workers) land here
        by design — they are exactly the frames nothing above can contain.
        """
        return tuple(
            qn
            for qn in sorted(self.index.functions)
            if qn not in self.callers
        )

    def as_dict(self) -> dict[str, Any]:
        """Sorted, diffable JSON document (``repro lint --call-graph``)."""
        functions = {}
        for qn in sorted(self.index.functions):
            fn = self.index.functions[qn]
            functions[qn] = {
                "path": fn["rel"],
                "line": fn["line"],
                "calls": list(self.calls.get(qn, ())),
            }
        return {
            "format_version": CALL_GRAPH_FORMAT_VERSION,
            "functions": functions,
        }
