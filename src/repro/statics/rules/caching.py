"""RPL005: memo caches over refittable perf-model state need a version key.

``PerfModelStore`` is *refittable*: an online refit replaces a model's
fitted parameters mid-run and bumps ``model_version(name)``.  Any memo that
caches a store-derived value without consulting a version serves stale
predictions after the refit — exactly the bug class PR 1 centralized the
plan-evaluation engine to kill and PR 5's cache audit re-fixed by hand
(DESIGN.md 32–34).

The rule is a class-level heuristic: a class that (a) reaches into a perf
store and (b) holds a dict whose name says it is a cache/memo must (c) show
*some* version discipline — a ``version``-named key, a version-carrying
value tuple, or a version check anywhere in the class.  ``functools``
caches on store-reading callables are flagged unconditionally: ``lru_cache``
has no invalidation hook at all.
"""

from __future__ import annotations

import ast

from repro.statics.core import Finding, ImportMap, Rule, SourceFile

_STORE_NAMES = {"perf_store", "PerfModelStore"}


def _mentions(tree: ast.AST, predicate) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and predicate(node.id):
            return True
        if isinstance(node, ast.Attribute) and predicate(node.attr):
            return True
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) and predicate(node.name):
            return True
    return False


def _is_memo_name(name: str) -> bool:
    lowered = name.lower()
    return "cache" in lowered or "memo" in lowered


def _is_dict_init(value: ast.expr | None) -> bool:
    if isinstance(value, ast.Dict):
        return True
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "dict"
    )


class CacheSoundnessRule(Rule):
    code = "RPL005"
    title = "store-derived memo without a model_version key"
    rationale = (
        "PerfModelStore refits bump model_version; a memo over store "
        "reads that never consults a version serves stale predictions "
        "after a refit. Key (or value-tag) the memo with model_version, "
        "or route through the versioned PlanEvalEngine (DESIGN.md 32-34)."
    )

    def check(self, src: SourceFile) -> list[Finding]:
        imports = src.imports
        out: list[Finding] = []
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ClassDef):
                out.extend(self._check_class(src, node))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.extend(self._check_functools(src, node, imports))
        return out

    def _check_class(
        self, src: SourceFile, cls: ast.ClassDef
    ) -> list[Finding]:
        if not _mentions(cls, lambda n: n in _STORE_NAMES):
            return []
        if _mentions(cls, lambda n: "version" in n.lower()):
            return []  # some version discipline is visible; trust it
        out: list[Finding] = []
        for node in ast.walk(cls):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and _is_memo_name(target.attr)
                and _is_dict_init(value)
            ):
                out.append(
                    src.finding(
                        self.code,
                        node,
                        f"memo dict self.{target.attr} in a store-reading "
                        f"class ({cls.name}) shows no model_version "
                        "discipline; stale entries will survive refits",
                    )
                )
        return out

    def _check_functools(
        self,
        src: SourceFile,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        imports: ImportMap,
    ) -> list[Finding]:
        decorated = False
        for dec in fn.decorator_list:
            node = dec.func if isinstance(dec, ast.Call) else dec
            name = imports.resolve(node)
            if name in ("functools.lru_cache", "functools.cache"):
                decorated = True
        if not decorated:
            return []
        if not _mentions(fn, lambda n: n in _STORE_NAMES):
            return []
        return [
            src.finding(
                self.code,
                fn,
                f"lru_cache on {fn.name}() caches across PerfModelStore "
                "refits with no invalidation hook; use the versioned "
                "PlanEvalEngine or a version-keyed memo",
            )
        ]
