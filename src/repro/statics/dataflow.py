"""Interprocedural dataflow: per-function summaries to fixpoint.

The engine answers one question for the flow rules (``rules/flow.py``):
*can a value produced here reach a sink over there, through any number of
calls?*  It does so in two phases:

1. **Extraction** (per file): each function body compiles to a small
   JSON-able IR — assignment/return ops over *expression taint
   templates*, call records with resolved-or-pending targets, entropy
   sources, and fault-seam calls with their lexical containment.
2. **Solving** (global): a
   worklist fixpoint interprets each function's IR against the current
   summaries of its callees (resolved via :mod:`repro.statics.callgraph`),
   producing per-function summaries — which params/returns carry taint,
   which params reach sinks — plus concrete source→sink hits with a
   reconstructed hop trail for ``--explain``.

The abstract value lattice is deliberately modest (the "soundness
bargain", DESIGN.md): per-variable whole-object taint plus one level of
field sensitivity (constructor keywords, ``x.attr`` loads/stores), tuple
element tracking across literal returns, flow- and path-insensitive,
context-insensitive.  Known false-negative shapes are documented with the
rules; everything tracked is tracked deterministically — sorted worklists,
first-wins trails — so reports are byte-identical across runs and hosts.
"""

from __future__ import annotations

import ast
from typing import Any

from repro.statics.callgraph import (
    CallGraph,
    ProjectIndex,
    extract_defs,
)
from repro.statics.core import ImportMap, SourceFile

# ----------------------------------------------------------------------
# Taint inventory (RPL008)
# ----------------------------------------------------------------------
#: Calls whose return value is ambient entropy: wall clocks (including the
#: perf timers RPL001 exempts in benchmarks/ — a *flow* into a persisted
#: document is a bug wherever it starts), process identity, host identity.
SOURCE_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.getpid",
    "os.getppid",
    "os.urandom",
    "os.getenv",
    "socket.gethostname",
    "platform.node",
    "platform.uname",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_hex",
    "secrets.token_bytes",
    "secrets.token_urlsafe",
    "secrets.randbelow",
}
#: Module prefixes treated as sources wholesale (process-global RNG).
SOURCE_PREFIXES = ("random.", "numpy.random.")
#: Exceptions to the prefixes: seeded constructors are deterministic.
SOURCE_PREFIX_OK = {
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.Philox",
    "numpy.random.bit_generator",
}
#: Ambient attribute reads (no call involved).
SOURCE_ATTRS = {"os.environ"}
#: Persisted-document sinks by resolved dotted name: serialization and
#: digest entry points.
SINK_CALLS = {
    "json.dump",
    "json.dumps",
    "pickle.dump",
    "pickle.dumps",
    "hashlib.sha1",
    "hashlib.sha256",
    "hashlib.sha512",
    "hashlib.md5",
    "hashlib.blake2b",
    "hashlib.new",
    "repro.service.protocol.encode_frame",
}
#: Method-attr sinks used when the receiver cannot be resolved to a
#: project function (resolved calls flow through summaries instead).
SINK_METHOD_ATTRS = {"encode_frame", "append_meta", "save_failure", "write_spec"}
#: Builtins whose return is order/entropy-free regardless of arguments.
SANITIZERS = {"len", "isinstance", "type", "hasattr", "callable"}

#: Handler body calls that count as recording an incident / quarantining.
_RECORDING_MARKERS = ("incident", "quarantine", "save_failure", "error_frame")
#: Receiver spellings that mark a ``.check()``/``.mangle()`` call as a
#: fault seam.
_SEAM_ATTRS = ("check", "mangle")

_MAX_TRAIL = 16
_MAX_ELEM_DEPTH = 3


def _dotted_of(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_source_call(dotted: str) -> bool:
    if dotted in SOURCE_CALLS:
        return True
    if dotted in SOURCE_PREFIX_OK:
        return False
    return dotted.startswith(SOURCE_PREFIXES)


# ----------------------------------------------------------------------
# Extraction: AST -> per-function IR
# ----------------------------------------------------------------------
class _FunctionExtractor:
    """Compile one function body to the dataflow IR (JSON-able dicts)."""

    def __init__(
        self,
        module: str,
        imap: ImportMap,
        local_defs: set[str],
        params: set[str],
    ) -> None:
        self.module = module
        self.imap = imap
        self.local_defs = local_defs
        self.params = params
        self.ops: list[dict[str, Any]] = []
        self.calls: list[dict[str, Any]] = []
        self.seams: list[dict[str, Any]] = []
        self.clues: dict[str, dict[str, Any]] = {}
        self._contained = False

    # -- expression taint templates ------------------------------------
    def _many(self, nodes: list[ast.expr]) -> dict[str, Any]:
        parts = [self._ett(n) for n in nodes]
        parts = [p for p in parts if p["k"] not in ("const", "none")]
        if not parts:
            return {"k": "const"}
        if len(parts) == 1:
            return parts[0]
        return {"k": "many", "xs": parts}

    def _ett(self, node: ast.expr | None) -> dict[str, Any]:
        if node is None:
            return {"k": "const"}
        if isinstance(node, ast.Constant):
            return {"k": "none"} if node.value is None else {"k": "const"}
        if isinstance(node, ast.Name):
            return {"k": "name", "id": node.id}
        if isinstance(node, ast.Attribute):
            resolved = self.imap.resolve(node)
            if resolved in SOURCE_ATTRS:
                return {
                    "k": "src",
                    "name": resolved,
                    "line": node.lineno,
                    "col": node.col_offset,
                }
            if isinstance(node.value, ast.Name):
                return {
                    "k": "attr",
                    "base": node.value.id,
                    "attr": node.attr,
                }
            return self._many([node.value])
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Tuple):
            return {"k": "tup", "xs": [self._ett(e) for e in node.elts]}
        if isinstance(node, (ast.List, ast.Set)):
            return self._many(list(node.elts))
        if isinstance(node, ast.Dict):
            parts = [k for k in node.keys if k is not None]
            parts.extend(node.values)
            return self._many(parts)
        if isinstance(node, ast.BinOp):
            return self._many([node.left, node.right])
        if isinstance(node, ast.UnaryOp):
            return self._ett(node.operand)
        if isinstance(node, ast.BoolOp):
            return self._many(list(node.values))
        if isinstance(node, ast.Compare):
            return self._many([node.left, *node.comparators])
        if isinstance(node, ast.IfExp):
            return self._many([node.body, node.orelse])
        if isinstance(node, ast.JoinedStr):
            return self._many(
                [
                    v.value
                    for v in node.values
                    if isinstance(v, ast.FormattedValue)
                ]
            )
        if isinstance(node, ast.Subscript):
            return self._many([node.value])
        if isinstance(node, ast.Starred):
            return self._ett(node.value)
        if isinstance(node, ast.Await):
            return self._ett(node.value)
        if isinstance(node, ast.NamedExpr):
            value = self._ett(node.value)
            self._assign(node.target, value)
            return value
        if isinstance(
            node, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)
        ):
            for gen in node.generators:
                self._assign(gen.target, self._ett(gen.iter))
            if isinstance(node, ast.DictComp):
                return self._many([node.key, node.value])
            return self._ett(node.elt)
        if isinstance(node, ast.Lambda):
            return {"k": "const"}
        return {"k": "const"}

    def _call_dotted(self, func: ast.expr) -> str | None:
        """Resolve a callable expression to a dotted name when possible."""
        if isinstance(func, ast.Name):
            if func.id in self.local_defs and func.id not in self.params:
                return f"{self.module}.{func.id}"
            resolved = self.imap.resolve(func)
            return resolved
        resolved = self.imap.resolve(func)
        if resolved is not None:
            return resolved
        # `Cls.method` / `helper.thing` spelled through a module-local def.
        dotted = _dotted_of(func)
        if dotted is not None:
            head = dotted.split(".", 1)[0]
            if head in self.local_defs and head not in self.params:
                return f"{self.module}.{dotted}"
        return None

    def _call(self, node: ast.Call) -> dict[str, Any]:
        args: list[dict[str, Any]] = []
        star = False
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                star = True
                args.append(self._ett(arg.value))
            else:
                args.append(self._ett(arg))
        kwargs: dict[str, dict[str, Any]] = {}
        splat: list[dict[str, Any]] = []
        for kw in node.keywords:
            if kw.arg is None:
                splat.append(self._ett(kw.value))
            else:
                kwargs[kw.arg] = self._ett(kw.value)

        dotted = self._call_dotted(node.func)
        target: dict[str, Any]
        recv_ett: dict[str, Any] | None = None
        if dotted is not None:
            target = {"kind": "dotted", "name": dotted}
        elif isinstance(node.func, ast.Attribute):
            base = node.func.value
            recv: dict[str, Any]
            if isinstance(base, ast.Name):
                recv = {"r": "var", "id": base.id}
            elif (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
            ):
                recv = {"r": "selfattr", "attr": base.attr}
            else:
                recv = {"r": "other"}
            # The receiver expression itself may nest calls/sources
            # (``hashlib.sha256(x).hexdigest()``): walk it so they are
            # recorded, and keep the template for receiver taint.
            recv_ett = self._ett(base)
            target = {"kind": "method", "attr": node.func.attr, "recv": recv}
        elif isinstance(node.func, ast.Name):
            target = {"kind": "name", "name": node.func.id}
        else:
            recv_ett = self._ett(node.func)
            target = {"kind": "unknown"}

        record: dict[str, Any] = {
            "i": len(self.calls),
            "line": node.lineno,
            "col": node.col_offset,
            "target": target,
            "args": args,
            "kwargs": kwargs,
            "splat": splat,
            "star": star,
            "contained": self._contained,
        }
        if recv_ett is not None and recv_ett["k"] not in ("const", "none"):
            record["recv_ett"] = recv_ett
        if dotted is not None:
            if _is_source_call(dotted):
                record["source"] = dotted
            elif dotted in SINK_CALLS:
                record["sink"] = dotted
        elif target["kind"] == "name" and target["name"] in SANITIZERS:
            record["sanitizer"] = True
        if (
            target["kind"] == "method"
            and target["attr"] in SINK_METHOD_ATTRS
        ):
            record["sink_attr"] = target["attr"]
        if (
            target["kind"] == "method"
            and target["attr"] in _SEAM_ATTRS
            and self._injectorish(target["recv"])
        ):
            seam = "?"
            if node.args and isinstance(node.args[0], ast.Constant):
                if isinstance(node.args[0].value, str):
                    seam = node.args[0].value
            self.seams.append(
                {
                    "line": node.lineno,
                    "col": node.col_offset,
                    "seam": seam,
                    "recv": target["recv"],
                    "contained": self._contained,
                }
            )
        self.calls.append(record)
        return {"k": "call", "i": record["i"]}

    @staticmethod
    def _injectorish(recv: dict[str, Any]) -> bool:
        if recv["r"] == "var":
            return "injector" in recv["id"].lower()
        if recv["r"] == "selfattr":
            return "injector" in recv["attr"].lower()
        return False

    # -- statements ----------------------------------------------------
    def _target(self, node: ast.expr) -> dict[str, Any]:
        if isinstance(node, ast.Name):
            return {"t": "n", "id": node.id}
        if isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ):
            return {"t": "f", "id": node.value.id, "attr": node.attr}
        if isinstance(node, ast.Subscript):
            return self._target(node.value)
        if isinstance(node, (ast.Tuple, ast.List)):
            ids: list[str | None] = []
            for elt in node.elts:
                if isinstance(elt, ast.Starred):
                    elt = elt.value
                ids.append(elt.id if isinstance(elt, ast.Name) else None)
            return {"t": "u", "ids": ids}
        return {"t": "x"}

    def _assign(self, target: ast.expr, value: dict[str, Any]) -> None:
        self.ops.append(
            {"op": "as", "t": [self._target(target)], "v": value}
        )

    def _note_clue(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            if stmt.target.id not in self.clues:
                from repro.statics.callgraph import annotation_name

                name = annotation_name(
                    stmt.annotation, self.imap, self.module, self.local_defs
                )
                if name is not None:
                    self.clues[stmt.target.id] = {"c": "ann", "t": name}
            return
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            return
        target = stmt.targets[0]
        if not isinstance(target, ast.Name) or target.id in self.clues:
            return
        value = stmt.value
        if isinstance(value, ast.IfExp):
            # `x = A(...) if cond else None` — either branch that is a
            # constructor call supplies the type clue.
            for branch in (value.body, value.orelse):
                if isinstance(branch, ast.Call):
                    value = branch
                    break
        if isinstance(value, ast.Call):
            dotted = self._call_dotted(value.func)
            if dotted is not None:
                self.clues[target.id] = {"c": "ctor", "t": dotted}

    def _is_containing(self, node: ast.Try) -> bool:
        for handler in node.handlers:
            if self._broad_or_injected(handler.type) and (
                self._records_or_converts(handler.body)
            ):
                return True
        return False

    @staticmethod
    def _broad_or_injected(type_node: ast.expr | None) -> bool:
        if type_node is None:
            return True
        if isinstance(type_node, ast.Tuple):
            return any(
                _FunctionExtractor._broad_or_injected(e)
                for e in type_node.elts
            )
        name = _dotted_of(type_node)
        if name is None:
            return False
        tail = name.rsplit(".", 1)[-1]
        return tail in ("Exception", "BaseException") or tail.startswith(
            "Injected"
        )

    @staticmethod
    def _records_or_converts(body: list[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    name = _dotted_of(node.func)
                    tail = (
                        name.rsplit(".", 1)[-1].lower()
                        if name is not None
                        else ""
                    )
                    if any(m in tail for m in _RECORDING_MARKERS):
                        return True
                elif isinstance(node, ast.Raise) and isinstance(
                    node.exc, ast.Call
                ):
                    return True
        return False

    def walk(self, body: list[ast.stmt], contained: bool) -> None:
        for stmt in body:
            self._contained = contained
            if isinstance(
                stmt,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue  # nested scope: out of this function's frame
            self._note_clue(stmt)
            if isinstance(stmt, ast.Try):
                inner = contained or self._is_containing(stmt)
                self.walk(stmt.body, inner)
                for handler in stmt.handlers:
                    self.walk(handler.body, contained)
                self.walk(stmt.orelse, contained)
                self.walk(stmt.finalbody, contained)
            elif isinstance(stmt, (ast.If, ast.While)):
                self.ops.append({"op": "ev", "v": self._ett(stmt.test)})
                self.walk(stmt.body, contained)
                self.walk(stmt.orelse, contained)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._assign(stmt.target, self._ett(stmt.iter))
                self.walk(stmt.body, contained)
                self.walk(stmt.orelse, contained)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    ctx = self._ett(item.context_expr)
                    if item.optional_vars is not None:
                        self._assign(item.optional_vars, ctx)
                    else:
                        self.ops.append({"op": "ev", "v": ctx})
                self.walk(stmt.body, contained)
            elif isinstance(stmt, ast.Assign):
                value = self._ett(stmt.value)
                self.ops.append(
                    {
                        "op": "as",
                        "t": [self._target(t) for t in stmt.targets],
                        "v": value,
                    }
                )
            elif isinstance(stmt, ast.AugAssign):
                value = self._many([stmt.target, stmt.value])
                self._assign(stmt.target, value)
            elif isinstance(stmt, ast.AnnAssign):
                if stmt.value is not None:
                    self._assign(stmt.target, self._ett(stmt.value))
            elif isinstance(stmt, ast.Return):
                self.ops.append({"op": "ret", "v": self._ett(stmt.value)})
            elif isinstance(stmt, ast.Expr):
                self.ops.append({"op": "ev", "v": self._ett(stmt.value)})
            elif isinstance(stmt, ast.Assert):
                self.ops.append(
                    {"op": "ev", "v": self._many([stmt.test])}
                )
            elif isinstance(stmt, ast.Raise):
                parts = [e for e in (stmt.exc, stmt.cause) if e is not None]
                if parts:
                    self.ops.append({"op": "ev", "v": self._many(parts)})
            elif isinstance(stmt, ast.Match):
                self.ops.append({"op": "ev", "v": self._ett(stmt.subject)})
                for case in stmt.cases:
                    self.walk(case.body, contained)
            # Pass/Break/Continue/Import/Global/Nonlocal/Delete: no flow.
        self._contained = contained


def extract_file_facts(
    tree: ast.Module, rel: str, imap: ImportMap
) -> dict[str, Any]:
    """The complete facts document of one file (defs + function IRs)."""
    defs = extract_defs(tree, rel, imap)
    module = defs["module"]
    local_defs = set(defs["functions"]) | set(defs["classes"])
    functions: dict[str, dict[str, Any]] = {}

    def extract_fn(
        qn: str, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        args = node.args
        params = {
            a.arg
            for a in args.posonlyargs + args.args + args.kwonlyargs
        }
        ex = _FunctionExtractor(module, imap, local_defs, params)
        ex.walk(node.body, False)
        functions[qn] = {
            "line": node.lineno,
            "ops": ex.ops,
            "calls": ex.calls,
            "seams": ex.seams,
            "clues": ex.clues,
        }

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            extract_fn(f"{module}.{node.name}", node)
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    extract_fn(f"{module}.{node.name}.{sub.name}", sub)
    return {"defs": defs, "functions": functions}


# ----------------------------------------------------------------------
# Abstract values
# ----------------------------------------------------------------------
#: Atom keys: ("s", name, rel, line, col) — a real entropy source;
#: ("p", qualname, index) — "flows from parameter <index> of <qualname>".
Atom = tuple
#: A trail is a tuple of hops: (rel, line, description).
Trail = tuple


class AVal:
    """One abstract value: whole-object atoms, field atoms, tuple elems."""

    __slots__ = ("atoms", "fields", "elems")

    def __init__(self) -> None:
        self.atoms: dict[Atom, Trail] = {}
        self.fields: dict[str, dict[Atom, Trail]] = {}
        self.elems: list["AVal"] | None = None

    def is_empty(self) -> bool:
        return not self.atoms and not self.fields and self.elems is None

    def flat(self) -> dict[Atom, Trail]:
        """Every atom reachable anywhere in the value (first-wins)."""
        out: dict[Atom, Trail] = dict(self.atoms)
        for atoms in self.fields.values():
            for atom, trail in atoms.items():
                out.setdefault(atom, trail)
        if self.elems is not None:
            for elem in self.elems:
                for atom, trail in elem.flat().items():
                    out.setdefault(atom, trail)
        return out

    def merge(self, other: "AVal") -> None:
        _merge_atoms(self.atoms, other.atoms)
        for name, atoms in other.fields.items():
            _merge_atoms(self.fields.setdefault(name, {}), atoms)
        if other.elems is not None:
            if self.elems is None and not self.atoms and not self.fields:
                self.elems = [_copy_aval(e) for e in other.elems]
            elif self.elems is not None and len(self.elems) == len(
                other.elems
            ):
                for mine, theirs in zip(self.elems, other.elems):
                    mine.merge(theirs)
            else:  # arity mismatch: collapse to whole-object taint
                _merge_atoms(self.atoms, other.flat())

    def sig(self) -> tuple:
        """Structure signature for change detection (trails excluded)."""
        return (
            frozenset(self.atoms),
            tuple(
                (name, frozenset(self.fields[name]))
                for name in sorted(self.fields)
                if self.fields[name]
            ),
            None
            if self.elems is None
            else tuple(e.sig() for e in self.elems),
        )


def _merge_atoms(dst: dict[Atom, Trail], src: dict[Atom, Trail]) -> None:
    for atom, trail in src.items():
        dst.setdefault(atom, trail)


def _copy_aval(val: AVal) -> AVal:
    out = AVal()
    out.merge(val)
    return out


def _from_atoms(atoms: dict[Atom, Trail]) -> AVal:
    out = AVal()
    out.atoms.update(atoms)
    return out


def _extend_trail(trail: Trail, hop: tuple) -> Trail:
    if len(trail) >= _MAX_TRAIL:
        return trail
    return trail + (hop,)


# ----------------------------------------------------------------------
# Hits (solver output consumed by the rules)
# ----------------------------------------------------------------------
class FlowHit:
    """One concrete source→sink flow, anchored where it is actionable."""

    __slots__ = ("source", "sink", "anchor", "trail")

    def __init__(
        self,
        source: tuple[str, str, int, int],
        sink: tuple[str, str, int, int],
        anchor: tuple[str, int, int],
        trail: Trail,
    ) -> None:
        self.source = source  # (name, rel, line, col)
        self.sink = sink  # (name, rel, line, col)
        self.anchor = anchor  # (rel, line, col)
        self.trail = trail

    def sort_key(self) -> tuple:
        return (self.anchor, self.source, self.sink)


class EscapeHit:
    """One fault seam whose exception can escape an entry point."""

    __slots__ = ("entry", "seam", "origin", "anchor", "chain")

    def __init__(
        self,
        entry: str,
        seam: str,
        origin: tuple[str, int, int],
        anchor: tuple[str, int, int],
        chain: tuple,
    ) -> None:
        self.entry = entry  # entry-point qualname
        self.seam = seam  # seam name ("worker-crash", ...)
        self.origin = origin  # (rel, line, col) of the armed call
        self.anchor = anchor  # (rel, line, col) in the entry function
        self.chain = chain  # hops origin -> entry

    def sort_key(self) -> tuple:
        return (self.anchor, self.entry, self.seam, self.origin)


# ----------------------------------------------------------------------
# The solver
# ----------------------------------------------------------------------
class _Summary:
    __slots__ = ("ret", "param_sinks")

    def __init__(self) -> None:
        self.ret = AVal()
        #: param index -> {(sink name, rel, line, col): inner trail}
        self.param_sinks: dict[int, dict[tuple, Trail]] = {}

    def sig(self) -> tuple:
        return (
            self.ret.sig(),
            tuple(
                (i, frozenset(self.param_sinks[i]))
                for i in sorted(self.param_sinks)
                if self.param_sinks[i]
            ),
        )


class FlowSolver:
    """Worklist fixpoint over the project call graph."""

    def __init__(
        self,
        index: ProjectIndex,
        graph: CallGraph,
        fn_facts: dict[str, dict[str, Any]],
    ) -> None:
        self.index = index
        self.graph = graph
        self.fn_facts = fn_facts
        self.summaries: dict[str, _Summary] = {
            qn: _Summary() for qn in fn_facts
        }
        self._hits: dict[tuple, FlowHit] = {}
        self._solved = False

    # -- public API ----------------------------------------------------
    def solve(self) -> None:
        if self._solved:
            return
        order = sorted(self.fn_facts)
        pending = list(order)
        queued = set(order)
        budget = 50 * max(1, len(order))
        while pending and budget:
            budget -= 1
            qn = pending.pop(0)
            queued.discard(qn)
            if self._interpret(qn):
                for caller in self.graph.callers.get(qn, ()):
                    if caller in self.fn_facts and caller not in queued:
                        pending.append(caller)
                        queued.add(caller)
        self._solved = True

    def flow_hits(self) -> list[FlowHit]:
        self.solve()
        return sorted(self._hits.values(), key=FlowHit.sort_key)

    # -- interpretation ------------------------------------------------
    def _all_params(self, qn: str) -> list[str]:
        fn = self.index.functions[qn]
        return list(fn["params"]) + list(fn["kwonly"])

    def _interpret(self, qn: str) -> bool:
        facts = self.fn_facts[qn]
        rel = self.index.functions[qn]["rel"]
        params = self._all_params(qn)
        before = self.summaries[qn].sig()
        summary = _Summary()
        summary.param_sinks = {
            i: dict(v) for i, v in self.summaries[qn].param_sinks.items()
        }
        env: dict[str, AVal] = {}
        for i, name in enumerate(params):
            env[name] = _from_atoms({("p", qn, i): ()})
        fields: dict[tuple[str, str], dict[Atom, Trail]] = {}
        state = (qn, rel, env, fields, summary)
        for _ in range(10):
            changed = False
            snapshot = (
                {k: v.sig() for k, v in env.items()},
                {k: frozenset(v) for k, v in fields.items()},
                summary.sig(),
            )
            for op in facts["ops"]:
                self._exec_op(op, state)
            after = (
                {k: v.sig() for k, v in env.items()},
                {k: frozenset(v) for k, v in fields.items()},
                summary.sig(),
            )
            changed = snapshot != after
            if not changed:
                break
        self.summaries[qn] = summary
        return summary.sig() != before

    def _exec_op(self, op: dict[str, Any], state: tuple) -> None:
        qn, rel, env, fields, summary = state
        val = self._eval(op["v"], state)
        kind = op["op"]
        if kind == "ret":
            summary.ret.merge(val)
            return
        if kind != "as":
            return
        for target in op["t"]:
            t = target["t"]
            if t == "n":
                slot = env.setdefault(target["id"], AVal())
                slot.merge(val)
            elif t == "f":
                _merge_atoms(
                    fields.setdefault((target["id"], target["attr"]), {}),
                    val.flat(),
                )
            elif t == "u":
                ids = target["ids"]
                if val.elems is not None and len(val.elems) == len(ids):
                    parts: list[AVal] = val.elems
                else:
                    parts = [_from_atoms(val.flat()) for _ in ids]
                for name, part in zip(ids, parts):
                    if name is not None:
                        env.setdefault(name, AVal()).merge(part)

    def _eval(self, ett: dict[str, Any], state: tuple) -> AVal:
        qn, rel, env, fields, summary = state
        kind = ett["k"]
        if kind in ("const", "none"):
            return AVal()
        if kind == "src":
            return _from_atoms(
                {("s", ett["name"], rel, ett["line"], ett["col"]): ()}
            )
        if kind == "name":
            found = env.get(ett["id"])
            out = AVal()
            if found is not None:
                out.merge(found)
            for (base, attr), atoms in fields.items():
                if base == ett["id"]:
                    _merge_atoms(out.fields.setdefault(attr, {}), atoms)
            return out
        if kind == "attr":
            out = AVal()
            stored = fields.get((ett["base"], ett["attr"]))
            if stored:
                _merge_atoms(out.atoms, stored)
            base = env.get(ett["base"])
            if base is not None:
                # Whole-object taint reaches every attribute; a tracked
                # constructor field contributes only its own atoms.
                _merge_atoms(out.atoms, base.atoms)
                field_atoms = base.fields.get(ett["attr"])
                if field_atoms:
                    _merge_atoms(out.atoms, field_atoms)
            return out
        if kind == "many":
            out = AVal()
            for part in ett["xs"]:
                _merge_atoms(out.atoms, self._eval(part, state).flat())
            return out
        if kind == "tup":
            out = AVal()
            out.elems = [self._eval(part, state) for part in ett["xs"]]
            return out
        if kind == "call":
            record = self.fn_facts[qn]["calls"][ett["i"]]
            return self._eval_call(record, state)
        return AVal()

    # -- calls ---------------------------------------------------------
    def _arg_map(
        self,
        callee: str,
        record: dict[str, Any],
        arg_vals: list[AVal],
        kw_vals: dict[str, AVal],
        extra: list[AVal],
    ) -> dict[int, AVal]:
        """Call-site values by callee parameter index (best effort)."""
        callee_params = self._all_params(callee)
        bound = record["target"]["kind"] == "method"
        fn = self.index.functions[callee]
        skip = (
            1
            if bound
            and fn["cls"] is not None
            and not fn["static"]
            and callee_params
            and callee_params[0] in ("self", "cls")
            else 0
        )
        argmap: dict[int, AVal] = {}
        if record["star"] or extra:
            # *args/**kwargs at the call site: smear everything everywhere.
            smear = AVal()
            for val in arg_vals + list(kw_vals.values()) + extra:
                _merge_atoms(smear.atoms, val.flat())
            for i in range(len(callee_params)):
                argmap[i] = smear
            return argmap
        for j, val in enumerate(arg_vals):
            i = j + skip
            if i < len(callee_params):
                argmap[i] = val
        for name, val in kw_vals.items():
            if name in callee_params:
                argmap[callee_params.index(name)] = val
        return argmap

    def _eval_call(self, record: dict[str, Any], state: tuple) -> AVal:
        qn, rel, env, fields, summary = state
        arg_vals = [self._eval(a, state) for a in record["args"]]
        kw_vals = {
            name: self._eval(v, state)
            for name, v in record["kwargs"].items()
        }
        extra = [self._eval(v, state) for v in record["splat"]]
        recv_val = (
            self._eval(record["recv_ett"], state)
            if "recv_ett" in record
            else None
        )

        if "source" in record:
            return _from_atoms(
                {
                    (
                        "s",
                        record["source"],
                        rel,
                        record["line"],
                        record["col"],
                    ): ()
                }
            )
        if record.get("sanitizer"):
            return AVal()

        resolved = self.graph.resolved.get((qn, record["i"]))
        if resolved is not None and resolved[0] == "func":
            callee = resolved[1]
            if callee in self.fn_facts:
                argmap = self._arg_map(
                    callee, record, arg_vals, kw_vals, extra
                )
                self._apply_param_sinks(
                    callee, argmap, record, state
                )
                hop = (rel, record["line"], f"through {callee}()")
                return self._substitute(
                    self.summaries[callee].ret, callee, argmap, hop
                )
        if resolved is not None and resolved[0] == "ctor":
            out = AVal()
            for name, val in kw_vals.items():
                _merge_atoms(out.fields.setdefault(name, {}), val.flat())
            for val in arg_vals + extra:
                _merge_atoms(out.atoms, val.flat())
            return out

        sink_name = record.get("sink")
        if sink_name is None and "sink_attr" in record:
            sink_name = f".{record['sink_attr']}"
        everything = AVal()
        for val in arg_vals + list(kw_vals.values()) + extra:
            _merge_atoms(everything.atoms, val.flat())
        if sink_name is not None:
            sink = (sink_name, rel, record["line"], record["col"])
            self._register_sink_hits(
                sink, (), everything.atoms, record, state
            )
        # An unresolved method's return carries its receiver's taint too
        # (``tainted.encode()``), but the receiver is not an *argument* —
        # it does not count toward the sink above.
        if recv_val is not None:
            _merge_atoms(everything.atoms, recv_val.flat())
        return everything

    def _apply_param_sinks(
        self,
        callee: str,
        argmap: dict[int, AVal],
        record: dict[str, Any],
        state: tuple,
    ) -> None:
        qn, rel, env, fields, summary = state
        callee_sinks = self.summaries[callee].param_sinks
        hop = (rel, record["line"], f"into {callee}()")
        for idx in sorted(callee_sinks):
            val = argmap.get(idx)
            if val is None:
                continue
            for sink, inner in sorted(callee_sinks[idx].items()):
                atoms = {
                    atom: _extend_trail(trail, hop) + inner
                    for atom, trail in val.flat().items()
                }
                self._register_sink_hits(
                    sink, (), atoms, record, state
                )

    def _register_sink_hits(
        self,
        sink: tuple,
        inner: Trail,
        atoms: dict[Atom, Trail],
        record: dict[str, Any],
        state: tuple,
    ) -> None:
        """Tainted data reaches ``sink``: real atoms become hits anchored
        at this call site; parameter atoms extend this function's own
        ``param_sinks`` summary."""
        qn, rel, env, fields, summary = state
        anchor = (rel, record["line"], record["col"])
        for atom in sorted(atoms, key=repr):
            trail = atoms[atom]
            if atom[0] == "s":
                _, name, src_rel, src_line, src_col = atom
                key = (atom, sink, anchor)
                if key not in self._hits:
                    self._hits[key] = FlowHit(
                        source=(name, src_rel, src_line, src_col),
                        sink=sink,
                        anchor=anchor,
                        trail=trail + inner,
                    )
            elif atom[0] == "p" and atom[1] == qn:
                summary.param_sinks.setdefault(atom[2], {}).setdefault(
                    sink, trail + inner
                )

    def _substitute(
        self,
        val: AVal,
        callee: str,
        argmap: dict[int, AVal],
        hop: tuple,
        depth: int = 0,
    ) -> AVal:
        out = AVal()

        def subst_atoms(
            src: dict[Atom, Trail], dst: dict[Atom, Trail]
        ) -> None:
            for atom, trail in src.items():
                if atom[0] == "p" and atom[1] == callee:
                    arg = argmap.get(atom[2])
                    if arg is None:
                        continue
                    for a, t in arg.flat().items():
                        dst.setdefault(a, _extend_trail(t, hop))
                else:
                    dst.setdefault(atom, _extend_trail(trail, hop))

        subst_atoms(val.atoms, out.atoms)
        for name, atoms in val.fields.items():
            subst_atoms(atoms, out.fields.setdefault(name, {}))
        if val.elems is not None and depth < _MAX_ELEM_DEPTH:
            out.elems = [
                self._substitute(e, callee, argmap, hop, depth + 1)
                for e in val.elems
            ]
        elif val.elems is not None:
            for elem in val.elems:
                subst_atoms(elem.flat(), out.atoms)
        return out

    # -- seam escapes (RPL010) -----------------------------------------
    def seam_escapes(self) -> list[EscapeHit]:
        """Entry-point escapes of armed fault seams, fully propagated."""
        self.solve()
        # qn -> {(origin rel, line, col, seam): (cond param | None, chain)}
        esc: dict[str, dict[tuple, tuple]] = {qn: {} for qn in self.fn_facts}
        for qn in sorted(self.fn_facts):
            params = set(self._all_params(qn))
            for seam in self.fn_facts[qn]["seams"]:
                if seam["contained"]:
                    continue
                cond = None
                recv = seam["recv"]
                if recv["r"] == "var" and recv["id"] in params:
                    cond = recv["id"]
                key = (
                    self.index.functions[qn]["rel"],
                    seam["line"],
                    seam["col"],
                    seam["seam"],
                )
                esc[qn][key] = (cond, ())
        for _ in range(100):
            changed = False
            for qn in sorted(self.fn_facts):
                rel = self.index.functions[qn]["rel"]
                params = set(self._all_params(qn))
                for record in self.fn_facts[qn]["calls"]:
                    if record["contained"]:
                        continue
                    resolved = self.graph.resolved.get((qn, record["i"]))
                    if resolved is None or resolved[0] != "func":
                        continue
                    callee = resolved[1]
                    for key, (cond_g, chain_g) in sorted(
                        esc.get(callee, {}).items()
                    ):
                        cond_new = self._escape_cond(
                            qn, params, callee, cond_g, record
                        )
                        if cond_new == "disarmed":
                            continue
                        chain = chain_g + (
                            (rel, record["line"], callee),
                        )
                        if len(chain) > _MAX_TRAIL:
                            chain = chain_g
                        existing = esc[qn].get(key)
                        if existing is None:
                            esc[qn][key] = (cond_new, chain)
                            changed = True
                        elif (
                            existing[0] is not None and cond_new is None
                        ):
                            esc[qn][key] = (None, existing[1])
                            changed = True
            if not changed:
                break
        hits: list[EscapeHit] = []
        for qn in self.graph.entry_points():
            if qn not in esc or not esc[qn]:
                continue
            for key in sorted(esc[qn]):
                cond, chain = esc[qn][key]
                origin_rel, origin_line, origin_col, seam = key
                if chain:
                    anchor = (chain[-1][0], chain[-1][1], 0)
                else:
                    anchor = (origin_rel, origin_line, origin_col)
                hits.append(
                    EscapeHit(
                        entry=qn,
                        seam=seam,
                        origin=(origin_rel, origin_line, origin_col),
                        anchor=anchor,
                        chain=chain,
                    )
                )
        return sorted(hits, key=EscapeHit.sort_key)

    def _escape_cond(
        self,
        caller: str,
        caller_params: set[str],
        callee: str,
        cond_g: str | None,
        record: dict[str, Any],
    ) -> str | None:
        """Arming condition after crossing one call edge.

        Returns the caller param the escape is conditional on, ``None``
        for unconditionally armed, or ``"disarmed"`` when the call site
        omits (or passes a literal ``None`` for) the callee's gating
        parameter.
        """
        if cond_g is None:
            return None
        callee_params = self._all_params(callee)
        if cond_g not in callee_params:
            return None
        if record["star"] or record["splat"]:
            return None  # smeared: assume armed
        idx = callee_params.index(cond_g)
        fn = self.index.functions[callee]
        bound = record["target"]["kind"] == "method"
        skip = (
            1
            if bound
            and fn["cls"] is not None
            and not fn["static"]
            and callee_params
            and callee_params[0] in ("self", "cls")
            else 0
        )
        arg_ett: dict[str, Any] | None = None
        j = idx - skip
        if 0 <= j < len(record["args"]):
            arg_ett = record["args"][j]
        if cond_g in record["kwargs"]:
            arg_ett = record["kwargs"][cond_g]
        if arg_ett is None or arg_ett["k"] == "none":
            return "disarmed"
        if (
            arg_ett["k"] == "name"
            and arg_ett["id"] in caller_params
        ):
            return arg_ett["id"]
        return None


# ----------------------------------------------------------------------
# The project: files + facts + graph + solver
# ----------------------------------------------------------------------
class Project:
    """Whole-program context shared by every project-scoped rule."""

    def __init__(self, srcs: dict[str, SourceFile]) -> None:
        self._srcs = srcs
        facts_by_rel = {
            rel: extract_file_facts(src.tree, rel, src.imports)
            for rel, src in srcs.items()
        }
        self.index = ProjectIndex(facts_by_rel)
        self.graph = CallGraph(self.index, facts_by_rel)
        fn_facts: dict[str, dict[str, Any]] = {}
        for rel in sorted(facts_by_rel):
            fn_facts.update(facts_by_rel[rel]["functions"])
        self._solver = FlowSolver(self.index, self.graph, fn_facts)

    # -- queries -------------------------------------------------------
    def line(self, rel: str, line: int) -> str:
        src = self._srcs.get(rel)
        return src.line_content(line) if src is not None else ""

    def flow_hits(self) -> list[FlowHit]:
        return self._solver.flow_hits()

    def seam_escapes(self) -> list[EscapeHit]:
        return self._solver.seam_escapes()

    def call_graph_dict(self) -> dict[str, Any]:
        return self.graph.as_dict()
