"""Core of the invariant linter: findings, parsed sources, suppressions.

``repro lint`` is an AST-based rule engine over the repo's own source.  It
exists because the contracts the test suite enforces *behaviorally* (byte
determinism across executor topologies and Python versions, SoA/object-graph
lockstep, RFC-8259 documents, versioned memo caches) are broken *textually*:
a single ``time.time()`` on a decision path or a ``sum`` over a ``set`` of
floats compiles, runs, and silently drifts.  Each rule names one invariant
and points at the sanctioned alternative.

Suppression contract
--------------------

A finding may be silenced only inline, on its own line, with a mandatory
written justification::

    t = time.perf_counter()  # repro-lint: disable=RPL001 -- wall-clock perf channel, never persisted

A suppression without a reason, and a suppression that matches no finding,
are themselves findings (``RPL000``): the suppression inventory can never
rot silently.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

#: Code for linter-meta findings (malformed or unused suppressions).
META_CODE = "RPL000"

#: Default lint targets, repo-root-relative.  ``tests/`` is deliberately
#: out: tests mutate state directly and smuggle NaN on purpose.
DEFAULT_TARGETS = ("src/repro", "examples", "benchmarks")

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)"
    r"(?:\s*--\s*(\S.*?))?\s*$"
)
_SUPPRESS_MARKER = re.compile(r"#\s*repro-lint:")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a precise source location.

    ``content`` is the stripped text of the offending line (shown in the
    JSON report).
    """

    path: str  # repo-root-relative, forward slashes
    line: int
    col: int
    code: str
    message: str
    content: str = ""

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass(frozen=True)
class Suppression:
    """An inline ``# repro-lint: disable=...`` directive."""

    line: int
    codes: tuple[str, ...]
    reason: str


@dataclass
class SourceFile:
    """One parsed lint target: AST, import aliases and suppression map.

    Built once per file by :func:`parse_source`; every rule reads this one
    parse.
    """

    path: Path  # absolute
    rel: str  # root-relative display path (forward slashes)
    text: str
    tree: ast.Module
    imports: ImportMap
    lines: list[str] = field(default_factory=list)
    suppressions: dict[int, Suppression] = field(default_factory=dict)
    #: RPL000 findings produced while *parsing* directives (missing reason,
    #: unparseable directive text).
    meta_findings: list[Finding] = field(default_factory=list)

    def line_content(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, code: str, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at an AST node of this file."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=self.rel,
            line=line,
            col=col + 1,
            code=code,
            message=message,
            content=self.line_content(line),
        )


def _scan_suppressions(src: SourceFile) -> None:
    """Populate the line -> Suppression map from comment tokens.

    Tokenizing (rather than regex over raw lines) keeps directives inside
    string literals from being honored as suppressions.
    """
    try:
        tokens = tokenize.generate_tokens(io.StringIO(src.text).readline)
        comments = [
            (tok.start[0], tok.string)
            for tok in tokens
            if tok.type == tokenize.COMMENT
        ]
    except tokenize.TokenError:  # pragma: no cover - tree already parsed
        comments = []
    for line, comment in comments:
        if not _SUPPRESS_MARKER.search(comment):
            continue
        match = _SUPPRESS_RE.search(comment)
        if not match:
            src.meta_findings.append(
                Finding(
                    path=src.rel,
                    line=line,
                    col=1,
                    code=META_CODE,
                    message=(
                        "malformed repro-lint directive (expected "
                        "'# repro-lint: disable=RPLxxx -- reason')"
                    ),
                    content=src.line_content(line),
                )
            )
            continue
        codes = tuple(
            sorted({c.strip() for c in match.group(1).split(",")})
        )
        reason = (match.group(2) or "").strip()
        if not reason:
            src.meta_findings.append(
                Finding(
                    path=src.rel,
                    line=line,
                    col=1,
                    code=META_CODE,
                    message=(
                        f"suppression of {', '.join(codes)} has no written "
                        "justification (append ' -- <reason>')"
                    ),
                    content=src.line_content(line),
                )
            )
            continue  # a reasonless suppression does not suppress
        src.suppressions[line] = Suppression(
            line=line, codes=codes, reason=reason
        )


def parse_source(path: Path, rel: str) -> SourceFile | Finding:
    """Read and parse one file.

    Undecodable bytes and syntax errors are returned as RPL000 findings.
    """
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        return Finding(
            path=rel,
            line=data.count(b"\n", 0, exc.start) + 1,
            col=exc.start - line_start + 1,
            code=META_CODE,
            message=f"file is not valid UTF-8: {exc.reason}",
            content="",
        )
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        return Finding(
            path=rel,
            line=exc.lineno or 1,
            col=(exc.offset or 0) or 1,
            code=META_CODE,
            message=f"file does not parse: {exc.msg}",
            content="",
        )
    src = SourceFile(
        path=path,
        rel=rel,
        text=text,
        tree=tree,
        imports=ImportMap(tree),
        lines=text.splitlines(),
    )
    _scan_suppressions(src)
    return src


class Rule:
    """Base class: one invariant, one ``RPLxxx`` code.

    Subclasses set ``code``/``title``/``rationale`` and implement
    :meth:`check`.  ``applies_to`` lets a rule scope itself out of targets
    where its invariant does not hold by design (e.g. wall-clock timing is
    the *point* of ``benchmarks/``).
    """

    code: str = "RPL999"
    title: str = ""
    rationale: str = ""

    def applies_to(self, rel: str) -> bool:
        return True

    def check(self, src: SourceFile) -> list[Finding]:  # pragma: no cover
        raise NotImplementedError


# ----------------------------------------------------------------------
# Entropy inventory (RPL001)
# ----------------------------------------------------------------------
#: Ambient wall clocks: nondeterministic on any path.
WALL_CLOCKS = frozenset({
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})
#: Monotonic/perf timers: still wall-clock entropy, but measuring them is
#: the whole point of ``benchmarks/`` — RPL001 scopes them out there.
PERF_TIMERS = frozenset({
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
})
#: Process/host identity and OS entropy: they differ per host and per
#: run on any path, like the wall clocks.  RPL001 flags them on their own
#: line, and ``os.environ`` reads with them.
HOST_ENTROPY_CALLS = frozenset({
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
})
#: Seeded constructors of ``random``/``numpy.random``: deterministic, so
#: RPL001 exempts them from the global-RNG check.
SEEDED_RNG = frozenset({
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.Philox",
    "numpy.random.bit_generator",
})


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` as a string for plain Name/Attribute chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class ImportMap:
    """Local-name resolution for import aliases in one module.

    Maps ``_time`` -> ``time`` (``import time as _time``) and
    ``perf_counter`` -> ``("time", "perf_counter")``
    (``from time import perf_counter``), so rules match the *imported
    thing*, not the spelling at the call site.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.modules: dict[str, str] = {}
        self.symbols: dict[str, tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.symbols[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )

    def resolve(self, node: ast.expr) -> str | None:
        """Fully-qualified dotted name of an expression, if importable.

        ``_time.perf_counter`` -> ``"time.perf_counter"``;
        ``np.random.exponential`` -> ``"numpy.random.exponential"``;
        ``from datetime import datetime; datetime.now`` ->
        ``"datetime.datetime.now"``.  Returns ``None`` for expressions not
        rooted in an imported name (locals, attributes of ``self``, ...).
        """
        dotted = dotted_name(node)
        if dotted is None:
            return None
        base, _, rest = dotted.partition(".")
        if base in self.modules:
            root = self.modules[base]
        elif base in self.symbols:
            module, symbol = self.symbols[base]
            root = f"{module}.{symbol}"
        else:
            return None
        return f"{root}.{rest}" if rest else root
