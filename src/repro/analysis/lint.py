"""Simulator-aware static lint framework.

The correctness of an offload data path — skbuffs parked behind in-flight
I/OAT copies, DMA cookies that must be polled before user-space is notified,
generator processes that silently no-op when invoked without being driven —
is exactly the kind of property that rots without tooling (§III-B, Figs.
5/6).  This module provides the AST-walking framework; the individual rules
live one-per-module under :mod:`repro.analysis.rules` and register
themselves with the :func:`register_rule` decorator.

Suppression uses ``ruff``/``flake8``-style inline pragmas: a line ending in
``# noqa`` silences every rule on that line, ``# noqa: SKB001`` (or a
comma-separated list) silences specific codes.

Adding a rule::

    from repro.analysis.lint import Finding, ModuleSource, Rule, register_rule

    @register_rule
    class MyRule(Rule):
        code = "ABC001"
        summary = "one-line description"

        def check(self, module: ModuleSource, project=None):
            yield module.finding(self.code, node, "message")

Rules that need to see across modules use ``project`` — the
:class:`~repro.analysis.dataflow.Project` built over the whole sweep
(symbol table, call graph, taint reachability).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.dataflow import Project

__all__ = [
    "Finding",
    "ModuleSource",
    "Rule",
    "register_rule",
    "all_rules",
    "lint_file",
    "lint_paths",
]

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9,\s]+))?", re.IGNORECASE)


@dataclass(frozen=True)
class Finding:
    """One lint violation, anchored to a source location."""

    code: str
    message: str
    path: str
    line: int
    col: int = 0

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}"


class ModuleSource:
    """One parsed module handed to every rule.

    Besides the AST, rules get the raw source lines (for pragma handling)
    and a resolved import-alias map (``np`` → ``numpy``, ``sleep`` →
    ``time.sleep``) so they can reason about dotted call targets without
    caring how the module spelled its imports.
    """

    def __init__(self, path: str, source: str):
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=path)
        self.lines = source.splitlines()
        self.import_aliases = _collect_import_aliases(self.tree)

    # -- findings -----------------------------------------------------------

    def finding(self, code: str, node: ast.AST, message: str) -> Finding:
        return Finding(code, message, self.path,
                       getattr(node, "lineno", 1), getattr(node, "col_offset", 0))

    def suppressed(self, finding: Finding) -> bool:
        """True when the finding's line carries a matching noqa pragma."""
        if not (1 <= finding.line <= len(self.lines)):
            return False
        m = _NOQA_RE.search(self.lines[finding.line - 1])
        if m is None:
            return False
        codes = m.group("codes")
        if codes is None:
            return True  # bare "# noqa" silences everything
        return finding.code in {c.strip().upper() for c in codes.split(",")}

    # -- AST helpers shared by rules ---------------------------------------

    def functions(self) -> Iterator[ast.FunctionDef]:
        """Every function/method definition in the module, outermost first."""
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """Resolve a call target to a dotted name through import aliases.

        ``t.sleep`` with ``import time as t`` resolves to ``time.sleep``;
        ``randint`` with ``from random import randint`` to
        ``random.randint``.  Returns None for non-name expressions.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.import_aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))


def _collect_import_aliases(tree: ast.Module) -> Dict[str, str]:
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name != "*":
                    aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def is_generator(fn: ast.FunctionDef) -> bool:
    """True when ``fn`` itself contains a yield (nested defs excluded)."""
    return any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in own_nodes(fn))


def own_nodes(fn: ast.FunctionDef) -> Iterator[ast.AST]:
    """Walk ``fn``'s body without descending into nested function defs
    (the nested def or lambda node itself is yielded, its body is not)."""
    todo: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        todo.extend(ast.iter_child_nodes(node))


def name_escapes(fn: ast.FunctionDef, name: str, *, binding: ast.AST,
                 release_attrs: Sequence[str] = (),
                 any_use_releases: bool = False) -> bool:
    """Conservative escape analysis for a resource bound to ``name``.

    Returns True when, anywhere in ``fn`` after the binding statement, the
    name is

    * passed as an argument (positional, keyword, or starred) to any call —
      ownership hand-off;
    * returned or yielded;
    * aliased or stored (``x = name``, ``self.x = name``, ``d[k] = name``,
      a container literal, an augmented assignment);
    * used as ``name.<attr>()`` with ``attr`` in ``release_attrs`` (e.g.
      ``skb.free()``).

    With ``any_use_releases`` every later Load-context mention counts (used
    by DMA001, where touching the cookie at all implies someone tracked it).
    Reads/writes of other attributes (``name.data_len = 8``) deliberately do
    NOT release: configuring a buffer and dropping it is precisely the leak.
    """
    for node in own_nodes(fn):
        if node is binding or getattr(node, "lineno", 0) < getattr(binding, "lineno", 0):
            continue
        if isinstance(node, ast.Call):
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if _mentions(arg, name):
                    return True
            func = node.func
            if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and func.value.id == name and func.attr in release_attrs):
                return True
        elif isinstance(node, ast.Return) and node.value is not None:
            if _mentions(node.value, name):
                return True
        elif isinstance(node, (ast.Yield, ast.YieldFrom)) and node.value is not None:
            if _mentions(node.value, name):
                return True
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = node.value
            if value is not None and value is not binding and _mentions(value, name):
                return True
        elif any_use_releases and isinstance(node, ast.Name):
            if node.id == name and isinstance(node.ctx, ast.Load):
                return True
    return False


def _mentions(node: ast.AST, name: str) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == name and isinstance(sub.ctx, ast.Load):
            return True
    return False


_CHANNEL_NAMES = ("ch", "chan", "channel")


def channel_like(node: ast.AST) -> Optional[str]:
    """The receiver's spelling when it plausibly denotes a DMA channel:
    a name spelled ``ch``/``chan``/``channel`` (or ending in ``channel``),
    or an attribute chain ending in one of those (HLT001, OFF001)."""
    if isinstance(node, ast.Name):
        name = node.id
        if name in _CHANNEL_NAMES or name.lower().endswith("channel"):
            return name
    if isinstance(node, ast.Attribute):
        if node.attr in _CHANNEL_NAMES or node.attr.lower().endswith("channel"):
            return node.attr
    return None


# ---------------------------------------------------------------------------
# Rule registry
# ---------------------------------------------------------------------------


class Rule:
    """Base class: subclass, set ``code``/``summary``, implement check().

    ``check`` receives the module under scrutiny plus the
    :class:`~repro.analysis.dataflow.Project` built over the whole sweep,
    so rules can resolve calls across modules (call graph, taint
    reachability).  Single-module rules simply ignore ``project``; when a
    lone source string is linted the project contains just that module.
    """

    code: str = ""
    summary: str = ""

    def check(self, module: ModuleSource,
              project: Optional["Project"] = None) -> Iterable[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a rule to the global registry (keyed by code)."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def all_rules() -> Dict[str, Type[Rule]]:
    """The registry, loading the built-in rule modules on first use."""
    from repro.analysis import rules as _builtin  # noqa: F401  (registration side effect)

    return dict(_REGISTRY)


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def _lint_module(module: ModuleSource, project: "Project",
                 codes: Sequence[str], registry) -> List[Finding]:
    findings: List[Finding] = []
    for code in codes:
        for finding in registry[code]().check(module, project):
            if not module.suppressed(finding):
                findings.append(finding)
    findings.sort(key=lambda f: (f.line, f.col, f.code))
    return findings


def _select_codes(select: Optional[Sequence[str]], registry) -> List[str]:
    codes = list(select) if select else sorted(registry)
    unknown = [c for c in codes if c not in registry]
    if unknown:
        raise ValueError(f"unknown rule code(s): {', '.join(unknown)}")
    return codes


def lint_source(source: str, path: str = "<string>",
                select: Optional[Sequence[str]] = None) -> List[Finding]:
    """Lint one source string; ``select`` restricts to the given codes.

    The dataflow project contains just this module, so cross-module rules
    degrade to their local approximation.
    """
    from repro.analysis.dataflow import Project

    registry = all_rules()
    codes = _select_codes(select, registry)
    module = ModuleSource(path, source)
    project = Project([module])
    return _lint_module(module, project, codes, registry)


def lint_file(path: Path, select: Optional[Sequence[str]] = None) -> List[Finding]:
    return lint_source(Path(path).read_text(encoding="utf-8"), str(path), select)


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        path = Path(path)
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py") if "egg-info" not in p.parts)
        elif path.suffix == ".py":
            yield path


def lint_paths(paths: Iterable[Path],
               select: Optional[Sequence[str]] = None) -> Tuple[List[Finding], int]:
    """Lint files/directories as ONE project; returns (findings, files).

    Every file is parsed up front and the dataflow engine builds the
    project-wide symbol table and call graph over all of them, so rules
    see across module boundaries (a wall-clock call two hops away from a
    sim process is still two *resolved* hops).  Findings stay grouped by
    file, in path order.
    """
    from repro.analysis.dataflow import Project

    registry = all_rules()
    codes = _select_codes(select, registry)
    modules = [
        ModuleSource(str(file), file.read_text(encoding="utf-8"))
        for file in iter_python_files(paths)
    ]
    project = Project(modules)
    findings: List[Finding] = []
    for module in modules:
        findings.extend(_lint_module(module, project, codes, registry))
    return findings, len(modules)
