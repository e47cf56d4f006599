"""Project-wide dataflow: symbol table, call graph, taint reachability.

PR 1's rules are single-file AST matchers; the bug classes this layer
exists for are not.  Wall-clock taint that reaches a sim process through
two call hops, or a dict whose iteration order leaks into event
registration in another function, need *whole-program* context.  This
module builds it:

* :class:`Project` — every module of a lint sweep parsed once, with a
  symbol table of functions/methods (dotted qualnames) and a conservative
  call graph;
* call resolution — bare names through module scope and import aliases,
  ``self.method()`` within the enclosing class, dotted module calls
  through imports.  Unresolvable targets (duck-typed attributes, stored
  callables) become graph *leaves*, never edges: the graph under-
  approximates, so cross-module findings are high-confidence;
* :meth:`Project.taint` — backward reachability from any predicate over
  call sites ("calls ``time.time``"), with per-function witness edges so
  rules can print the full call path;
* :func:`unordered_iters` — per-function analysis of loops (and
  comprehensions) whose iteration order is not canonical: set literals
  and set/dict-typed locals and ``self.*`` attributes (types inferred
  from assignments across the enclosing class), ``.keys()/.values()/
  .items()`` views, and locals *derived* from those by list/tuple/
  comprehension.  A runtime-populated per-peer dict iterates in arrival
  order — which is schedule order — so feeding such an iteration into the
  scheduler propagates hidden schedule dependence; RACE001/ORD001 are the
  rules that consume this analysis.

Everything here is stdlib ``ast``; no imports of the linted code happen.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint import ModuleSource, is_generator, own_nodes

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ModuleInfo",
    "Project",
    "TaintResult",
    "UnorderedLoop",
    "unordered_iters",
]


# ---------------------------------------------------------------------------
# symbol table
# ---------------------------------------------------------------------------


@dataclass
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    #: import-alias-resolved dotted target (``time.sleep``), or None for
    #: expressions that are not name chains (``fns[0]()``)
    dotted: Optional[str]
    #: qualname of the project function this call resolves to, or None
    resolved: Optional[str] = None


class FunctionInfo:
    """One function or method: identity, body facts, outgoing calls."""

    def __init__(self, qualname: str, module: "ModuleInfo",
                 node: ast.FunctionDef, cls: Optional[ast.ClassDef]):
        self.qualname = qualname
        self.module = module
        self.node = node
        #: enclosing class definition, when this is a method
        self.cls = cls
        self.is_generator = is_generator(node)
        self.calls: List[CallSite] = []

    @property
    def name(self) -> str:
        return self.node.name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FunctionInfo {self.qualname}>"


class ModuleInfo:
    """One parsed module plus its function/class symbol table."""

    def __init__(self, name: str, source: ModuleSource):
        self.name = name
        self.source = source
        #: qualname -> FunctionInfo for every def in this module
        self.functions: Dict[str, FunctionInfo] = {}
        #: class name -> {method name -> FunctionInfo}
        self.classes: Dict[str, Dict[str, FunctionInfo]] = {}


def module_name_for(path: str) -> str:
    """Infer the dotted module name from a file path.

    ``.../src/repro/core/driver.py`` -> ``repro.core.driver``; paths with
    no ``repro`` component fall back to the file stem, which keeps
    single-snippet lints (``golden.py``) working with unique names.
    """
    parts = path.replace("\\", "/").split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for anchor in range(len(parts) - 1, -1, -1):
        if parts[anchor] == "repro":
            return ".".join(parts[anchor:])
    return parts[-1] if parts else path


class Project:
    """A set of modules analyzed together: symbols, call graph, taint."""

    def __init__(self, modules: Sequence[ModuleSource]):
        self.modules: Dict[str, ModuleInfo] = {}
        #: qualname -> FunctionInfo across every module
        self.functions: Dict[str, FunctionInfo] = {}
        for source in modules:
            info = ModuleInfo(module_name_for(source.path), source)
            # Last one wins on a name collision (same stem in two swept
            # trees); collisions cannot happen inside one package tree.
            self.modules[info.name] = info
            self._index_module(info)
        for info in self.modules.values():
            self._resolve_calls(info)
        self._callers: Optional[Dict[str, List[Tuple[str, CallSite]]]] = None

    # -- construction -------------------------------------------------------

    def _index_module(self, info: ModuleInfo) -> None:
        def add(fn: ast.FunctionDef, prefix: str, cls: Optional[ast.ClassDef]):
            qualname = f"{prefix}.{fn.name}"
            fi = FunctionInfo(qualname, info, fn, cls)
            info.functions[qualname] = fi
            self.functions[qualname] = fi
            if cls is not None:
                info.classes.setdefault(cls.name, {})[fn.name] = fi
            # nested defs: indexed under their parent's qualname
            for child in ast.iter_child_nodes(fn):
                _walk(child, qualname, cls)

        def _walk(node: ast.AST, prefix: str, cls: Optional[ast.ClassDef]):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add(node, prefix, cls)
                return
            if isinstance(node, ast.ClassDef):
                for child in ast.iter_child_nodes(node):
                    _walk(child, f"{prefix}.{node.name}", node)
                return
            for child in ast.iter_child_nodes(node):
                _walk(child, prefix, cls)

        for node in info.source.tree.body:
            _walk(node, info.name, None)

    def _resolve_calls(self, info: ModuleInfo) -> None:
        source = info.source
        for fi in info.functions.values():
            for node in own_nodes(fi.node):
                if not isinstance(node, ast.Call):
                    continue
                site = CallSite(node, source.dotted_name(node.func))
                site.resolved = self._resolve_target(fi, site)
                fi.calls.append(site)

    def _resolve_target(self, caller: FunctionInfo,
                        site: CallSite) -> Optional[str]:
        func = site.node.func
        info = caller.module
        # self.method() / cls.method(): the enclosing class's methods
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls") and caller.cls is not None):
            methods = info.classes.get(caller.cls.name, {})
            target = methods.get(func.attr)
            return target.qualname if target else None
        if isinstance(func, ast.Name):
            # nested def of this function (or an enclosing one), else a
            # module-level function of the same module
            prefix = caller.qualname
            while "." in prefix:
                nested = f"{prefix}.{func.id}"
                if nested in info.functions:
                    return nested
                prefix = prefix.rsplit(".", 1)[0]
            top = f"{info.name}.{func.id}"
            if top in info.functions:
                return top
        dotted = site.dotted
        if dotted is None:
            return None
        # import-alias chains: "repro.faults.campaign.run_cell", or a
        # from-import of the function itself ("run_cell" -> dotted form)
        if dotted in self.functions:
            return dotted
        # from repro.x import Class; Class.method() or Class() constructor
        if "." in dotted:
            head, _, tail = dotted.rpartition(".")
            mod = self.modules.get(head)
            if mod is not None and f"{head}.{tail}" in mod.functions:
                return f"{head}.{tail}"
        return None

    # -- queries ------------------------------------------------------------

    def module_for(self, source: ModuleSource) -> Optional[ModuleInfo]:
        name = module_name_for(source.path)
        info = self.modules.get(name)
        if info is not None and info.source is source:
            return info
        # lint_source re-parses: match by path instead of identity
        for info in self.modules.values():
            if info.source.path == source.path:
                return info
        return None

    def callers_of(self) -> Dict[str, List[Tuple[str, CallSite]]]:
        """Reverse call graph: callee qualname -> [(caller qualname, site)]."""
        if self._callers is None:
            rev: Dict[str, List[Tuple[str, CallSite]]] = {}
            for fi in self.functions.values():
                for site in fi.calls:
                    if site.resolved is not None:
                        rev.setdefault(site.resolved, []).append(
                            (fi.qualname, site))
            self._callers = rev
        return self._callers

    def taint(self, is_tainted_call: Callable[[CallSite], Optional[str]],
              ) -> "TaintResult":
        """Backward reachability from every call the predicate marks.

        ``is_tainted_call`` returns a human-readable reason (or None) per
        call site.  The result maps every function that can reach a taint
        — directly or through resolved call edges — to a witness: the
        direct reason, or the next hop toward it.
        """
        result = TaintResult()
        for fi in self.functions.values():
            for site in fi.calls:
                reason = is_tainted_call(site)
                if reason is not None:
                    result.direct.setdefault(fi.qualname, (reason, site))
        # BFS along the reverse graph from directly-tainted functions
        callers = self.callers_of()
        frontier = list(result.direct)
        seen: Set[str] = set(frontier)
        while frontier:
            callee = frontier.pop()
            for caller, site in callers.get(callee, ()):
                if caller in seen:
                    continue
                seen.add(caller)
                result.via[caller] = (callee, site)
                frontier.append(caller)
        return result


@dataclass
class TaintResult:
    """Output of :meth:`Project.taint`: witnesses for every tainted fn."""

    #: functions whose own body makes a tainted call: qualname -> (reason, site)
    direct: Dict[str, Tuple[str, CallSite]] = field(default_factory=dict)
    #: transitively tainted functions: qualname -> (next callee, call site)
    via: Dict[str, Tuple[str, CallSite]] = field(default_factory=dict)

    def reaches(self, qualname: str) -> bool:
        return qualname in self.direct or qualname in self.via

    def path(self, qualname: str) -> List[str]:
        """Call chain from ``qualname`` down to the tainted call."""
        chain = [qualname]
        while qualname in self.via:
            qualname = self.via[qualname][0]
            chain.append(qualname)
        return chain

    def reason(self, qualname: str) -> Optional[str]:
        """The direct-taint reason at the end of ``path(qualname)``."""
        end = self.path(qualname)[-1]
        entry = self.direct.get(end)
        return entry[0] if entry else None


# ---------------------------------------------------------------------------
# unordered-iteration analysis (RACE001 / ORD001 substrate)
# ---------------------------------------------------------------------------


@dataclass
class UnorderedLoop:
    """One loop (or comprehension) over an order-unstable collection."""

    #: the ``ast.For`` or comprehension-bearing expression node
    node: ast.AST
    #: names bound by the loop target (including tuple unpacking)
    targets: Set[str]
    #: human-readable description of the iterated collection
    what: str
    #: nodes making up the loop body (empty for comprehensions)
    body: List[ast.stmt]


_DICT_CTORS = {"dict", "collections.defaultdict", "collections.OrderedDict",
               "collections.Counter"}
_SET_CTORS = {"set", "frozenset"}
_VIEW_METHODS = {"keys", "values", "items"}
#: wrapping an unordered iterable in these does not impose an order
_ORDER_PRESERVING = {"list", "tuple", "iter", "reversed", "enumerate"}
#: these impose a canonical order (sorted) or reduce to an order-blind
#: scalar; note set()/dict() do NOT belong here — the *content* of
#: ``set(xs)`` is order-blind but iterating the result is still unordered
_ORDER_FIXING = {"sorted", "min", "max", "sum", "len", "any", "all"}


def _is_unordered_ctor(module: ModuleSource, node: ast.AST) -> bool:
    """True when ``node`` evaluates to a fresh dict/set-like collection."""
    if isinstance(node, (ast.Dict, ast.Set, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = module.dotted_name(node.func)
        return dotted in _DICT_CTORS or dotted in _SET_CTORS
    return False


def _class_unordered_attrs(module: ModuleSource,
                           cls: Optional[ast.ClassDef]) -> Set[str]:
    """``self.X`` attributes assigned a dict/set anywhere in the class."""
    attrs: Set[str] = set()
    if cls is None:
        return attrs
    for node in ast.walk(cls):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        if value is None or not _is_unordered_ctor(module, value):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for tgt in targets:
            if (isinstance(tgt, ast.Attribute) and isinstance(tgt.value, ast.Name)
                    and tgt.value.id == "self"):
                attrs.add(tgt.attr)
    return attrs


def _target_names(target: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.add(node.id)
    return names


class _UnorderedScope:
    """Per-function order-stability facts, built in one forward pass."""

    def __init__(self, module: ModuleSource, fn: ast.FunctionDef,
                 cls: Optional[ast.ClassDef]):
        self.module = module
        self.fn = fn
        self.self_attrs = _class_unordered_attrs(module, cls)
        #: local names currently bound to an unordered (or unordered-
        #: derived) value
        self.locals: Set[str] = set()

    # -- expression classification -----------------------------------------

    def iter_desc(self, expr: ast.AST) -> Optional[str]:
        """Why iterating ``expr`` has no canonical order (None = ordered)."""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "a set literal"
        if isinstance(expr, (ast.Dict, ast.DictComp)):
            return "a dict literal"
        if isinstance(expr, ast.Name):
            if expr.id in self.locals:
                return f"dict/set-typed local '{expr.id}'"
            return None
        if isinstance(expr, ast.Attribute):
            if (isinstance(expr.value, ast.Name) and expr.value.id == "self"
                    and expr.attr in self.self_attrs):
                return f"dict/set attribute 'self.{expr.attr}'"
            return None
        if isinstance(expr, ast.Call):
            func = expr.func
            dotted = self.module.dotted_name(func)
            if dotted in _ORDER_FIXING:
                return None
            if dotted in _DICT_CTORS or dotted in _SET_CTORS:
                return f"a fresh {dotted}()"
            if dotted in _ORDER_PRESERVING and expr.args:
                inner = self.iter_desc(expr.args[0])
                return f"{dotted}() over {inner}" if inner else None
            if (isinstance(func, ast.Attribute)
                    and func.attr in _VIEW_METHODS and not expr.args):
                base = ast.unparse(func.value) if hasattr(ast, "unparse") else "?"
                inner = self.iter_desc(func.value)
                # .keys()/.values()/.items() is dict-specific: the view is
                # order-unstable even when the base's type is unknown here —
                # a runtime-populated mapping iterates in arrival order.
                return f"'{base}.{func.attr}()'" if inner is None else (
                    f"'{base}.{func.attr}()' ({inner})")
            return None
        return None

    def derived_unordered(self, value: ast.AST) -> bool:
        """True when ``value`` inherits an unordered iteration order."""
        if self.iter_desc(value) is not None:
            return True
        if isinstance(value, (ast.ListComp, ast.GeneratorExp)):
            return any(self.iter_desc(gen.iter) is not None
                       or self._gen_over_derived(gen)
                       for gen in value.generators)
        if isinstance(value, ast.Call):
            dotted = self.module.dotted_name(value.func)
            if dotted in _ORDER_PRESERVING and value.args:
                return self.derived_unordered(value.args[0])
        return False

    def _gen_over_derived(self, gen: ast.comprehension) -> bool:
        return (isinstance(gen.iter, ast.Name) and gen.iter.id in self.locals)


def unordered_iters(module: ModuleSource, fn: ast.FunctionDef,
                    cls: Optional[ast.ClassDef] = None) -> List[UnorderedLoop]:
    """Find loops/comprehensions in ``fn`` iterating unordered collections.

    Performs a single forward pass over the statements in source order,
    tracking locals that become unordered-derived (``acked = [s for s in
    self.pending]`` makes ``acked`` order-unstable), then reports every
    ``for`` statement and comprehension generator whose iterable has no
    canonical order.
    """
    scope = _UnorderedScope(module, fn, cls)
    loops: List[UnorderedLoop] = []

    def visit_stmts(stmts: List[ast.stmt]) -> None:
        for stmt in stmts:
            visit(stmt)

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = node.value
            if value is not None:
                scan_expr(value)
                derived = scope.derived_unordered(value)
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for tgt in targets:
                    if isinstance(tgt, ast.Name):
                        if derived:
                            scope.locals.add(tgt.id)
                        else:
                            scope.locals.discard(tgt.id)
            return
        if isinstance(node, ast.For):
            desc = scope.iter_desc(node.iter)
            scan_expr(node.iter)
            if desc is not None:
                loops.append(UnorderedLoop(node, _target_names(node.target),
                                           desc, node.body))
            visit_stmts(node.body)
            visit_stmts(node.orelse)
            return
        # everything else: scan contained expressions for comprehensions,
        # then recurse into child statements
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                visit(child)
            else:
                scan_expr(child)

    def scan_expr(expr: ast.AST) -> None:
        for node in ast.walk(expr):
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                 ast.GeneratorExp)):
                for gen in node.generators:
                    desc = scope.iter_desc(gen.iter)
                    if desc is not None:
                        loops.append(UnorderedLoop(
                            node, _target_names(gen.target), desc, []))

    visit_stmts(fn.body)
    return loops
