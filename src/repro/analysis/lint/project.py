"""Whole-program index for cross-module rcast-lint rules.

The per-file rules (R001–R006) see one AST at a time, which cannot catch a
raw ``random.Random`` smuggled across a module boundary or a stream name
derived in two different subsystems.  :class:`ProjectIndex` builds the
shared groundwork once per lint run:

* a **module table** — every linted file with its dotted module name and
  :class:`~repro.analysis.lint.context.FileContext`;
* an **import map** per module — which local names resolve to which dotted
  project/stdlib symbols (absolute and relative imports);
* a **symbol table** — function and method definitions by simple and
  qualified name, with their parameter lists;
* a **call-site map** — every call in the project, keyed by the callee's
  simple name, for cross-module argument provenance (an approximation of a
  call graph: names are matched by identifier, not by type inference,
  which is precise enough for a codebase that resolves callables
  lexically).

Project rules (R007–R010) subclass :class:`ProjectRule` and receive the
index alongside the per-file context, so a rule can ask "which expressions
does anyone ever pass for this parameter?" or "which other modules derive
this stream name?".
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint.context import FileContext, dotted_chain

#: Maximum recursion depth for cross-boundary provenance walks.  Deep
#: chains are rare; the bound keeps pathological fixtures linear.
MAX_PROVENANCE_DEPTH = 8


def module_name_from_rel(rel: str) -> str:
    """Dotted module name for a package-relative path.

    ``mac/dcf.py`` → ``repro.mac.dcf``; ``__init__.py`` → ``repro``.
    Non-package paths (ad-hoc snippets) still get a stable, unique name.
    """
    rel = rel.replace("\\", "/")
    if rel.endswith(".py"):
        rel = rel[:-3]
    parts = [p for p in rel.split("/") if p]
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(["repro"] + parts) if parts else "repro"


class FunctionInfo:
    """One function or method definition and its signature."""

    def __init__(self, module: "ModuleInfo", qualname: str,
                 node: ast.FunctionDef | ast.AsyncFunctionDef,
                 is_method: bool) -> None:
        self.module = module
        self.qualname = qualname
        self.node = node
        self.is_method = is_method
        args = node.args
        #: positional parameter names in call order
        self.params: Tuple[str, ...] = tuple(
            a.arg for a in args.posonlyargs + args.args
        )
        self.kwonly: Tuple[str, ...] = tuple(a.arg for a in args.kwonlyargs)

    @property
    def name(self) -> str:
        """Simple (unqualified) function name."""
        return self.node.name


class CallSite:
    """One call expression, with enough context to map its arguments."""

    def __init__(self, module: "ModuleInfo", call: ast.Call,
                 scope: Optional[FunctionInfo]) -> None:
        self.module = module
        self.call = call
        #: the function the call appears in (None at module level)
        self.scope = scope

    def argument_for(self, info: FunctionInfo,
                     position: int, name: str) -> Optional[ast.expr]:
        """The expression passed for parameter ``name`` at ``position``.

        ``position`` is the callee's parameter index; for methods invoked
        as ``obj.meth(...)`` the implicit ``self`` is not present at the
        call site, so the positional index shifts down by one.
        """
        call = self.call
        index = position
        if info.is_method and isinstance(call.func, ast.Attribute):
            index -= 1
        if index >= 0 and index < len(call.args):
            return call.args[index]
        for keyword in call.keywords:
            if keyword.arg == name:
                return keyword.value
        return None


class ModuleInfo:
    """One linted module: context, imports, definitions."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.rel = ctx.rel
        self.name = module_name_from_rel(ctx.rel)
        self.package = self.name.rsplit(".", 1)[0] if "." in self.name else ""
        #: local name -> dotted origin ("Event" -> "repro.sim.events.Event")
        self.imports: Dict[str, str] = {}
        self._index_imports(ctx.tree)
        #: simple name -> definitions in this module
        self.functions: Dict[str, List[FunctionInfo]] = {}
        #: assignments per function id() — (target key -> value exprs)
        self._local_assigns: Dict[int, Dict[str, List[ast.expr]]] = {}

    def _index_imports(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    # Relative import: resolve against this module's package.
                    pkg_parts = self.package.split(".") if self.package else []
                    cut = len(pkg_parts) - (node.level - 1)
                    prefix = ".".join(pkg_parts[:max(cut, 0)])
                    base = f"{prefix}.{base}".strip(".") if base else prefix
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.imports[local] = f"{base}.{alias.name}".strip(".")

    def resolve(self, node: ast.expr) -> Optional[str]:
        """Dotted origin of a name chain, through this module's imports.

        ``Event`` imported from ``repro.sim.events`` resolves to
        ``repro.sim.events.Event``; ``heapq.heappush`` (module import) to
        ``heapq.heappush``; unresolvable chains (locals, attributes on
        objects) return ``None``.
        """
        chain = dotted_chain(node)
        if chain is None:
            return None
        head = self.imports.get(chain[0])
        if head is None:
            return None
        return ".".join((head,) + chain[1:])


class ProjectIndex:
    """Cross-module symbol, import and call-site index."""

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        for ctx in contexts:
            self.modules[ctx.rel] = ModuleInfo(ctx)
        #: simple function name -> all definitions, project-wide
        self.functions: Dict[str, List[FunctionInfo]] = {}
        #: simple callee name -> all call sites, project-wide
        self.call_sites: Dict[str, List[CallSite]] = {}
        for module in self.modules.values():
            self._index_module(module)
        #: project functions whose every return value is a derived seed
        self.derived_seed_factories: Set[str] = set()
        self._compute_seed_factories()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _index_module(self, module: ModuleInfo) -> None:
        # Definitions (module functions and class methods), then calls with
        # their enclosing function scope.
        class _Indexer(ast.NodeVisitor):
            def __init__(self, outer: "ProjectIndex") -> None:
                self.outer = outer
                self.class_stack: List[str] = []
                self.func_stack: List[FunctionInfo] = []

            def visit_ClassDef(self, node: ast.ClassDef) -> None:
                self.class_stack.append(node.name)
                self.generic_visit(node)
                self.class_stack.pop()

            def _visit_func(
                self, node: ast.FunctionDef | ast.AsyncFunctionDef
            ) -> None:
                qual = ".".join(self.class_stack + [node.name])
                info = FunctionInfo(module, qual, node,
                                    is_method=bool(self.class_stack))
                module.functions.setdefault(node.name, []).append(info)
                self.outer.functions.setdefault(node.name, []).append(info)
                module._local_assigns[id(node)] = _collect_assigns(node)
                self.func_stack.append(info)
                self.generic_visit(node)
                self.func_stack.pop()

            visit_FunctionDef = _visit_func
            visit_AsyncFunctionDef = _visit_func

            def visit_Call(self, node: ast.Call) -> None:
                scope = self.func_stack[-1] if self.func_stack else None
                site = CallSite(module, node, scope)
                callee = _callee_simple_name(node.func)
                if callee is not None:
                    self.outer.call_sites.setdefault(callee, []).append(site)
                self.generic_visit(node)

        _Indexer(self).visit(module.ctx.tree)

    def _compute_seed_factories(self) -> None:
        """Fixpoint: functions whose every ``return`` is a derived seed.

        Seeds the set with nothing and grows it until stable, so a helper
        that returns ``derive_seed(...)`` — or another helper that does —
        counts as a sanctioned seed source at its call sites.
        """
        changed = True
        while changed:
            changed = False
            for name, infos in self.functions.items():
                if name in self.derived_seed_factories:
                    continue
                for info in infos:
                    returns = [n for n in ast.walk(info.node)
                               if isinstance(n, ast.Return)]
                    if not returns:
                        continue
                    if all(
                        n.value is not None and self.is_derived_seed(
                            n.value, info.module, info, depth=1)
                        for n in returns
                    ):
                        self.derived_seed_factories.add(name)
                        changed = True
                        break

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def callers_of(self, simple_name: str) -> List[CallSite]:
        """All project call sites whose callee matches ``simple_name``."""
        return self.call_sites.get(simple_name, [])

    # ------------------------------------------------------------------
    # Seed provenance (R007)
    # ------------------------------------------------------------------

    def is_derived_seed(
        self,
        expr: ast.expr,
        module: ModuleInfo,
        scope: Optional[FunctionInfo],
        depth: int = 0,
        _visiting: Optional[Set[Tuple[str, str]]] = None,
    ) -> bool:
        """Whether ``expr`` provably flows from ``derive_seed``.

        Walks local assignments, seed-factory calls, arithmetic over
        derived parts, and — for bare parameters — every project call site
        of the enclosing function (all of them must pass derived seeds).
        """
        if depth > MAX_PROVENANCE_DEPTH:
            return False
        visiting = _visiting if _visiting is not None else set()

        if isinstance(expr, ast.Call):
            resolved = module.resolve(expr.func)
            simple = _callee_simple_name(expr.func)
            if resolved is not None and resolved.endswith(".derive_seed"):
                return True
            if simple == "derive_seed":
                return True
            if simple in self.derived_seed_factories:
                return True
            return False
        if isinstance(expr, ast.BinOp):
            return (
                self.is_derived_seed(expr.left, module, scope, depth + 1,
                                     visiting)
                or self.is_derived_seed(expr.right, module, scope, depth + 1,
                                        visiting)
            )
        if isinstance(expr, ast.Name):
            name = expr.id
            # Local (or module-level) assignment wins over parameter.
            assigns = self._assignments_for(module, scope).get(name)
            if assigns:
                return all(
                    self.is_derived_seed(value, module, scope, depth + 1,
                                         visiting)
                    for value in assigns
                )
            if scope is not None and (
                name in scope.params or name in scope.kwonly
            ):
                return self._parameter_is_derived(
                    scope, name, depth, visiting)
        return False

    def _assignments_for(
        self, module: ModuleInfo, scope: Optional[FunctionInfo]
    ) -> Dict[str, List[ast.expr]]:
        if scope is not None:
            local = module._local_assigns.get(id(scope.node))
            if local is not None:
                return local
        key = id(module.ctx.tree)
        cached = module._local_assigns.get(key)
        if cached is None:
            cached = module._local_assigns[key] = _collect_assigns(
                module.ctx.tree)
        return cached

    def _parameter_is_derived(
        self, scope: FunctionInfo, param: str, depth: int,
        visiting: Set[Tuple[str, str]],
    ) -> bool:
        """Whether every project call of ``scope`` derives ``param``."""
        key = (scope.module.rel, f"{scope.qualname}:{param}")
        if key in visiting:
            return False  # recursive chain: cannot prove
        visiting.add(key)
        try:
            try:
                position = scope.params.index(param)
            except ValueError:
                position = -1  # keyword-only
            sites = self.callers_of(scope.name)
            if not sites:
                return False
            matched = 0
            for site in sites:
                arg = site.argument_for(scope, position, param)
                if arg is None:
                    continue  # default used / different overload shape
                matched += 1
                if not self.is_derived_seed(arg, site.module, site.scope,
                                            depth + 1, visiting):
                    return False
            return matched > 0
        finally:
            visiting.discard(key)


def _collect_assigns(
    root: ast.Module | ast.FunctionDef | ast.AsyncFunctionDef,
) -> Dict[str, List[ast.expr]]:
    """Name -> assigned value expressions, without entering nested scopes."""
    assigns: Dict[str, List[ast.expr]] = {}
    body = root.body
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                assigns.setdefault(target.id, []).append(node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                assigns.setdefault(node.target.id, []).append(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return assigns


def _callee_simple_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def static_stream_key(expr: ast.expr) -> Optional[str]:
    """Static derivation-name key of a stream-name expression.

    A string constant is its own key; an f-string keys on its static
    prefix (``f"mac:{node_id}"`` → ``"mac:"``) so per-node families
    collapse to one key.  Dynamic names without a static prefix have no
    key and are exempt from name-collision checks.
    """
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, ast.JoinedStr):
        if expr.values and isinstance(expr.values[0], ast.Constant) \
                and isinstance(expr.values[0].value, str):
            prefix = expr.values[0].value
            return prefix if prefix else None
        return None
    return None


def iter_stream_derivations(
    module: ModuleInfo,
) -> Iterator[Tuple[ast.Call, str]]:
    """Yield ``(call, static key)`` for every stream derivation in a module.

    Covers ``<registry>.stream(name)``, ``derive_seed(seed, name)`` and
    ``derived_stream(seed, name)``.
    """
    for node in ast.walk(module.ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name_expr: Optional[ast.expr] = None
        if isinstance(func, ast.Attribute) and func.attr == "stream":
            if node.args:
                name_expr = node.args[0]
        elif _callee_simple_name(func) in ("derive_seed", "derived_stream"):
            if len(node.args) >= 2:
                name_expr = node.args[1]
        if name_expr is None:
            continue
        key = static_stream_key(name_expr)
        if key is not None:
            yield node, key


__all__ = [
    "CallSite",
    "FunctionInfo",
    "MAX_PROVENANCE_DEPTH",
    "ModuleInfo",
    "ProjectIndex",
    "iter_stream_derivations",
    "module_name_from_rel",
    "static_stream_key",
]
