"""Whole-program symbol/import/call graph over the ``repro`` package.

The per-file rules of :mod:`repro.tooling.rules` can only see one module at
a time, but the contracts that carry the reproduction's claims are
*cross-module*: a ``link`` helper calling a ``util`` function that reads the
wall clock breaks determinism two hops away from the deterministic layer,
and a span name is only valid if ``repro.obs.schema`` declares it.  This
module extracts one :class:`ModuleSummary` of static facts per file —
imports, functions and their resolved call targets, classes and bases,
``raise`` sites, observability name references, executor-boundary payloads —
and assembles them into a :class:`Project` the contract rules
(:mod:`repro.tooling.contracts`) reason over.

Summaries are pure functions of the file's text.
"""

from __future__ import annotations

import ast
import builtins
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from repro.exceptions import ToolingError
from repro.tooling.findings import parse_pragmas
from repro.tooling.layers import layer_of

#: Methods whose string argument names a span or metric (the obs contract).
OBS_METHODS = frozenset({"span", "counter", "gauge", "histogram"})

#: Functions whose callable arguments cross the process-pool boundary.
EXECUTOR_BOUNDARY_FUNCS = frozenset(
    {
        "repro.perf.executor.run_specs",
        "repro.perf.executor.make_runner",
        "repro.perf.runtime.run_specs_resilient",
        "repro.link.simulator.execute_specs",
        "repro.link.simulator.sweep_specs",
    }
)

#: Keyword argument that injects a callable into the sweep machinery; a
#: lambda here may end up pickled toward a worker process.
EXECUTOR_BOUNDARY_KWARGS = frozenset({"runner"})

#: Method names that submit work to a pool regardless of the receiver.
EXECUTOR_BOUNDARY_METHODS = frozenset({"submit"})


def module_name_for(path: Union[str, Path]) -> str:
    """Dotted module name for a file under a ``repro`` package tree.

    Keeps the ``__init__`` component (``repro.camera.__init__``) so relative
    imports resolve against the right package.  Returns ``""`` when the path
    does not contain a ``repro`` component (e.g. scratch fixture files).
    """
    parts = Path(path).with_suffix("").parts
    try:
        start = len(parts) - 1 - parts[::-1].index("repro")
    except ValueError:
        return ""
    return ".".join(parts[start:])


def normalize_module(module: str) -> str:
    """Importable name of a module: ``repro.x.__init__`` -> ``repro.x``."""
    if module.endswith(".__init__"):
        return module[: -len(".__init__")]
    return module


def resolve_relative_base(module: str, level: int) -> Optional[str]:
    """Package a ``level``-deep relative import resolves against, if known."""
    if not module:
        return None
    parts = module.split(".")
    # The module's own package is parts[:-1]; each extra level climbs once more.
    cut = len(parts) - level
    if cut < 1:
        return None
    return ".".join(parts[:cut])


def collect_aliases(tree: ast.Module, module: str = "") -> Dict[str, str]:
    """Map local names to the dotted module/object paths they were imported as.

    Relative imports resolve against ``module`` when it is known (the dotted
    name including a trailing ``__init__`` component), so package-boundary
    imports like ``from ..rx import receiver`` land on absolute targets.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.asname is not None:
                    aliases[item.asname] = item.name
                else:
                    # ``import numpy.random`` binds the top-level name only.
                    head = item.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module
            else:
                base = resolve_relative_base(module, node.level)
                if base is None:
                    continue
                if node.module:
                    base = f"{base}.{node.module}"
            if not base:
                continue
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = f"{base}.{item.name}"
    return aliases


def resolve_dotted(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve an ``a.b.c`` expression to its imported dotted path, if any."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    parts[0] = aliases.get(parts[0], parts[0])
    return ".".join(parts)


@dataclass(frozen=True)
class CallSite:
    """One call inside a function body: resolved target and location."""

    target: str
    lineno: int


@dataclass(frozen=True)
class FunctionInfo:
    """One function/method: where it lives and what it calls."""

    qualname: str
    module: str
    lineno: int
    #: Defined inside another function (closures are not picklable).
    nested: bool
    calls: Tuple[CallSite, ...]


@dataclass(frozen=True)
class FieldInfo:
    """One dataclass field: resolved annotation names and default shape."""

    name: str
    lineno: int
    #: Dotted names appearing anywhere in the annotation, alias-resolved.
    annotation_names: Tuple[str, ...]
    #: ``"lambda"`` when the default is a lambda literal, else ``None``.
    default_kind: Optional[str]


@dataclass(frozen=True)
class ClassInfo:
    """One class definition: bases (alias-resolved) and dataclass fields."""

    qualname: str
    module: str
    lineno: int
    nested: bool
    bases: Tuple[str, ...]
    is_dataclass: bool
    fields: Tuple[FieldInfo, ...]


@dataclass(frozen=True)
class RaiseSite:
    """One ``raise``: the resolved exception name, or ``None`` for re-raise."""

    lineno: int
    #: Dotted name of the raised callable/class; bare builtin names stay
    #: bare (``"RuntimeError"``); ``None`` means a bare ``raise`` or a
    #: re-raised local variable — both always legal.
    target: Optional[str]


@dataclass(frozen=True)
class ObsCall:
    """One ``.span()/.counter()/.gauge()/.histogram()`` name reference."""

    lineno: int
    method: str
    #: Literal name value, when resolvable inside the module.
    value: Optional[str]
    #: Dotted schema constant the name resolved through, when imported.
    const: Optional[str]


@dataclass(frozen=True)
class PayloadRef:
    """One callable argument crossing an executor boundary."""

    lineno: int
    boundary: str
    #: ``"lambda"`` | ``"nested-function"`` | ``"name"``.
    kind: str
    target: Optional[str] = None


@dataclass
class ModuleSummary:
    """Every static fact the contract rules need about one module."""

    path: str
    module: str
    layer: Optional[str]
    content_hash: str
    aliases: Dict[str, str] = field(default_factory=dict)
    functions: Tuple[FunctionInfo, ...] = ()
    classes: Tuple[ClassInfo, ...] = ()
    raises: Tuple[RaiseSite, ...] = ()
    obs_calls: Tuple[ObsCall, ...] = ()
    payloads: Tuple[PayloadRef, ...] = ()
    #: Line numbers iterating directly over a set literal/constructor.
    set_iterations: Tuple[int, ...] = ()
    #: Module-level ``NAME = "literal"`` assignments -> (value, lineno).
    string_constants: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    pragmas: Dict[int, FrozenSet[str]] = field(default_factory=dict)


def content_hash(source: str) -> str:
    """The sha256 of a file's text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _is_builtin_exception(name: str) -> bool:
    obj = getattr(builtins, name, None)
    return isinstance(obj, type) and issubclass(obj, BaseException)


def _is_setish(node: ast.AST) -> bool:
    """Does this expression build a set (whose iteration order floats)?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


def _local_def_names(body: Sequence[ast.stmt]) -> FrozenSet[str]:
    """Names of every ``def`` at any depth inside a function body."""
    names: Set[str] = set()
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
    return frozenset(names)


class _ModuleWalker:
    """Single-pass recursive extraction of one module's summary facts."""

    def __init__(self, module: str, aliases: Dict[str, str]) -> None:
        self.module = normalize_module(module) if module else ""
        self.aliases = aliases
        self.functions: List[FunctionInfo] = []
        self.classes: List[ClassInfo] = []
        self.raises: List[RaiseSite] = []
        self.obs_calls: List[ObsCall] = []
        self.payloads: List[PayloadRef] = []
        self.set_iterations: List[int] = []
        self.string_constants: Dict[str, Tuple[str, int]] = {}
        #: Module-top-level symbols (functions/classes), for bare-name
        #: resolution within the module.
        self.top_level: Dict[str, str] = {}

    # -- name resolution ---------------------------------------------------

    def _qual(self, scope: Tuple[str, ...], name: str) -> str:
        base = self.module or "<file>"
        return ".".join((base,) + scope + (name,))

    def resolve_ref(self, node: ast.AST) -> Optional[str]:
        """Best-effort dotted name of an expression referencing a symbol."""
        if isinstance(node, ast.Name):
            if node.id in self.aliases:
                return self.aliases[node.id]
            if node.id in self.top_level:
                return self.top_level[node.id]
            return node.id
        return resolve_dotted(node, self.aliases)

    # -- extraction --------------------------------------------------------

    def walk_module(self, tree: ast.Module) -> None:
        # Pre-pass: module-level symbol table, so forward references to
        # later-defined functions/classes still resolve.
        for node in tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                self.top_level[node.name] = self._qual((), node.name)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if (
                    isinstance(target, ast.Name)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)
                ):
                    self.string_constants[target.id] = (
                        node.value.value,
                        node.lineno,
                    )
        # Module-level statements form a pseudo-function "<module>" so
        # import-time calls participate in the determinism analysis.
        self._walk_callable(
            body=tree.body,
            scope=(),
            name="<module>",
            lineno=1,
            nested=False,
            in_function=False,
        )

    def _walk_callable(
        self,
        body: Sequence[ast.stmt],
        scope: Tuple[str, ...],
        name: str,
        lineno: int,
        nested: bool,
        in_function: bool,
    ) -> None:
        """Record one function (or the module body) and recurse into defs."""
        calls: List[CallSite] = []
        # Inside a real function, every def at any depth is a closure;
        # at module level the defs are importable top-level callables.
        local_defs = _local_def_names(body) if in_function else frozenset()
        inner_scope = scope + (name,) if name != "<module>" else scope
        for stmt in body:
            self._visit(stmt, inner_scope, calls, local_defs, in_function)
        self.functions.append(
            FunctionInfo(
                qualname=self._qual(scope, name),
                module=self.module,
                lineno=lineno,
                nested=nested,
                calls=tuple(calls),
            )
        )

    def _visit(
        self,
        node: ast.AST,
        scope: Tuple[str, ...],
        calls: List[CallSite],
        local_defs: FrozenSet[str],
        in_function: bool,
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._walk_callable(
                body=node.body,
                scope=scope,
                name=node.name,
                lineno=node.lineno,
                nested=in_function,
                in_function=True,
            )
            return
        if isinstance(node, ast.ClassDef):
            self._record_class(node, scope, nested=in_function)
            class_scope = scope + (node.name,)
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # Methods of a class are reachable as Class.method —
                    # nested only if the class itself is function-local.
                    self._walk_callable(
                        body=stmt.body,
                        scope=class_scope,
                        name=stmt.name,
                        lineno=stmt.lineno,
                        nested=in_function,
                        in_function=True,
                    )
                else:
                    self._visit(stmt, class_scope, calls, local_defs, in_function)
            return
        if isinstance(node, ast.Raise):
            self._record_raise(node)
        elif isinstance(node, ast.Call):
            self._record_call(node, calls, local_defs)
        elif isinstance(node, ast.For) and _is_setish(node.iter):
            self.set_iterations.append(node.iter.lineno)
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for gen in node.generators:
                if _is_setish(gen.iter):
                    self.set_iterations.append(gen.iter.lineno)
        for child in ast.iter_child_nodes(node):
            self._visit(child, scope, calls, local_defs, in_function)

    def _record_class(
        self, node: ast.ClassDef, scope: Tuple[str, ...], nested: bool
    ) -> None:
        bases = tuple(
            dotted
            for dotted in (self.resolve_ref(base) for base in node.bases)
            if dotted is not None
        )
        is_dataclass = False
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            if self.resolve_ref(target) in {"dataclass", "dataclasses.dataclass"}:
                is_dataclass = True
        fields: List[FieldInfo] = []
        if is_dataclass:
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                    stmt.target, ast.Name
                ):
                    continue
                names = [
                    self.resolve_ref(sub)
                    for sub in ast.walk(stmt.annotation)
                    if isinstance(sub, ast.Name)
                ]
                fields.append(
                    FieldInfo(
                        name=stmt.target.id,
                        lineno=stmt.lineno,
                        annotation_names=tuple(n for n in names if n),
                        default_kind=(
                            "lambda"
                            if isinstance(stmt.value, ast.Lambda)
                            else None
                        ),
                    )
                )
        self.classes.append(
            ClassInfo(
                qualname=self._qual(scope, node.name),
                module=self.module,
                lineno=node.lineno,
                nested=nested,
                bases=bases,
                is_dataclass=is_dataclass,
                fields=tuple(fields),
            )
        )

    def _record_raise(self, node: ast.Raise) -> None:
        exc = node.exc
        if exc is None:
            self.raises.append(RaiseSite(lineno=node.lineno, target=None))
            return
        if isinstance(exc, ast.Call):
            exc = exc.func
        target: Optional[str] = None
        if isinstance(exc, ast.Name):
            if exc.id in self.aliases:
                target = self.aliases[exc.id]
            elif exc.id in self.top_level:
                target = self.top_level[exc.id]
            elif _is_builtin_exception(exc.id):
                target = exc.id
            # else: a local variable — a re-raise, always legal (None).
        elif isinstance(exc, ast.Attribute):
            target = resolve_dotted(exc, self.aliases)
        self.raises.append(RaiseSite(lineno=node.lineno, target=target))

    def _record_call(
        self, node: ast.Call, calls: List[CallSite], local_defs: FrozenSet[str]
    ) -> None:
        target = self.resolve_ref(node.func)
        if target is not None:
            calls.append(CallSite(target=target, lineno=node.lineno))
        self._record_obs_call(node)
        self._record_payloads(node, target, local_defs)

    def _record_obs_call(self, node: ast.Call) -> None:
        if not isinstance(node.func, ast.Attribute):
            return
        method = node.func.attr
        if method not in OBS_METHODS:
            return
        arg: Optional[ast.AST] = node.args[0] if node.args else None
        if arg is None:
            for kw in node.keywords:
                if kw.arg == "name":
                    arg = kw.value
        if arg is None:
            return
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            self.obs_calls.append(
                ObsCall(
                    lineno=node.lineno, method=method, value=arg.value, const=None
                )
            )
            return
        if not isinstance(arg, (ast.Name, ast.Attribute)):
            return  # dynamic; the runtime registry still validates it
        dotted = self.resolve_ref(arg)
        if dotted is not None and dotted.startswith("repro.obs.schema."):
            self.obs_calls.append(
                ObsCall(lineno=node.lineno, method=method, value=None, const=dotted)
            )
        elif isinstance(arg, ast.Name) and arg.id in self.string_constants:
            value, _ = self.string_constants[arg.id]
            self.obs_calls.append(
                ObsCall(lineno=node.lineno, method=method, value=value, const=None)
            )

    def _record_payloads(
        self,
        node: ast.Call,
        target: Optional[str],
        local_defs: FrozenSet[str],
    ) -> None:
        boundary: Optional[str] = None
        inspect: List[ast.AST] = []
        if target in EXECUTOR_BOUNDARY_FUNCS:
            boundary = target
            inspect.extend(node.args)
            inspect.extend(kw.value for kw in node.keywords if kw.arg)
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in EXECUTOR_BOUNDARY_METHODS
            and node.args
        ):
            boundary = f"<pool>.{node.func.attr}"
            inspect.append(node.args[0])
        for kw in node.keywords:
            if kw.arg in EXECUTOR_BOUNDARY_KWARGS:
                inspect.append(kw.value)
                if boundary is None:
                    boundary = target or f"<call>({kw.arg}=...)"
        if boundary is None:
            return
        seen_nodes: Set[int] = set()
        for arg in inspect:
            if id(arg) in seen_nodes:
                continue
            seen_nodes.add(id(arg))
            if isinstance(arg, ast.Lambda):
                self.payloads.append(
                    PayloadRef(lineno=arg.lineno, boundary=boundary, kind="lambda")
                )
            elif isinstance(arg, ast.Name):
                if arg.id in local_defs:
                    self.payloads.append(
                        PayloadRef(
                            lineno=arg.lineno,
                            boundary=boundary,
                            kind="nested-function",
                            target=arg.id,
                        )
                    )
                else:
                    dotted = self.resolve_ref(arg)
                    if dotted and "." in dotted:
                        self.payloads.append(
                            PayloadRef(
                                lineno=arg.lineno,
                                boundary=boundary,
                                kind="name",
                                target=dotted,
                            )
                        )


def summarize_module(
    path: Union[str, Path],
    source: str,
    module: Optional[str] = None,
) -> ModuleSummary:
    """Extract one module's :class:`ModuleSummary` (parses the source)."""
    path = str(path)
    if module is None:
        module = module_name_for(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise ToolingError(f"cannot summarize {path}: {exc.msg}") from exc
    aliases = collect_aliases(tree, module)
    walker = _ModuleWalker(module, aliases)
    walker.walk_module(tree)
    return ModuleSummary(
        path=path,
        module=walker.module,
        layer=layer_of(module) if module else None,
        content_hash=content_hash(source),
        aliases=aliases,
        functions=tuple(walker.functions),
        classes=tuple(walker.classes),
        raises=tuple(walker.raises),
        obs_calls=tuple(walker.obs_calls),
        payloads=tuple(walker.payloads),
        set_iterations=tuple(walker.set_iterations),
        string_constants=walker.string_constants,
        pragmas={
            lineno: frozenset(rules)
            for lineno, rules in parse_pragmas(source).items()
        },
    )


class Project:
    """The assembled whole-program view: summaries plus symbol indexes."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        #: Keyed by normalized module name (path when outside a repro tree).
        self.modules: Dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.modules[summary.module or summary.path] = summary
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        for summary in summaries:
            for fn in summary.functions:
                self.functions[fn.qualname] = fn
            for cls in summary.classes:
                self.classes[cls.qualname] = cls

    def resolve(self, dotted: Optional[str], _depth: int = 0) -> Optional[str]:
        """Follow package re-exports to a defining qualname.

        ``repro.faults.FaultInjector`` resolves through the aliases of
        ``repro/faults/__init__.py`` to ``repro.faults.base.FaultInjector``.
        Unknown names come back unchanged.
        """
        if dotted is None or _depth > 8:
            return dotted
        if dotted in self.functions or dotted in self.classes:
            return dotted
        head, _, tail = dotted.rpartition(".")
        summary = self.modules.get(head)
        if summary is not None and tail in summary.aliases:
            resolved = summary.aliases[tail]
            if resolved != dotted:
                return self.resolve(resolved, _depth + 1)
        return dotted

    def function(self, dotted: Optional[str]) -> Optional[FunctionInfo]:
        resolved = self.resolve(dotted)
        return self.functions.get(resolved) if resolved else None

    def class_info(self, dotted: Optional[str]) -> Optional[ClassInfo]:
        resolved = self.resolve(dotted)
        return self.classes.get(resolved) if resolved else None


def project_files(roots: Sequence[Union[str, Path]]) -> List[Path]:
    """Every ``*.py`` file under the given roots, sorted and de-duplicated.

    Overlapping roots (a directory and a file inside it) yield each file
    once; files are keyed on their resolved path, so relative and absolute
    spellings of one file do not count twice either.
    """
    files: List[Path] = []
    seen: Set[Path] = set()
    for root in roots:
        root_path = Path(root)
        if root_path.is_file():
            candidates = [root_path]
        elif root_path.is_dir():
            candidates = sorted(p for p in root_path.rglob("*.py") if p.is_file())
        else:
            raise ToolingError(f"analysis target does not exist: {root_path}")
        for candidate in candidates:
            key = candidate.resolve()
            if key not in seen:
                seen.add(key)
                files.append(candidate)
    return files


def build_project(
    roots: Union[str, Path, Sequence[Union[str, Path]]],
) -> Project:
    """Summarize every file under ``roots`` into one :class:`Project`."""
    if isinstance(roots, (str, Path)):
        roots = [roots]
    summaries = []
    for file_path in project_files(roots):
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ToolingError(f"cannot read {file_path}: {exc}") from exc
        try:
            summaries.append(summarize_module(str(file_path), source))
        except ToolingError:
            # Unparseable files are reported by the per-file linter as
            # syntax-error findings; the graph simply omits them.
            continue
    return Project(summaries)
