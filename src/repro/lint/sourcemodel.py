"""One shared parse of a source tree, consumed by every lint rule.

The linter's cost model is "parse once, analyse many": :class:`SourceIndex`
walks a package directory, parses every ``*.py`` file with :mod:`ast`, and
precomputes the facts more than one rule needs —

* resolved internal imports, including function-local (deferred) ones,
  because a deferred import still declares a layer edge;
* per-class maps of attributes assigned from :mod:`threading` lock
  constructors (what L2 means by "a lock");
* dataclass field orders (what L4 holds codec tables against);
* module-level literal string tuples (the codec field tables themselves).

Everything here is stdlib-only and side-effect free: the tree is read,
never imported, so linting a broken or cyclic module set still works.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "ClassInfo",
    "DataclassInfo",
    "ImportRecord",
    "ModuleInfo",
    "SourceIndex",
    "TupleAssign",
    "dotted_name",
]

#: threading constructors whose result we treat as "a thread lock" for
#: the purposes of L2 (loop blocking).
_THREADING_LOCK_CTORS = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass(frozen=True)
class ImportRecord:
    """One resolved internal (or external) import edge."""

    target: str  #: fully resolved module path, e.g. ``repro.engine.grid``
    names: Tuple[str, ...]  #: imported symbol names ("" for plain import)
    lineno: int
    is_local: bool  #: inside a function body (a deferred import)


@dataclass(frozen=True)
class TupleAssign:
    """A module-level ``NAME = ("a", "b", ...)`` assignment.

    ``values`` is ``None`` when the right-hand side is not a literal
    tuple of strings; ``fields_of`` names the dataclass when the RHS is
    the ``tuple(f.name for f in dataclasses.fields(X))`` idiom (complete
    by construction, so L4 accepts it without enumeration).
    """

    name: str
    lineno: int
    values: Optional[Tuple[str, ...]]
    fields_of: Optional[str] = None


@dataclass(frozen=True)
class DataclassInfo:
    name: str
    lineno: int
    fields: Tuple[str, ...]


@dataclass
class ClassInfo:
    node: ast.ClassDef
    #: attribute name -> dotted constructor names ever assigned to it
    #: (``self.X = threading.Lock()`` records ``{"X": {"threading.Lock"}}``)
    attr_ctors: Dict[str, Set[str]] = field(default_factory=dict)

    def lock_attrs(self, module: "ModuleInfo") -> Set[str]:
        """Attributes of this class assigned a :mod:`threading` lock."""
        out = set()
        for attr, ctors in self.attr_ctors.items():
            if any(module.is_threading_lock_ctor(c) for c in ctors):
                out.add(attr)
        return out


class ModuleInfo:
    """Everything the rules need to know about one parsed module."""

    def __init__(
        self,
        name: str,
        path: Path,
        rel: str,
        source: str,
        is_package: bool,
    ) -> None:
        self.name = name
        self.path = path
        self.rel = rel  #: display path, relative to the scan root's parent
        self.is_package = is_package
        self.tree = ast.parse(source, filename=str(path))
        self.imports: List[ImportRecord] = []
        self.classes: List[ClassInfo] = []
        self.dataclasses: Dict[str, DataclassInfo] = {}
        self.tuple_assigns: Dict[str, TupleAssign] = {}
        #: module-level NAME -> dotted constructor assigned to it
        self.global_ctors: Dict[str, str] = {}
        #: symbol name -> module it was imported from (``from X import n``)
        self.symbol_sources: Dict[str, str] = {}
        self._collect()

    # ------------------------------------------------------------------
    def is_threading_lock_ctor(self, ctor: str) -> bool:
        """Does dotted constructor name ``ctor`` denote a threading lock
        in this module's namespace (``threading.Lock`` directly, or a
        bare ``Lock`` imported from :mod:`threading`)?"""
        head, _, tail = ctor.rpartition(".")
        if head == "threading" and tail in _THREADING_LOCK_CTORS:
            return True
        if not head and tail in _THREADING_LOCK_CTORS:
            return self.symbol_sources.get(tail) == "threading"
        return False

    # ------------------------------------------------------------------
    def _collect(self) -> None:
        pkg_parts = self.name.split(".")
        base_parts = pkg_parts if self.is_package else pkg_parts[:-1]

        def resolve_from(node: ast.ImportFrom) -> Optional[str]:
            if node.level == 0:
                return node.module
            up = node.level - 1
            if up > len(base_parts):
                return None  # beyond the scanned root; not resolvable
            base = base_parts[: len(base_parts) - up] if up else base_parts
            if node.module:
                return ".".join(list(base) + node.module.split("."))
            return ".".join(base)

        func_stack = 0

        def visit(node: ast.AST) -> None:
            nonlocal func_stack
            is_func = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_func:
                func_stack += 1
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports.append(
                        ImportRecord(
                            alias.name, ("",), node.lineno, func_stack > 0
                        )
                    )
            elif isinstance(node, ast.ImportFrom):
                target = resolve_from(node)
                if target is not None:
                    names = tuple(alias.name for alias in node.names)
                    self.imports.append(
                        ImportRecord(target, names, node.lineno, func_stack > 0)
                    )
                    if func_stack == 0:
                        for alias in node.names:
                            bound = alias.asname or alias.name
                            self.symbol_sources[bound] = target
            for child in ast.iter_child_nodes(node):
                visit(child)
            if is_func:
                func_stack -= 1

        visit(self.tree)

        for stmt in self.tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    self._module_assign(target.id, stmt)
            elif isinstance(stmt, ast.ClassDef):
                self._collect_class(stmt)

    def _module_assign(self, name: str, stmt: ast.Assign) -> None:
        value = stmt.value
        if isinstance(value, ast.Call):
            ctor = dotted_name(value.func)
            if ctor:
                self.global_ctors[name] = ctor
            self.tuple_assigns[name] = _dynamic_tuple(name, stmt, value)
        elif isinstance(value, ast.Tuple):
            strings: List[str] = []
            literal = True
            for elt in value.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    strings.append(elt.value)
                else:
                    literal = False
                    break
            self.tuple_assigns[name] = TupleAssign(
                name, stmt.lineno, tuple(strings) if literal else None
            )

    def _collect_class(self, node: ast.ClassDef) -> None:
        info = ClassInfo(node)
        self.classes.append(info)
        if _is_dataclass(node, self.symbol_sources):
            fields_ = tuple(
                t.target.id
                for t in node.body
                if isinstance(t, ast.AnnAssign)
                and isinstance(t.target, ast.Name)
                and not _is_classvar(t.annotation)
            )
            self.dataclasses[node.name] = DataclassInfo(
                node.name, node.lineno, fields_
            )
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                targets = (
                    sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                )
                value = sub.value
                if not isinstance(value, ast.Call):
                    continue
                ctor = dotted_name(value.func)
                if not ctor:
                    continue
                for t in targets:
                    if (
                        isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == "self"
                    ):
                        info.attr_ctors.setdefault(t.attr, set()).add(ctor)


def _dynamic_tuple(name: str, stmt: ast.Assign, call: ast.Call) -> TupleAssign:
    """Recognize ``tuple(f.name for f in dataclasses.fields(X))``."""
    fields_of = None
    if (
        isinstance(call.func, ast.Name)
        and call.func.id == "tuple"
        and call.args
        and isinstance(call.args[0], ast.GeneratorExp)
    ):
        gen = call.args[0]
        for comp in gen.generators:
            it = comp.iter
            if (
                isinstance(it, ast.Call)
                and (dotted_name(it.func) or "").endswith("fields")
                and it.args
            ):
                target = dotted_name(it.args[0])
                if target:
                    fields_of = target.rpartition(".")[2]
    return TupleAssign(name, stmt.lineno, None, fields_of)


def _is_dataclass(node: ast.ClassDef, symbols: Dict[str, str]) -> bool:
    for dec in node.decorator_list:
        call = dec.func if isinstance(dec, ast.Call) else dec
        name = dotted_name(call) or ""
        if name in ("dataclass", "dataclasses.dataclass"):
            return True
    return False


def _is_classvar(annotation: ast.AST) -> bool:
    name = dotted_name(annotation) or ""
    if isinstance(annotation, ast.Subscript):
        name = dotted_name(annotation.value) or ""
    return name.rpartition(".")[2] == "ClassVar"


class SourceIndex:
    """All modules under one package root, parsed exactly once."""

    def __init__(self, root: Path) -> None:
        root = Path(root).resolve()
        if not root.is_dir():
            raise FileNotFoundError(f"lint root {root} is not a directory")
        self.root = root
        self.package = root.name
        self.modules: List[ModuleInfo] = []
        self._by_name: Dict[str, ModuleInfo] = {}
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            rel_parts = path.relative_to(root).with_suffix("").parts
            is_package = rel_parts[-1] == "__init__"
            if is_package:
                rel_parts = rel_parts[:-1]
            name = ".".join((self.package,) + tuple(rel_parts))
            mod = ModuleInfo(
                name,
                path,
                path.relative_to(root.parent).as_posix(),
                path.read_text(encoding="utf-8"),
                is_package,
            )
            self.modules.append(mod)
            self._by_name[name] = mod

    def get(self, name: str) -> Optional[ModuleInfo]:
        return self._by_name.get(name)

    def is_known_module(self, name: str) -> bool:
        return name in self._by_name

    def resolve_dataclass(self, dotted: str) -> Optional[Tuple[ModuleInfo, DataclassInfo]]:
        """``repro.core.stats.QueryStats`` -> its defining module + info."""
        mod_name, _, cls = dotted.rpartition(".")
        mod = self.get(mod_name)
        if mod is None:
            return None
        info = mod.dataclasses.get(cls)
        if info is None:
            return None
        return mod, info

    def iter_imports(self, mod: ModuleInfo) -> Iterator[Tuple[ImportRecord, str]]:
        """Yield ``(record, effective_target)`` with ``from pkg import sub``
        resolved down to the submodule when ``pkg.sub`` is a module we
        indexed (the precise layer edge)."""
        for rec in mod.imports:
            if len(rec.names) == 1 and rec.names[0]:
                candidate = f"{rec.target}.{rec.names[0]}"
                if self.is_known_module(candidate):
                    yield rec, candidate
                    continue
            yield rec, rec.target
