"""The five invariant rules, run over one shared :class:`SourceIndex`.

============ ==========================================================
rule         invariant
============ ==========================================================
``L1``       the declared layer DAG: a module may import only the
             layers its own layer declares (upward and skip imports
             are violations), and per-layer banned symbols stay out
``L2``       ``async def`` bodies never block the event loop: no
             ``time.sleep``/raw socket ops/sync file opens, no
             blocking ``acquire()`` on a thread lock, and no thread
             lock held across an ``await``
``L3``       attributes annotated ``# guarded-by: <lock>`` are only
             written under ``with <lock>`` (or inside a function
             annotated ``# requires-lock: <lock>``); ``__init__`` is
             construction and exempt
``L4``       every field of each paired dataclass appears in its wire
             codec (field table or codec-function string constants),
             both directions — adding a counter without a codec, or
             deleting a codec field, fails lint
``L5``       every ``SharedMemory(create=True)`` / ``np.memmap`` /
             file-handle creation is syntactically paired with a
             close/unlink on a ``with``/``finally``/registered-cleanup
             path, or provably hands ownership onward
============ ==========================================================

Each rule is a function ``(index, config) -> list[Finding]``; the
:data:`RULES` registry is what ``--select`` filters against.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .model import CodecPairing, Finding, LintConfig, LintConfigError
from .sourcemodel import ClassInfo, ModuleInfo, SourceIndex, dotted_name

__all__ = ["RULES", "run_rules"]

_GUARDED_BY = re.compile(r"guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")
_REQUIRES_LOCK = re.compile(r"requires-lock:\s*([A-Za-z_][A-Za-z0-9_]*)")


# ----------------------------------------------------------------------
# shared walking helpers
# ----------------------------------------------------------------------
def _walk_skip_functions(nodes: Sequence[ast.AST]) -> Iterator[ast.AST]:
    """Depth-first walk that does not descend into nested function or
    lambda bodies (they execute in another context, not here)."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _functions_with_class(
    mod: ModuleInfo,
) -> Iterator[Tuple[ast.AST, Optional[ClassInfo]]]:
    """Every (async) function in the module with its enclosing class."""
    by_node = {info.node: info for info in mod.classes}

    def visit(node: ast.AST, cls: Optional[ClassInfo]) -> Iterator:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, by_node.get(child))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, cls
                yield from visit(child, cls)
            else:
                yield from visit(child, cls)

    yield from visit(mod.tree, None)


def _self_attr(node: ast.AST) -> Optional[str]:
    """``X`` when ``node`` is exactly ``self.X``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _rooted_self_attr(node: ast.AST) -> Optional[str]:
    """``X`` when ``node`` is ``self.X`` or any attribute/subscript
    chain hanging off it (``self.X.y``, ``self.X[k].z``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        attr = _self_attr(node)
        if attr is not None:
            return attr
        node = node.value
    return None


def _lock_name(expr: ast.AST, lock_attrs: Set[str], module_locks: Set[str]) -> Optional[str]:
    """The held-lock name a ``with`` context / ``acquire`` receiver
    denotes, if it is a known thread lock."""
    attr = _self_attr(expr)
    if attr is not None and attr in lock_attrs:
        return attr
    if isinstance(expr, ast.Name) and expr.id in module_locks:
        return expr.id
    return None


def _module_locks(mod: ModuleInfo) -> Set[str]:
    return {
        name
        for name, ctor in mod.global_ctors.items()
        if mod.is_threading_lock_ctor(ctor)
    }


# ----------------------------------------------------------------------
# L1 — layer DAG
# ----------------------------------------------------------------------
def rule_layers(index: SourceIndex, config: LintConfig) -> List[Finding]:
    findings: List[Finding] = []
    lc = config.layer
    pkg = index.package
    for mod in index.modules:
        layer = lc.layer_of(mod.name)
        if layer is None:
            findings.append(
                Finding(
                    "L1",
                    mod.rel,
                    1,
                    f"module {mod.name} is not assigned to any declared layer",
                    "add a prefix entry for it to LayerConfig.assignments",
                )
            )
            continue
        allowed = set(lc.allowed.get(layer, ())) | {layer}
        banned = set(lc.banned_names.get(layer, ()))
        for rec, target in index.iter_imports(mod):
            if not (target == pkg or target.startswith(pkg + ".")):
                continue
            if mod.is_package and target.startswith(mod.name + "."):
                # a package __init__ re-exporting from its own subtree is
                # aggregation, not a layer edge (e.g. repro.service
                # surfacing repro.service.http's public names)
                continue
            target_layer = lc.layer_of(target)
            if target_layer is None:
                findings.append(
                    Finding(
                        "L1",
                        mod.rel,
                        rec.lineno,
                        f"import target {target} is not assigned to any "
                        "declared layer",
                        "add a prefix entry for it to LayerConfig.assignments",
                    )
                )
            elif target_layer not in allowed:
                kind = "deferred import" if rec.is_local else "import"
                findings.append(
                    Finding(
                        "L1",
                        mod.rel,
                        rec.lineno,
                        f"layer '{layer}' may not import layer "
                        f"'{target_layer}' ({kind} of {target})",
                        f"'{layer}' may import only "
                        f"{sorted(allowed - {layer})}; invert the dependency "
                        "or move the code to the owning layer",
                    )
                )
            for name in rec.names:
                if name in banned:
                    findings.append(
                        Finding(
                            "L1",
                            mod.rel,
                            rec.lineno,
                            f"layer '{layer}' may not import symbol "
                            f"{name!r} (banned for this layer)",
                            "route the capability through the runtime "
                            "instead of the banned symbol",
                        )
                    )
    return findings


# ----------------------------------------------------------------------
# L2 — asyncio blocking-call detector
# ----------------------------------------------------------------------
def rule_blocking(index: SourceIndex, config: LintConfig) -> List[Finding]:
    findings: List[Finding] = []
    bc = config.blocking
    for mod in index.modules:
        module_locks = _module_locks(mod)
        for fn, cls in _functions_with_class(mod):
            if not isinstance(fn, ast.AsyncFunctionDef):
                continue
            lock_attrs = cls.lock_attrs(mod) if cls is not None else set()
            for node in _walk_skip_functions(fn.body):
                if isinstance(node, ast.Call):
                    findings.extend(
                        _check_async_call(mod, node, bc, lock_attrs, module_locks)
                    )
                elif isinstance(node, ast.With):
                    findings.extend(
                        _check_lock_hold(mod, node, lock_attrs, module_locks)
                    )
    return findings


def _check_async_call(mod, call, bc, lock_attrs, module_locks) -> List[Finding]:
    name = dotted_name(call.func) or ""
    attr = call.func.attr if isinstance(call.func, ast.Attribute) else ""
    out: List[Finding] = []

    def flag(message: str, hint: str) -> None:
        out.append(Finding("L2", mod.rel, call.lineno, message, hint))

    if any(name == b or name.endswith("." + b) for b in bc.blocking_calls):
        flag(
            f"blocking call {name}() inside async def",
            "await asyncio.sleep / run the blocking op in an executor",
        )
    elif attr and attr in bc.blocking_methods:
        flag(
            f"blocking socket/pipe op .{attr}() inside async def",
            "use asyncio streams, or bridge via loop.run_in_executor",
        )
    elif (isinstance(call.func, ast.Name) and name in bc.open_calls) or (
        "." in name and name in bc.open_calls
    ):
        flag(
            f"synchronous file open {name}() inside async def",
            "do file I/O before entering the loop or in an executor",
        )
    elif attr == "acquire":
        lock = _lock_name(call.func.value, lock_attrs, module_locks)
        if lock is not None:
            flag(
                f"blocking acquire() on thread lock {lock} inside async def",
                "use `with <lock>:` for a bounded hold, or an asyncio lock",
            )
    return out


def _check_lock_hold(mod, with_node, lock_attrs, module_locks) -> List[Finding]:
    """A thread lock taken with ``with`` in async code is tolerated only
    for a *bounded* hold: the body must not await (that parks the
    coroutine while every other thread contends on the lock — the
    classic loop deadlock)."""
    held = [
        lock
        for item in with_node.items
        if (lock := _lock_name(item.context_expr, lock_attrs, module_locks))
    ]
    if not held:
        return []
    for sub in _walk_skip_functions(with_node.body):
        if isinstance(sub, (ast.Await, ast.AsyncFor, ast.AsyncWith)):
            return [
                Finding(
                    "L2",
                    mod.rel,
                    sub.lineno,
                    f"thread lock {held[0]} held across an await",
                    "release the lock before awaiting; only bounded "
                    "(pure counter) holds are loop-safe",
                )
            ]
    return []


# ----------------------------------------------------------------------
# L3 — guarded-by discipline
# ----------------------------------------------------------------------
def rule_guards(index: SourceIndex, config: LintConfig) -> List[Finding]:
    findings: List[Finding] = []
    for mod in index.modules:
        module_locks = _module_locks(mod)
        for cls in mod.classes:
            guarded = _guarded_attrs(mod, cls)
            if not guarded:
                continue
            lock_attrs = cls.lock_attrs(mod)
            for fn, owner in _functions_with_class(mod):
                if owner is not cls or fn.name == "__init__":
                    continue
                requires = set(_REQUIRES_LOCK.findall(mod.comment(fn.lineno)))
                findings.extend(
                    _scan_guarded_writes(
                        mod,
                        fn.body,
                        guarded,
                        requires,
                        lock_attrs,
                        module_locks,
                        config.mutator_methods,
                    )
                )
    return findings


def _guarded_attrs(mod: ModuleInfo, cls: ClassInfo) -> Dict[str, str]:
    """``self.X`` attributes of ``cls`` annotated ``# guarded-by: <lock>``."""
    guarded: Dict[str, str] = {}
    for node in ast.walk(cls.node):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        match = _GUARDED_BY.search(mod.comment(node.lineno))
        if not match:
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for t in targets:
            attr = _self_attr(t)
            if attr is not None:
                guarded[attr] = match.group(1)
    return guarded


def _scan_guarded_writes(
    mod: ModuleInfo,
    body: Sequence[ast.AST],
    guarded: Dict[str, str],
    held: Set[str],
    lock_attrs: Set[str],
    module_locks: Set[str],
    mutators: Tuple[str, ...],
) -> List[Finding]:
    findings: List[Finding] = []

    def check_write(node: ast.AST, attr: Optional[str], what: str) -> None:
        if attr is None or attr not in guarded:
            return
        lock = guarded[attr]
        if lock not in held:
            findings.append(
                Finding(
                    "L3",
                    mod.rel,
                    node.lineno,
                    f"{what} of guarded attribute self.{attr} outside "
                    f"`with {lock}`",
                    f"wrap the mutation in `with {lock}:`, or annotate the "
                    f"enclosing function `# requires-lock: {lock}` if every "
                    "caller holds it",
                )
            )

    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.With):
            newly = {
                lock
                for item in node.items
                if (
                    lock := _lock_name(
                        item.context_expr, lock_attrs, module_locks
                    )
                )
            }
            findings.extend(
                _scan_guarded_writes(
                    mod,
                    node.body,
                    guarded,
                    held | newly,
                    lock_attrs,
                    module_locks,
                    mutators,
                )
            )
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for t in targets:
                check_write(node, _rooted_self_attr(t), "write")
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in mutators:
                check_write(
                    node,
                    _rooted_self_attr(func.value),
                    f"mutating call .{func.attr}()",
                )
        findings.extend(
            _scan_guarded_writes(
                mod,
                list(ast.iter_child_nodes(node)),
                guarded,
                held,
                lock_attrs,
                module_locks,
                mutators,
            )
        )
    return findings


# ----------------------------------------------------------------------
# L4 — wire-codec completeness
# ----------------------------------------------------------------------
def rule_codecs(index: SourceIndex, config: LintConfig) -> List[Finding]:
    findings: List[Finding] = []
    for pairing in config.codecs:
        findings.extend(_check_pairing(index, pairing))
    return findings


def _check_pairing(index: SourceIndex, pairing: CodecPairing) -> List[Finding]:
    resolved = index.resolve_dataclass(pairing.dataclass)
    if resolved is None:
        raise LintConfigError(
            f"L4 pairing names unknown dataclass {pairing.dataclass!r}"
        )
    dc_mod, dc = resolved
    fields = [f for f in dc.fields if f not in pairing.exclude]
    findings: List[Finding] = []
    if pairing.tuple_name:
        findings.extend(_check_field_table(index, pairing, dc_mod, dc, fields))
    for func_path in pairing.functions:
        findings.extend(_check_codec_function(index, pairing, dc, fields, func_path))
    return findings


def _check_field_table(index, pairing, dc_mod, dc, fields) -> List[Finding]:
    mod_name, _, table = pairing.tuple_name.rpartition(".")
    mod = index.get(mod_name)
    assign = mod.tuple_assigns.get(table) if mod is not None else None
    if mod is None or assign is None:
        raise LintConfigError(
            f"L4 pairing names unknown field table {pairing.tuple_name!r}"
        )
    if assign.values is None:
        if assign.fields_of == dc.name:
            return []  # tuple(f.name for f in fields(X)): complete by construction
        return [
            Finding(
                "L4",
                mod.rel,
                assign.lineno,
                f"field table {table} is not statically checkable against "
                f"{dc.name}",
                "spell the table as a literal string tuple (or "
                f"`tuple(f.name for f in dataclasses.fields({dc.name}))`)",
            )
        ]
    table_set = set(assign.values)
    findings = []
    for f in fields:
        if f not in table_set:
            findings.append(
                Finding(
                    "L4",
                    mod.rel,
                    assign.lineno,
                    f"field {dc.name}.{f} is missing from codec table {table}",
                    f"add {f!r} to {table} and to the encode/decode pair",
                )
            )
    for name in assign.values:
        if name not in dc.fields or name in pairing.exclude:
            findings.append(
                Finding(
                    "L4",
                    mod.rel,
                    assign.lineno,
                    f"codec table {table} lists {name!r}, which is not a "
                    f"wire field of {dc.name}",
                    f"remove {name!r} from {table} or add the field to "
                    f"{dc.name}",
                )
            )
    return findings


def _check_codec_function(index, pairing, dc, fields, func_path) -> List[Finding]:
    mod_name, _, func_name = func_path.rpartition(".")
    mod = index.get(mod_name)
    fn = None
    if mod is not None:
        for node in ast.walk(mod.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == func_name
            ):
                fn = node
                break
    if fn is None:
        raise LintConfigError(
            f"L4 pairing names unknown codec function {func_path!r}"
        )
    constants = {
        node.value
        for node in ast.walk(fn)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    findings = []
    for f in fields:
        wire_names = pairing.aliases.get(f, (f,))
        if not any(name in constants for name in wire_names):
            findings.append(
                Finding(
                    "L4",
                    mod.rel,
                    fn.lineno,
                    f"field {dc.name}.{f} never appears in codec "
                    f"{func_name}() (looked for {list(wire_names)})",
                    f"encode/decode {f!r} in {func_name} or exclude it from "
                    "the pairing explicitly",
                )
            )
    return findings


# ----------------------------------------------------------------------
# L5 — resource lifecycle
# ----------------------------------------------------------------------
_CLEANUP_CALL_HINTS = ("unlink", "close", "remove", "replace", "release")


def rule_lifecycle(index: SourceIndex, config: LintConfig) -> List[Finding]:
    findings: List[Finding] = []
    for mod in index.modules:
        parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(mod.tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Call):
                kind = _creation_kind(node)
                if kind is not None:
                    findings.extend(
                        _check_creation(mod, node, kind, parents, config)
                    )
    return findings


def _creation_kind(call: ast.Call) -> Optional[str]:
    name = dotted_name(call.func) or ""
    tail = name.rpartition(".")[2]
    if tail == "SharedMemory":
        for kw in call.keywords:
            if (
                kw.arg == "create"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
            ):
                return "SharedMemory(create=True)"
        return None
    if tail == "memmap":
        return "np.memmap"
    if isinstance(call.func, ast.Name) and name == "open":
        return "open()"
    if name in ("os.fdopen", "io.open", "gzip.open"):
        return name + "()"
    if tail == "mkstemp":
        return "tempfile.mkstemp"
    if tail == "NamedTemporaryFile":
        for kw in call.keywords:
            if (
                kw.arg == "delete"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is False
            ):
                return "NamedTemporaryFile(delete=False)"
        return None
    return None


def _check_creation(mod, call, kind, parents, config) -> List[Finding]:
    lf = config.lifecycle
    # 1. `with creation(...)` (directly, or wrapped: with closing(creation())):
    #    scoped release by construction
    node = call
    while node in parents:
        parent = parents[node]
        if isinstance(parent, ast.withitem):
            return []
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
            return []  # ownership handed to the caller
        if isinstance(parent, ast.Call) and node is not call:
            return []  # wrapped by another call (closing(), registration)
        if isinstance(parent, ast.Call) and node is call:
            # creation is an argument of an enclosing call
            if call in parent.args or call in [k.value for k in parent.keywords]:
                return []
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
            break
        if isinstance(parent, (ast.Assign, ast.AnnAssign)):
            return _check_assigned(mod, call, kind, parent, parents, lf)
        node = parent
    return [_leak(mod, call, kind, "its result is discarded")]


def _leak(mod, call, kind, why) -> Finding:
    return Finding(
        "L5",
        mod.rel,
        call.lineno,
        f"{kind} created here is never closed/unlinked: {why}",
        "use `with`, release it in a `finally`, or register it with an "
        "owner that has a cleanup method",
    )


def _check_assigned(mod, call, kind, assign, parents, lf) -> List[Finding]:
    targets = assign.targets if isinstance(assign, ast.Assign) else [assign.target]
    names: List[str] = []
    for t in targets:
        if isinstance(t, ast.Name):
            names.append(t.id)
        elif isinstance(t, ast.Tuple):
            names.extend(e.id for e in t.elts if isinstance(e, ast.Name))
        elif _self_attr(t) is not None:
            return _check_class_owned(mod, call, kind, _self_attr(t), parents, lf)
        else:
            return []  # stored into a container: registered with an owner
    scope = _enclosing_scope(assign, parents)
    for name in names:
        if _name_satisfied(scope, name, call, lf):
            return []
    released_inline = any(
        _is_release_on(node, names, lf)
        for node in ast.walk(scope)
        if isinstance(node, ast.Call)
    )
    if released_inline:
        return [
            Finding(
                "L5",
                mod.rel,
                call.lineno,
                f"{kind} is released only on the straight-line path",
                "an exception between creation and release leaks it: close "
                "in a `finally` or use `with`",
            )
        ]
    return [_leak(mod, call, kind, f"no release of {names or 'it'} in scope")]


def _enclosing_scope(node: ast.AST, parents) -> ast.AST:
    while node in parents:
        node = parents[node]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
            return node
    return node


def _is_release_on(call: ast.Call, names: Sequence[str], lf) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in lf.release_methods
        and isinstance(func.value, ast.Name)
        and func.value.id in names
    )


def _name_satisfied(scope: ast.AST, name: str, creation: ast.Call, lf) -> bool:
    """Does ``name`` (bound to a fresh resource) provably get released
    or handed to an owner somewhere in ``scope``?"""
    for node in ast.walk(scope):
        # (a) released inside a finally / except handler
        if isinstance(node, ast.Try):
            cleanup_zone = list(node.finalbody)
            for handler in node.handlers:
                cleanup_zone.extend(handler.body)
            for sub_stmt in cleanup_zone:
                for sub in ast.walk(sub_stmt):
                    if isinstance(sub, ast.Call) and _is_release_on(
                        sub, [name], lf
                    ):
                        return True
                    if isinstance(sub, ast.Call):
                        callee = dotted_name(sub.func) or ""
                        if any(h in callee for h in _CLEANUP_CALL_HINTS) and any(
                            isinstance(a, ast.Name) and a.id == name
                            for a in sub.args
                        ):
                            return True
        # (b) passed as an argument to any call other than the creation —
        #     registration or ownership transfer (os.fdopen(fd), reg(shm))
        if isinstance(node, ast.Call) and node is not creation:
            operands = list(node.args) + [k.value for k in node.keywords]
            if any(isinstance(a, ast.Name) and a.id == name for a in operands):
                return True
        # (c) returned / yielded directly (alone or in a literal container)
        if isinstance(node, (ast.Return, ast.Yield)) and node.value is not None:
            if _directly_contains_name(node.value, name):
                return True
        # (d) stored into an attribute or subscript of another object
        if isinstance(node, ast.Assign):
            if _directly_contains_name(node.value, name) and any(
                isinstance(t, (ast.Attribute, ast.Subscript))
                for t in node.targets
            ):
                return True
        # (e) captured by a nested function (lifetime escapes this frame)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            if node is not scope:
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name) and sub.id == name:
                        return True
    return False


def _directly_contains_name(value: ast.AST, name: str) -> bool:
    if isinstance(value, ast.Name):
        return value.id == name
    if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
        return any(_directly_contains_name(e, name) for e in value.elts)
    if isinstance(value, ast.Dict):
        return any(
            v is not None and _directly_contains_name(v, name)
            for v in list(value.keys) + list(value.values)
        )
    return False


def _check_class_owned(mod, call, kind, attr, parents, lf) -> List[Finding]:
    """``self.X = creation(...)``: the class must define a cleanup
    method that releases ``self.X``."""
    node = call
    cls: Optional[ast.ClassDef] = None
    while node in parents:
        node = parents[node]
        if isinstance(node, ast.ClassDef):
            cls = node
            break
    if cls is None:
        return [_leak(mod, call, kind, f"self.{attr} has no owning class")]
    for method in cls.body:
        if (
            isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
            and method.name in lf.cleanup_methods
        ):
            for sub in ast.walk(method):
                if (
                    isinstance(sub, ast.Attribute)
                    and sub.attr in lf.release_methods
                    and _self_attr(sub.value) == attr
                ):
                    return []
    return [
        _leak(
            mod,
            call,
            kind,
            f"class {cls.name} has no cleanup method releasing self.{attr}",
        )
    ]


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
RULES = {
    "L1": rule_layers,
    "L2": rule_blocking,
    "L3": rule_guards,
    "L4": rule_codecs,
    "L5": rule_lifecycle,
}


def run_rules(
    index: SourceIndex,
    config: LintConfig,
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    selected = tuple(select) if select else tuple(RULES)
    unknown = [r for r in selected if r not in RULES]
    if unknown:
        raise LintConfigError(
            f"unknown rule id(s) {unknown}; choose from {sorted(RULES)}"
        )
    findings: List[Finding] = []
    for rule_id in selected:
        findings.extend(RULES[rule_id](index, config))
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings
