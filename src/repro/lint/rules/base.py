"""Rule base class and shared AST analyses.

A rule is a small class with a stable id, a severity, and a ``check``
generator over one :class:`~repro.lint.source.SourceModule`.  The
shared analyses here answer the two questions several families need:

* *Which code runs per-node?*  :func:`callback_functions` finds the
  methods of ``DistributedAlgorithm`` subclasses reachable from the
  ``on_start``/``on_round`` callbacks through ``self.helper()`` calls —
  the code that, in the LOCAL model, executes at a single vertex and
  may only see messages, its own neighborhood, and read-only config.
* *Which expressions are sets?*  :class:`SetKinds` performs a cheap
  flow-insensitive, per-scope inference of set-typed names so the
  determinism family can flag iteration whose order CPython does not
  guarantee across interpreter invocations.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.findings import Finding
from repro.lint.source import SourceModule

__all__ = [
    "Rule",
    "SetKinds",
    "async_function_names",
    "callback_functions",
    "distributed_algorithm_classes",
    "dotted_name",
    "event_loop_functions",
    "iter_scopes",
    "walk_scope",
]


class Rule:
    """One static-analysis rule.

    Subclasses set the class attributes and implement :meth:`check`.
    Every rule runs by default; scoped families narrow themselves per
    module via :meth:`applies`.
    """

    rule_id: str = "RULE000"
    title: str = ""
    severity: str = "error"

    def applies(self, module: SourceModule) -> bool:
        """Fast path: skip whole modules outside the rule's scope."""
        return True

    def check(self, module: SourceModule) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: SourceModule, node: ast.AST, message: str
    ) -> Finding:
        lineno = getattr(node, "lineno", 1)
        return Finding(
            path=module.path,
            line=lineno,
            col=getattr(node, "col_offset", 0),
            rule=self.rule_id,
            severity=self.severity,
            message=message,
            line_text=module.line_text(lineno),
        )


def dotted_name(node: ast.AST) -> str:
    """Best-effort dotted path of a Name/Attribute chain ('' otherwise)."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return ""


def _base_names(class_def: ast.ClassDef) -> set[str]:
    names: set[str] = set()
    for base in class_def.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


def distributed_algorithm_classes(module: SourceModule) -> list[ast.ClassDef]:
    """Classes that (syntactically) subclass ``DistributedAlgorithm``.

    Detection is by base-class *name*, which catches both the plain and
    the attribute-qualified import style.  Indirect subclasses within
    the same module (B -> A -> DistributedAlgorithm) are resolved by a
    fixed-point pass over the module's own class definitions.
    """
    classes = [
        node for node in ast.walk(module.tree) if isinstance(node, ast.ClassDef)
    ]
    algorithm_names = {"DistributedAlgorithm"}
    found: dict[str, ast.ClassDef] = {}
    changed = True
    while changed:
        changed = False
        for class_def in classes:
            if class_def.name in found:
                continue
            if _base_names(class_def) & algorithm_names:
                found[class_def.name] = class_def
                algorithm_names.add(class_def.name)
                changed = True
    return [found[name] for name in sorted(found)]


#: Entry points of per-node execution.
CALLBACK_ENTRY_POINTS = ("on_start", "on_round")


def callback_functions(class_def: ast.ClassDef) -> list[ast.FunctionDef]:
    """Methods reachable from the per-node callbacks via ``self.x()``.

    ``__init__`` is excluded by construction: it runs once, globally,
    before the simulation starts, and is the sanctioned place to store
    read-only configuration.
    """
    methods = {
        node.name: node
        for node in class_def.body
        if isinstance(node, ast.FunctionDef)
    }
    reachable: list[ast.FunctionDef] = []
    queue = [name for name in CALLBACK_ENTRY_POINTS if name in methods]
    seen = set(queue)
    while queue:
        method = methods[queue.pop()]
        reachable.append(method)
        for node in ast.walk(method):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
                and node.func.attr in methods
                and node.func.attr not in seen
            ):
                seen.add(node.func.attr)
                queue.append(node.func.attr)
    return reachable


# ----------------------------------------------------------------------
# Set-kind inference
# ----------------------------------------------------------------------

SET_CONSTRUCTORS = ("set", "frozenset")
#: Set methods returning another set.
SET_PRODUCING_METHODS = (
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
)
#: Builtins whose consumption of an iterable is order-insensitive (the
#: result does not depend on iteration order), so feeding them an
#: unordered set is fine.
ORDER_FREE_CONSUMERS = (
    "sorted",
    "min",
    "max",
    "sum",
    "len",
    "any",
    "all",
    "set",
    "frozenset",
)

#: Inference lattice: "intset" (provably int elements — CPython's int
#: hash is the identity, so iteration order is reproducible for a fixed
#: insertion sequence), "set" (unknown element type — order may vary
#: under hash randomization), or absent (not a set).
INT_SET = "intset"
ANY_SET = "set"


def _annotation_set_kind(annotation: ast.AST | None) -> str | None:
    """Kind declared by a ``set[int]`` / ``frozenset[str]`` annotation."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        # Optional[...] spelled as ``set[int] | None``.
        return _annotation_set_kind(annotation.left) or _annotation_set_kind(
            annotation.right
        )
    if isinstance(annotation, ast.Subscript):
        base = annotation.value
        base_name = (
            base.id if isinstance(base, ast.Name)
            else base.attr if isinstance(base, ast.Attribute)
            else ""
        )
        if base_name.lower() not in ("set", "frozenset", "abstractset", "mutableset"):
            return None
        slice_node = annotation.slice
        if isinstance(slice_node, ast.Name) and slice_node.id == "int":
            return INT_SET
        return ANY_SET
    if isinstance(annotation, ast.Name) and annotation.id in SET_CONSTRUCTORS:
        return ANY_SET
    return None


class SetKinds:
    """Flow-insensitive set-typed-name inference for one scope.

    A name assigned a set-shaped expression *anywhere* in the scope is
    treated as a set for the whole scope — conservative in the right
    direction for a determinism linter (a false positive asks for an
    explicit ``sorted(...)`` or annotation, a false negative hides a
    reproducibility bug).
    """

    def __init__(self, scope: ast.AST) -> None:
        self.kinds: dict[str, str] = {}
        # Fixed point: assignments are collected flow-insensitively, so
        # `b = a - x` must see `a`'s kind even when `a` is assigned
        # later in walk order.  Kinds only ever widen, so this
        # terminates quickly (two passes in practice).
        for _ in range(8):
            before = dict(self.kinds)
            self._collect(scope)
            if self.kinds == before:
                break

    def _collect(self, scope: ast.AST) -> None:
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in [
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                *( [args.vararg] if args.vararg else [] ),
                *( [args.kwarg] if args.kwarg else [] ),
            ]:
                kind = _annotation_set_kind(arg.annotation)
                if kind:
                    self._record(arg.arg, kind)
        for node in walk_scope(scope):
            if isinstance(node, ast.Assign):
                kind = self.expr_kind(node.value)
                if kind:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self._record(target.id, kind)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                kind = _annotation_set_kind(node.annotation)
                if kind is None and node.value is not None:
                    kind = self.expr_kind(node.value)
                if kind:
                    self._record(node.target.id, kind)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                kind = self.expr_kind(node.value)
                if kind:
                    self._record(node.target.id, kind)

    def _record(self, name: str, kind: str) -> None:
        # Widening wins: a name that is ever assigned a set of unproven
        # element type stays unproven.  (Annotations prove int-ness for
        # the annotated binding itself because AnnAssign/params consult
        # the annotation before the value.)
        if self.kinds.get(name) == ANY_SET:
            return
        self.kinds[name] = kind

    def expr_kind(self, node: ast.AST) -> str | None:
        """Set kind of an expression, or None when it is not set-shaped."""
        if isinstance(node, ast.Set):
            if all(
                isinstance(elt, ast.Constant) and isinstance(elt.value, int)
                and not isinstance(elt.value, bool)
                for elt in node.elts
            ) and node.elts:
                return INT_SET
            return ANY_SET
        if isinstance(node, ast.SetComp):
            return ANY_SET
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in SET_CONSTRUCTORS:
                if (
                    len(node.args) == 1
                    and isinstance(node.args[0], ast.Call)
                    and isinstance(node.args[0].func, ast.Name)
                    and node.args[0].func.id == "range"
                ):
                    return INT_SET
                if len(node.args) == 1:
                    inner = self.expr_kind(node.args[0])
                    if inner:
                        return inner
                return ANY_SET
            if (
                isinstance(func, ast.Attribute)
                and func.attr in SET_PRODUCING_METHODS
            ):
                inner = self.expr_kind(func.value)
                if inner:
                    return inner
            return None
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
        ):
            left = self.expr_kind(node.left)
            right = self.expr_kind(node.right)
            if not (left or right):
                return None
            if isinstance(node.op, ast.Sub):
                # Elements come from the left operand only.
                return left or ANY_SET
            if isinstance(node.op, ast.BitAnd):
                # Intersection: elements lie in both operands.
                if INT_SET in (left, right):
                    return INT_SET
                return ANY_SET
            # Union / symmetric difference: both operands contribute.
            if left == INT_SET and right == INT_SET:
                return INT_SET
            return ANY_SET
        if isinstance(node, ast.Name):
            return self.kinds.get(node.id)
        if isinstance(node, ast.IfExp):
            return self.expr_kind(node.body) or self.expr_kind(node.orelse)
        if isinstance(node, ast.BoolOp):
            # `vertices or set()` — set-kinded when any operand is.
            kinds = [self.expr_kind(value) for value in node.values]
            if any(kinds):
                if all(kind == INT_SET for kind in kinds if kind):
                    return INT_SET
                return ANY_SET
        return None


def iter_scopes(module: SourceModule) -> Iterable[ast.AST]:
    """The module itself plus every function/method definition."""
    yield module.tree
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def walk_scope(scope: ast.AST) -> Iterable[ast.AST]:
    """Walk one scope without descending into nested function scopes.

    The root may itself be a function; class bodies are descended into
    (their statements execute in the enclosing run of the scope), but
    nested ``def``s get their own visit via :func:`iter_scopes`.
    """
    stack: list[ast.AST] = [scope]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.append(child)


# ----------------------------------------------------------------------
# Async reachability (the event-loop call graph)
# ----------------------------------------------------------------------

def async_function_names(module: SourceModule) -> frozenset[str]:
    """Names of every ``async def`` in the module (functions + methods).

    Name-keyed on purpose: an AST linter cannot resolve the type of an
    arbitrary receiver, so rules that consume this restrict themselves
    to ``self.name(...)`` and bare ``name(...)`` call shapes where a
    same-module definition is the overwhelmingly likely target.
    """
    return frozenset(
        node.name
        for node in ast.walk(module.tree)
        if isinstance(node, ast.AsyncFunctionDef)
    )


def event_loop_functions(
    module: SourceModule,
) -> list[tuple[ast.FunctionDef | ast.AsyncFunctionDef, ast.AsyncFunctionDef]]:
    """Functions whose bodies execute on the event-loop thread.

    Seeds are every ``async def``; the walk then follows
    ``self.helper()`` and bare ``helper()`` calls into same-module
    *sync* definitions — the LOC001 transitive-reachability idea lifted
    from ``DistributedAlgorithm`` classes to the whole module.  A sync
    helper only ever invoked via ``run_in_executor(...)`` is *not*
    reached (it is passed as a value, never called), which is exactly
    the sanctioned way to run blocking code from a coroutine.

    Returns ``(function, origin)`` pairs where ``origin`` is the async
    def whose execution reaches ``function`` (for diagnostics);
    ``function is origin`` for the seeds themselves.
    """
    top_level = {
        node.name: node
        for node in module.tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    methods_of: dict[ast.ClassDef, dict[str, ast.AST]] = {}
    owner: dict[ast.AST, ast.ClassDef] = {}
    for class_def in ast.walk(module.tree):
        if not isinstance(class_def, ast.ClassDef):
            continue
        methods = {
            node.name: node
            for node in class_def.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        methods_of[class_def] = methods
        for method in methods.values():
            owner[method] = class_def

    reached: list[
        tuple[ast.FunctionDef | ast.AsyncFunctionDef, ast.AsyncFunctionDef]
    ] = []
    seen: set[ast.AST] = set()
    queue: list[tuple[ast.AST, ast.AsyncFunctionDef]] = [
        (node, node)
        for node in ast.walk(module.tree)
        if isinstance(node, ast.AsyncFunctionDef)
    ]
    while queue:
        func, origin = queue.pop()
        if func in seen:
            continue
        seen.add(func)
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        reached.append((func, origin))
        owning_class = owner.get(func)
        local = methods_of[owning_class] if owning_class is not None else {}
        for node in walk_scope(func):
            if not isinstance(node, ast.Call):
                continue
            callee: ast.AST | None = None
            target = node.func
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                callee = local.get(target.attr)
            elif isinstance(target, ast.Name):
                callee = top_level.get(target.id)
            if (
                callee is not None
                and not isinstance(callee, ast.AsyncFunctionDef)
                and callee not in seen
            ):
                queue.append((callee, origin))
    return reached
