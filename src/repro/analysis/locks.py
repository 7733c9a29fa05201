"""Lock-discipline race checker for the live substrates.

A two-pass, per-class analysis of the modules whose state real threads
share: :mod:`repro.runtime.cluster` (node consumer threads + timer
wheel) over :mod:`repro.runtime.host` (the timer heap and event count
the wheel's condition guards), :mod:`repro.scenario.process`
(router/egress pair), and :mod:`repro.scenario.threaded`.

Pass 1 infers the class's *thread entry points* — methods handed to
``threading.Thread(target=...)`` (directly or inside a lambda) — and
closes them over the intra-class call graph, so every method is tagged
with the set of execution contexts that can reach it (each spawned
thread is one context; all remaining methods form the ``main`` context;
``__init__`` is exempt, since construction happens-before thread
publication).

Pass 2 collects every write to ``self.<attr>`` — assignments, augmented
assignments, subscript stores, deletes, mutating method calls
(``append``/``add``/``pop``/...), and ``heapq`` operations on the
attribute — and reports any attribute written from two or more contexts
where the write is not lexically dominated by ``with self.<lock>:`` for
a lock attribute of the class. ``# analysis: guarded-by(<what>)``
documents the sanctioned exceptions (e.g. a write that is provably
single-threaded by protocol phase); attributes bound to inherently
thread-safe structures (``queue.Queue``, ``threading.Event``) are
exempt from mutating-call tracking.

The static pass is backed dynamically by
:mod:`repro.runtime.sanitizer`: ``ThreadedRuntime(debug_locks=True)``
wraps the same structures in assert-owner proxies, so every
``guarded-by`` claim is checked under the chaos presets.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.core import Rule, SourceFile, Violation, register, self_attr

#: Modules the checker covers: where real threads mutate shared state.
LOCK_SCOPE = (
    "runtime/cluster.py",
    "runtime/host.py",
    "runtime/sanitizer.py",
    "scenario/process.py",
    "scenario/threaded.py",
)

#: Constructors whose instances are lock-like: holding one is a guard.
_LOCK_TYPES = frozenset(("Lock", "RLock", "Condition", "Semaphore"))

#: Constructors whose instances serialise access internally.
_THREADSAFE_TYPES = frozenset(
    ("Queue", "SimpleQueue", "LifoQueue", "PriorityQueue", "Event")
)

#: Method calls on an attribute that mutate it.
_MUTATORS = frozenset(
    (
        "append", "appendleft", "extend", "insert",
        "add", "discard", "remove",
        "pop", "popleft", "popitem", "clear",
        "update", "setdefault",
        "put", "put_nowait", "push",
    )
)

#: Module-level functions that mutate their first argument.
_MUTATING_FUNCS = frozenset(
    ("heappush", "heappop", "heapify", "heapreplace", "heappushpop")
)


def _ctor_name(value: ast.expr) -> str | None:
    """The class name when ``value`` is ``Something(...)``."""
    if isinstance(value, ast.Call):
        func = value.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    return None


@dataclass
class _Write:
    attr: str
    node: ast.AST
    method: str
    guarded: bool  # lexically inside `with self.<lock>:`


@dataclass
class _ClassFacts:
    name: str
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)
    lock_attrs: set[str] = field(default_factory=set)
    threadsafe_attrs: set[str] = field(default_factory=set)
    thread_entries: set[str] = field(default_factory=set)
    calls: dict[str, set[str]] = field(default_factory=dict)
    writes: list[_Write] = field(default_factory=list)


class _MethodScanner(ast.NodeVisitor):
    """Collects calls and attribute writes in one method body."""

    def __init__(self, facts: _ClassFacts, method: str) -> None:
        self.facts = facts
        self.method = method
        self._lock_depth = 0

    def _record(self, attr: str | None, node: ast.AST) -> None:
        if attr is None or attr in self.facts.lock_attrs:
            return
        self.facts.writes.append(
            _Write(attr, node, self.method, self._lock_depth > 0)
        )

    def visit_With(self, node: ast.With) -> None:
        holds = any(
            self_attr(item.context_expr) in self.facts.lock_attrs
            for item in node.items
        )
        if holds:
            self._lock_depth += 1
        self.generic_visit(node)
        if holds:
            self._lock_depth -= 1

    def _target_attr(self, target: ast.expr) -> str | None:
        if isinstance(target, ast.Subscript):
            return self_attr(target.value)
        return self_attr(target)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record(self._target_attr(target), node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record(self._target_attr(node.target), node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record(self._target_attr(node.target), node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record(self._target_attr(target), node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # self.method() -> call-graph edge; self.attr.mutator() -> write.
        if isinstance(func, ast.Attribute):
            owner = self_attr(func.value)
            if owner is not None:
                if func.attr in _MUTATORS:
                    if owner not in self.facts.threadsafe_attrs:
                        self._record(owner, node)
                elif owner in self.facts.methods:
                    self.facts.calls.setdefault(self.method, set()).add(owner)
            elif self_attr(func) in self.facts.methods:
                self.facts.calls.setdefault(self.method, set()).add(func.attr)
        name = _ctor_name(node)
        if name in _MUTATING_FUNCS and node.args:
            self._record(self_attr(node.args[0]), node)
        self.generic_visit(node)


def _collect_facts(cls: ast.ClassDef) -> _ClassFacts:
    facts = _ClassFacts(name=cls.name)
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            facts.methods[stmt.name] = stmt

    # Attribute typing + thread entries, from every method body.
    for method in facts.methods.values():
        for node in ast.walk(method):
            attr = value = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                attr, value = self_attr(node.targets[0]), node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                attr, value = self_attr(node.target), node.value
            if attr is not None:
                ctor = _ctor_name(value)
                if ctor in _LOCK_TYPES:
                    facts.lock_attrs.add(attr)
                elif ctor in _THREADSAFE_TYPES:
                    facts.threadsafe_attrs.add(attr)
            if isinstance(node, ast.Call) and _ctor_name(node) == "Thread":
                for kw in node.keywords:
                    if kw.arg != "target":
                        continue
                    target = self_attr(kw.value)
                    if target is not None:
                        facts.thread_entries.add(target)
                    elif isinstance(kw.value, ast.Lambda):
                        for sub in ast.walk(kw.value.body):
                            attr = self_attr(sub)
                            if attr in facts.methods:
                                facts.thread_entries.add(attr)

    # Calls and writes, per method.
    for name, method in facts.methods.items():
        if name == "__init__":
            continue  # construction happens-before thread publication
        _MethodScanner(facts, name).visit(method)
    return facts


def _contexts(facts: _ClassFacts) -> dict[str, frozenset[str]]:
    """Execution contexts that can reach each method."""

    def closure(roots: set[str]) -> set[str]:
        seen: set[str] = set()
        stack = [root for root in roots if root in facts.methods]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(facts.calls.get(name, ()))
        return seen

    reach: dict[str, set[str]] = {name: set() for name in facts.methods}
    for entry in facts.thread_entries:
        for name in closure({entry}):
            reach[name].add(f"thread:{entry}")
    main_roots = {
        name
        for name in facts.methods
        if name not in facts.thread_entries and name != "__init__"
    }
    for name in closure(main_roots):
        reach[name].add("main")
    return {name: frozenset(ctxs) for name, ctxs in reach.items()}


@register
class LockDisciplineRule(Rule):
    id = "LOCK001"
    title = "shared-attribute writes must hold the class lock"
    rationale = (
        "An attribute written from two execution contexts (spawned "
        "thread targets and the caller-facing API) races unless every "
        "write holds a lock of the class. Writes the analysis cannot "
        "see as safe need a '# analysis: guarded-by(<what>)' annotation "
        "naming the discipline that protects them — which "
        "ThreadedRuntime(debug_locks=True) then checks dynamically."
    )

    def applies_to(self, module: str) -> bool:
        return any(
            module == entry or (entry.endswith("/") and module.startswith(entry))
            for entry in LOCK_SCOPE
        )

    def check(self, src: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            facts = _collect_facts(node)
            if not facts.thread_entries:
                continue  # single-context class: nothing to race
            contexts = _contexts(facts)
            written_from: dict[str, set[str]] = {}
            for write in facts.writes:
                written_from.setdefault(write.attr, set()).update(
                    contexts.get(write.method, frozenset())
                )
            for write in facts.writes:
                if len(written_from.get(write.attr, ())) < 2:
                    continue
                if write.guarded:
                    continue
                if src.guard_annotation(write.node) is not None:
                    continue
                yield src.violation(
                    self,
                    write.node,
                    f"{facts.name}.{write.attr} is written from "
                    f"{len(written_from[write.attr])} thread contexts but "
                    f"this write (in {write.method}) holds no lock — wrap "
                    "in 'with <lock>:' or annotate "
                    "'# analysis: guarded-by(<what>)'",
                )
