"""Determinism rules: protocol and simulator code must replay bit-identically.

Scope: the modules whose behaviour the sim substrate's parity tests pin
(``sim/``, ``clbft/``, ``perpetual/``, ``ws/``, ``faults/``, the
simulator's deploy loop ``scenario/local.py`` and ``scenario/sim.py``,
``sharding/``, and the asyncio substrate ``runtime/aio.py``). On this
code, wall-clock reads, ambient randomness, unordered iteration that
reaches the wire, identity-keyed match state, and bare asyncio
sleeps/loop-clock reads are exactly the constructs that break same-seed
replay — each gets its own rule so suppressions stay precise.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    ImportMap,
    Rule,
    SourceFile,
    Violation,
    call_name,
    register,
)

#: Module-key prefixes (or exact files) the determinism family covers.
DETERMINISM_SCOPE = (
    "sim/",
    "clbft/",
    "perpetual/",
    "ws/",
    "faults/",
    "scenario/local.py",
    "scenario/sim.py",
    "sharding/",
    "runtime/aio.py",
)

#: The one module allowed to touch the ``random`` module: the seeded
#: wrapper every deterministic stream flows through.
RNG_WRAPPER = "sim/rng.py"


def in_scope(module: str) -> bool:
    return any(
        module == entry or (entry.endswith("/") and module.startswith(entry))
        for entry in DETERMINISM_SCOPE
    )


class DeterminismRule(Rule):
    def applies_to(self, module: str) -> bool:
        return in_scope(module)


#: Wall-clock and host-clock reads, by dotted origin.
_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


@register
class WallClockRule(DeterminismRule):
    id = "DET001"
    title = "no wall-clock reads in protocol/sim code"
    rationale = (
        "Replicas agree on time through voter utility agreement and the "
        "sim kernel's virtual clock (env.now_us/now_ms); any host clock "
        "read diverges across replicas and across replays."
    )

    def check(self, src: SourceFile) -> Iterator[Violation]:
        imports = ImportMap(src.tree)
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = imports.qualify(node.func)
            if origin in _CLOCK_CALLS:
                yield src.violation(
                    self,
                    node,
                    f"host clock read {origin}() — use env.now_us()/"
                    "now_ms() or agreed timestamps",
                )


@register
class AmbientRandomRule(DeterminismRule):
    id = "DET002"
    title = "no ambient random-module use outside sim/rng.py"
    rationale = (
        "The global random module draws from interpreter-wide state; "
        "all stochastic choices must flow through the seeded, labelled "
        "DeterministicRng streams so adding a consumer never perturbs "
        "existing draws."
    )

    def applies_to(self, module: str) -> bool:
        return in_scope(module) and module != RNG_WRAPPER

    def check(self, src: SourceFile) -> Iterator[Violation]:
        imports = ImportMap(src.tree)
        for node in ast.walk(src.tree):
            origin = None
            if isinstance(node, ast.Attribute):
                base = imports.qualify(node.value)
                if base == "random":
                    origin = f"random.{node.attr}"
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                qualified = imports.names.get(node.id)
                if qualified and qualified.startswith("random."):
                    origin = qualified
            if origin is not None:
                yield src.violation(
                    self,
                    node,
                    f"ambient randomness {origin} — use a seeded "
                    "repro.sim.rng.DeterministicRng stream",
                )


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        return name in ("set", "frozenset") and isinstance(node.func, ast.Name)
    return False


@register
class SetIterationRule(DeterminismRule):
    id = "DET003"
    title = "no iteration over unordered sets"
    rationale = (
        "Set iteration order is hash-seed dependent; once it reaches a "
        "message, a timer schedule, or any encoded payload, same-seed "
        "replays diverge. Sort first (sorted(...)) or keep a list/dict."
    )

    def check(self, src: SourceFile) -> Iterator[Violation]:
        message = (
            "iteration over an unordered set — wrap in sorted(...) or "
            "use an insertion-ordered container"
        )
        for node in ast.walk(src.tree):
            if isinstance(node, ast.For) and _is_set_expr(node.iter):
                yield src.violation(self, node.iter, message)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for comp in node.generators:
                    if _is_set_expr(comp.iter):
                        yield src.violation(self, comp.iter, message)
            elif isinstance(node, ast.Call):
                name = call_name(node)
                if (
                    name in ("list", "tuple")
                    and isinstance(node.func, ast.Name)
                    and node.args
                    and _is_set_expr(node.args[0])
                ):
                    yield src.violation(self, node, message)


def _is_id_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    )


@register
class IdentityKeyRule(DeterminismRule):
    id = "DET004"
    title = "no id()-keyed lookups in protocol state"
    rationale = (
        "id() values are allocation addresses: never stable across "
        "replicas, replays, or process boundaries. Match keys must be "
        "content-derived (digests); a value derived from one object is "
        "cached on that object (functools.cached_property, or "
        "repro.common.encoding.derived), so it lives exactly as long."
    )

    def check(self, src: SourceFile) -> Iterator[Violation]:
        message = (
            "id()-keyed lookup — key on content (digest/match key) or "
            "cache the value on the object itself"
        )
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Subscript) and _is_id_call(node.slice):
                yield src.violation(self, node, message)
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    if key is not None and _is_id_call(key):
                        yield src.violation(self, key, message)
            elif isinstance(node, ast.Call):
                name = call_name(node)
                if (
                    isinstance(node.func, ast.Attribute)
                    and name in ("get", "pop", "setdefault")
                    and node.args
                    and _is_id_call(node.args[0])
                ):
                    yield src.violation(self, node, message)


@register
class NaiveDatetimeRule(DeterminismRule):
    id = "DET005"
    title = "no fromtimestamp-based datetime construction"
    rationale = (
        "fromtimestamp goes through float seconds (rounding) and, "
        "without tz=, the host's local timezone — both host-dependent. "
        "Derive datetimes from the agreed epoch with integer timedelta "
        "arithmetic."
    )

    def check(self, src: SourceFile) -> Iterator[Violation]:
        imports = ImportMap(src.tree)
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = imports.qualify(node.func)
            if origin in (
                "datetime.datetime.fromtimestamp",
                "datetime.datetime.utcfromtimestamp",
                "datetime.date.fromtimestamp",
            ):
                yield src.violation(
                    self,
                    node,
                    f"{origin}() — construct as epoch + "
                    "datetime.timedelta(milliseconds=...) instead",
                )


#: Event-loop clock access and untracked suspensions, by dotted origin.
#: ``get_event_loop``/``get_running_loop`` are the gateways to
#: ``loop.time()`` (a host monotonic clock) and ``loop.call_later`` used
#: outside the timer table, so the rule flags the loop handle itself.
_ASYNC_CLOCK_CALLS = {
    "asyncio.sleep",
    "asyncio.get_event_loop",
    "asyncio.get_running_loop",
}


@register
class AsyncioClockRule(DeterminismRule):
    id = "DET006"
    title = "no bare asyncio sleeps or loop-clock reads in protocol code"
    rationale = (
        "asyncio.sleep suspends against the host event-loop clock and "
        "get_event_loop()/get_running_loop() hand out loop.time() and "
        "raw call_later — all invisible to the timer-hook seam, so "
        "timeouts stop replaying and never fire under the sim. Protocol "
        "code must arm timers through env.set_timer/cancel_timer and "
        "read env.now_us(); only the substrate boundary that *implements* "
        "that seam may touch the loop (documented allow() suppression)."
    )

    def check(self, src: SourceFile) -> Iterator[Violation]:
        imports = ImportMap(src.tree)
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = imports.qualify(node.func)
            if origin in _ASYNC_CLOCK_CALLS:
                yield src.violation(
                    self,
                    node,
                    f"{origin}() — arm timers via env.set_timer and read "
                    "env.now_us() instead of the event-loop clock",
                )
