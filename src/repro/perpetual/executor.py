"""The executor: Perpetual's deterministic application model.

The paper requires applications to be deterministic and single-threaded
but explicitly *active*: "long-running active threads of computation"
(section 3) that may interleave serving incoming requests with issuing
their own out-calls. We model this with generator coroutines: an
application is a generator function that yields *effects* and receives
their outcomes, e.g. ::

    def app():
        while True:
            event = yield ReceiveRequest()
            rid = yield Send("bank", {"op": "authorize", **event.payload})
            reply = yield ReceiveReply(rid)
            yield SendReply(event, {"ok": not reply.aborted})

Yields are the only suspension points, so replica execution is a pure
function of the agreed event sequence — exactly the determinism Perpetual
needs. The driver owns an :class:`ExecutorRuntime` and resumes it whenever
agreed events make a blocked effect satisfiable.

Blocking and non-blocking behaviour mirror the Perpetual-WS API (paper
Figure 3): ``Send`` never blocks; ``ReceiveReply`` blocks for a specific
or any reply; ``ReceiveRequest`` blocks for the next incoming request;
``SendReply`` never blocks. ``Compute`` consumes simulated CPU time, and
``CurrentTime`` / ``Timestamp`` / ``Random`` are the deterministic utility
functions of section 4.2 — each blocks until the voter group agrees on
the value.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterator

from repro.common.errors import ExecutorViolation
from repro.common.ids import RequestId

AppFactory = Callable[[], Generator[Any, Any, None]]


# ---------------------------------------------------------------------------
# Effects yielded by applications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Send:
    """Issue an asynchronous request to ``target``; resumes immediately
    with the :class:`RequestId` handle for later reply correlation.

    ``timeout_ms`` arms the deterministic abort of section 4.2 (the
    default, ``None``, never aborts — the paper's default behaviour).
    """

    target: str
    payload: Any
    timeout_ms: int | None = None


@dataclass(frozen=True)
class ReceiveReply:
    """Block until a reply is available; resumes with a :class:`ReplyEvent`.

    With ``request=None`` this is the "next available reply" accessor;
    with a specific :class:`RequestId` it blocks for that request's reply.
    """

    request: RequestId | None = None


@dataclass(frozen=True)
class ReceiveRequest:
    """Block until the next agreed incoming request; resumes with a
    :class:`RequestEvent`."""


@dataclass(frozen=True)
class ReceiveAny:
    """Block until the next agreed event of either kind; resumes with a
    :class:`RequestEvent` or a :class:`ReplyEvent`.

    This is the raw view of Perpetual's local event queue (Figure 1,
    stages 3 and 9 both enqueue into it) and is what lets an active
    application interleave serving new requests with consuming replies to
    its earlier out-calls without ever polling.
    """


@dataclass(frozen=True)
class SendReply:
    """Send the reply to a previously received request; never blocks."""

    request: "RequestEvent"
    payload: Any


@dataclass(frozen=True)
class Compute:
    """Consume ``cpu_us`` of (simulated) CPU time; resumes with None.

    This is how benchmark applications model non-trivial request
    processing (the paper's message-digest busy work, section 6.2).
    """

    cpu_us: int


@dataclass(frozen=True)
class Sleep:
    """Block for a wall-clock interval without consuming CPU.

    Used by *unreplicated* load generators (the TPC-W remote browser
    emulators' think times). Unlike ``Compute``, the interval is idle
    time, so other work on the same host proceeds. Replicated services
    must not use it: local timers fire at different real times on
    different replicas relative to agreed events, which would break
    replica determinism — replicated services sequence everything through
    ``CurrentTime`` and the agreed event queue instead.
    """

    duration_us: int


@dataclass(frozen=True)
class CurrentTime:
    """Agreed replacement for ``System.currentTimeMillis()``; resumes with
    the replica-consistent time in milliseconds."""


@dataclass(frozen=True)
class Timestamp:
    """Agreed replacement for constructing ``java.util.Date``; resumes
    with the replica-consistent timestamp in milliseconds."""


@dataclass(frozen=True)
class Random:
    """Agreed replacement for constructing ``java.util.Random``; resumes
    with a :class:`random.Random` seeded by the agreed seed."""


# ---------------------------------------------------------------------------
# Events delivered to applications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RequestEvent:
    """An agreed incoming request, as handed to the application."""

    request_id: RequestId
    caller: str
    payload: Any
    responder_index: int = 0


@dataclass(frozen=True)
class ReplyEvent:
    """The outcome of one of the application's own out-calls.

    ``aborted`` is True when the voter group deterministically aborted the
    request (timeout against an unresponsive or compromised target); the
    payload is then None.
    """

    request_id: RequestId
    payload: Any
    aborted: bool = False


# ---------------------------------------------------------------------------
# The runtime
# ---------------------------------------------------------------------------


@dataclass
class _Outbox:
    """Effects the runtime asks its driver to perform."""

    sends: list[tuple[RequestId, Send]] = field(default_factory=list)
    replies: list[SendReply] = field(default_factory=list)
    compute_us: int = 0
    utility: str | None = None  # "time" | "timestamp" | "random", at most one
    sleep_us: int | None = None  # armed when blocked on Sleep


class ExecutorRuntime:
    """Drives one application generator deterministically.

    The driver feeds agreed events in (``deliver_request``,
    ``deliver_reply``, ``deliver_utility``) and then calls :meth:`step` to
    resume the generator as far as it can go; :meth:`take_outbox` returns
    the externally visible effects accumulated during the resume, in
    deterministic order.

    Per-call state lasts only while a call is open (issued, reply not yet
    claimed), so it is bounded by the calls in flight, not by the calls
    ever made. A closed call is recognised by its id alone: ids come from
    one monotone allocator, so every id at or below the last one issued
    that is no longer open was claimed.
    """

    def __init__(
        self,
        app_factory: AppFactory,
        allocate_request_id: Callable[[], RequestId],
    ) -> None:
        self._app = app_factory()
        self._allocate = allocate_request_id
        self._started = False
        self._finished = False
        # What the generator is currently blocked on.
        self._waiting: Any = None
        # The local event queue: agreed events in agreement order (the
        # paper's stages 3 and 9 both enqueue here).
        self._events: list[RequestEvent | ReplyEvent] = []
        # Open calls: issued, reply not yet claimed -> the delivered reply,
        # or None while it is still awaited.
        self._open: dict[RequestId, ReplyEvent | None] = {}
        self._last_issued: RequestId | None = None
        self._utility_value: tuple[str, int] | None = None
        self._utility_requested = False
        self._sleep_requested = False
        self._woke = False
        self._outbox = _Outbox()
        self.steps = 0

    # -- driver-facing input ------------------------------------------------

    def deliver_request(self, event: RequestEvent) -> None:
        self._events.append(event)

    def deliver_reply(self, event: ReplyEvent) -> None:
        """Queue the reply of an open call. A duplicate agreement delivery
        (the call's reply already delivered or claimed) is dropped, and
        so is a reply for a request this executor never sent."""
        request_id = event.request_id
        if request_id not in self._open or self._open[request_id] is not None:
            return
        self._open[request_id] = event
        self._events.append(event)

    def deliver_utility(self, utility: str, value: int) -> None:
        self._utility_value = (utility, value)

    def deliver_wakeup(self) -> None:
        """The driver's sleep timer fired."""
        self._woke = True

    # -- driver-facing control ------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def blocked_on(self) -> Any:
        return self._waiting

    def step(self) -> None:
        """Resume the generator until it blocks on an unsatisfiable effect."""
        if self._finished:
            return
        if not self._started:
            self._started = True
            self._advance(None)
        while not self._finished:
            satisfied = self._try_satisfy()
            if satisfied is _UNSATISFIED:
                return
            self._advance(satisfied)

    def take_outbox(self) -> _Outbox:
        out, self._outbox = self._outbox, _Outbox()
        return out

    # -- internals ---------------------------------------------------------------

    def _advance(self, value: Any) -> None:
        """Send ``value`` into the generator; stash the next effect."""
        try:
            effect = self._app.send(value)
        except StopIteration:
            self._finished = True
            self._waiting = None
            return
        self.steps += 1
        self._waiting = self._handle_immediate(effect)

    def _handle_immediate(self, effect: Any) -> Any:
        """Process non-blocking effects inline; return the blocking one.

        Non-blocking effects (Send, SendReply, Compute) are recorded on
        the outbox and the generator is immediately resumable; we loop in
        :meth:`step` via a synthetic "satisfied" path by returning None
        from _try_satisfy — instead, for simplicity they are handled here
        and the generator resumed straight away.
        """
        while True:
            if isinstance(effect, Send):
                request_id = self._allocate()
                self._open[request_id] = None
                self._last_issued = request_id
                self._outbox.sends.append((request_id, effect))
                resume_value = request_id
            elif isinstance(effect, SendReply):
                self._outbox.replies.append(effect)
                resume_value = None
            elif isinstance(effect, Compute):
                if effect.cpu_us < 0:
                    raise ExecutorViolation("negative Compute duration")
                self._outbox.compute_us += effect.cpu_us
                resume_value = None
            else:
                return effect  # a blocking effect
            try:
                effect = self._app.send(resume_value)
            except StopIteration:
                self._finished = True
                return None
            self.steps += 1

    def _try_satisfy(self) -> Any:
        """Check whether the blocking effect can complete now."""
        waiting = self._waiting
        if waiting is None:
            return _UNSATISFIED
        if isinstance(waiting, ReceiveRequest):
            for i, event in enumerate(self._events):
                if isinstance(event, RequestEvent):
                    return self._events.pop(i)
            return _UNSATISFIED
        if isinstance(waiting, ReceiveAny):
            if self._events:
                event = self._events.pop(0)
                if isinstance(event, ReplyEvent):
                    del self._open[event.request_id]
                return event
            return _UNSATISFIED
        if isinstance(waiting, ReceiveReply):
            return self._match_reply(waiting)
        if isinstance(waiting, (CurrentTime, Timestamp, Random)):
            wanted = _utility_kind(waiting)
            if self._utility_value is not None:
                utility, value = self._utility_value
                if utility != wanted:
                    raise ExecutorViolation(
                        f"agreed utility {utility!r} arrived while blocked "
                        f"on {wanted!r}"
                    )
                self._utility_value = None
                self._utility_requested = False
                if isinstance(waiting, Random):
                    # analysis: allow(DET002) — seeded from the
                    # voter-agreed utility value, so every correct
                    # replica constructs an identical stream
                    return _random.Random(value)
                return value
            if not self._utility_requested:
                # First resume attempt: emit the utility request once.
                self._utility_requested = True
                self._outbox.utility = wanted
            return _UNSATISFIED
        if isinstance(waiting, Sleep):
            if self._woke:
                self._woke = False
                self._sleep_requested = False
                return None
            if not self._sleep_requested:
                self._sleep_requested = True
                self._outbox.sleep_us = waiting.duration_us
            return _UNSATISFIED
        raise ExecutorViolation(f"application yielded non-effect: {waiting!r}")

    def _match_reply(self, waiting: ReceiveReply) -> Any:
        if waiting.request is not None:
            if waiting.request not in self._open:
                if not self._sent(waiting.request):
                    raise ExecutorViolation(
                        f"receiveReply for request {waiting.request} that "
                        "this executor never sent"
                    )
                return _UNSATISFIED  # its reply was claimed already
            event = self._open[waiting.request]
            if event is None:
                return _UNSATISFIED
            del self._open[event.request_id]
            self._events = [
                e
                for e in self._events
                if not (
                    isinstance(e, ReplyEvent)
                    and e.request_id == event.request_id
                )
            ]
            return event
        for i, event in enumerate(self._events):
            if isinstance(event, ReplyEvent):
                self._events.pop(i)
                del self._open[event.request_id]
                return event
        return _UNSATISFIED

    def _sent(self, request_id: RequestId) -> bool:
        """Whether this executor issued ``request_id`` (open or closed)."""
        last = self._last_issued
        return request_id in self._open or (
            last is not None
            and request_id.origin == last.origin
            and request_id.seqno <= last.seqno
        )


class _Unsatisfied:
    """Sentinel: the blocking effect cannot complete yet."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<unsatisfied>"


_UNSATISFIED = _Unsatisfied()


def _utility_kind(effect: Any) -> str:
    if isinstance(effect, CurrentTime):
        return "time"
    if isinstance(effect, Timestamp):
        return "timestamp"
    return "random"


def run_passive(
    handler: Callable[[RequestEvent], Any],
) -> AppFactory:
    """Adapt a passive request handler into an executor application.

    Passive deterministic web services (the only kind Thema/BFT-WS/SWS
    support) are a special case of the Perpetual-WS model: an endless
    receive/handle/reply loop. ``handler`` returns the reply payload.
    """

    def app() -> Iterator[Any]:
        while True:
            event = yield ReceiveRequest()
            result = handler(event)
            yield SendReply(event, result)

    return app
