"""The ``bench_timed`` application: a stock caller with a stopwatch.

Registered through the public :func:`repro.scenario.register_app`, it
wraps a *stock* caller application (``sync_caller``, ``async_caller``,
``rbe``) in a forwarding generator that stamps
``time.perf_counter_ns()`` around every ``WsSendReceive`` and from each
``WsSend`` to the ``WsReceiveReply`` whose ``relates_to`` matches. The
wrapped application sees exactly the operations and results it would
see unwrapped.

Only the first replica built in a process records — replica 0, the
observer, on the in-process substrates; every worker's only replica on
the process substrate, whose parent reads replica 0's probe. Samples
travel back through the app probe as one flat integer list, which is
JSON-safe and therefore survives the trip out of a forked worker.

Parameters (all JSON-safe, so the spec still round-trips):

- ``inner`` / ``inner_params``: the stock application and its parameters;
- ``check``: ``"echo"`` (the reply body must equal the request body),
  ``"counter"`` (the ``counter`` service's ``old`` value must strictly
  increase from reply to reply), ``"counter_unordered"`` (windowed
  callers receive a batch's replies in any order: every ``old`` value
  must be new) or absent.
"""

from __future__ import annotations

import time

from bench.estimator import FLAG_FAULT, FLAG_ORDER, FLAG_WRONG
from repro.scenario import AppSpec, BuiltApp, build_app, register_app
from repro.tpcw.interactions import BUY_CONFIRM
from repro.ws.api import WsReceiveReply, WsSend, WsSendReceive

APP_KIND = "bench_timed"

_now = time.perf_counter_ns


class _Recorder:
    """Samples and the output check of one observed replica."""

    def __init__(self, check: str | None) -> None:
        self.flat: list[int] = []
        self._check = check
        self._last_counter = -1
        self._seen_counters: set[int] = set()

    def record(self, started_ns: int, done_ns: int, request_body, reply) -> None:
        flags = 0
        if reply.is_fault:
            flags |= FLAG_FAULT
        elif not self._output_ok(request_body, reply.body):
            flags |= FLAG_WRONG
        if isinstance(request_body, dict) and request_body.get("page") == BUY_CONFIRM:
            flags |= FLAG_ORDER
        self.flat += (done_ns, done_ns - started_ns, flags)

    def _output_ok(self, request_body, reply_body) -> bool:
        if self._check == "echo":
            return reply_body == request_body
        if self._check is None:
            return True
        old = reply_body.get("old") if isinstance(reply_body, dict) else None
        if not isinstance(old, int):
            return False
        if self._check == "counter":
            ordered = old > self._last_counter
            self._last_counter = old
            return ordered
        fresh = old not in self._seen_counters
        self._seen_counters.add(old)
        return fresh


def _timed(app, recorder: _Recorder):
    """Forward every operation of ``app``; time the calls it makes."""
    in_flight: dict[str, tuple[int, object]] = {}
    try:
        op = next(app)
    except StopIteration:
        return
    while True:
        kind = type(op)
        if kind is WsSendReceive:
            body = op.context.body
            started = _now()
            result = yield op
            recorder.record(started, _now(), body, result)
        elif kind is WsSend:
            body = op.context.body
            started = _now()
            result = yield op
            in_flight[result] = (started, body)
        elif kind is WsReceiveReply:
            result = yield op
            done = _now()
            started, body = in_flight.pop(result.relates_to)
            recorder.record(started, done, body, result)
        else:
            result = yield op
        try:
            op = app.send(result)
        except StopIteration:
            return


@register_app(APP_KIND)
def _build_timed(params: dict) -> BuiltApp:
    inner = build_app(
        AppSpec(kind=params["inner"], params=dict(params["inner_params"]))
    )
    recorder = _Recorder(params.get("check"))
    built = 0

    def factory():
        nonlocal built
        built += 1
        app = inner.factory()
        # Replicas are built in index order (see
        # repro.ws.adapter.collecting_executor_factory): the first is
        # the observer.
        return _timed(app, recorder) if built == 1 else app

    return BuiltApp(factory=factory, probe=lambda: {"samples": recorder.flat})
