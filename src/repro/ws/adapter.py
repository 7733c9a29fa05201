"""Bridges WS-level applications onto the Perpetual executor model.

The adapter is the reproduction's MessageHandler *implementation* (the
darkly shaded middleware box of paper Figure 4): it wraps a WS application
generator in an executor-level generator, translating each yielded
operation:

- ``WsSend`` — stamp WS-Addressing headers through the OUT-PIPE, marshal
  the envelope, and issue the Perpetual ``Send``; record the
  messageID <-> RequestId correlation;
- ``WsReceiveReply`` — block on the Perpetual reply, demarshal through the
  IN-PIPE, and synthesise a SOAP fault context for deterministic aborts;
- ``WsReceiveRequest`` / ``WsSendReply`` — mirror path on the target side,
  copying ``wsa:messageID`` into ``wsa:relatesTo`` and ``wsa:replyTo``
  into ``wsa:to`` exactly as section 5.1 describes;
- ``Utils`` operations pass straight through to voter agreement, with
  ``timestamp()`` converting the agreed milliseconds into a ``datetime``.

Message ids come from a deterministic per-replica counter — every correct
replica runs the same application, so the counters agree; a UUID source
would silently break replica consistency.
"""

from __future__ import annotations

import datetime
from typing import Any, Callable, Generator, Iterator

from repro.common.errors import ExecutorViolation
from repro.common.ids import RequestId
from repro.perpetual.executor import (
    AppFactory,
    Compute,
    CurrentTime,
    Random,
    ReceiveAny,
    ReceiveReply,
    ReceiveRequest,
    ReplyEvent,
    RequestEvent,
    Send,
    SendReply,
    Sleep,
    Timestamp,
)
from repro.soap.addressing import WsAddressing
from repro.soap.engine import SoapEngine
from repro.soap.faults import CODE_ABORTED, make_fault_envelope
from repro.ws.api import (
    MessageContext,
    WsCompute,
    WsReceiveAny,
    WsReceiveReply,
    WsReceiveRequest,
    WsSend,
    WsSendReceive,
    WsSendReply,
)
from repro.ws.registry import service_name

WsAppFactory = Callable[[], Generator[Any, Any, None]]

#: Simulated CPU for one XML marshal / demarshal pass. Calibrated to the
#: paper's testbed class; section 6.4 notes this cost is dwarfed by the
#: ChannelAdapter's authentication and encryption work.
MARSHAL_CPU_US = 120
DEMARSHAL_CPU_US = 120

#: Fixed reference for agreed-timestamp construction (see Timestamp below).
_UTC_EPOCH = datetime.datetime(1970, 1, 1, tzinfo=datetime.timezone.utc)


class WsAdapter:
    """Builds the executor app for one replica of a WS application."""

    def __init__(
        self,
        service: str,
        app_factory: WsAppFactory,
        engine: SoapEngine | None = None,
        resolve: Callable[[str], str] | None = None,
        marshal_cpu_us: int = MARSHAL_CPU_US,
        demarshal_cpu_us: int = DEMARSHAL_CPU_US,
    ) -> None:
        self.service = service
        self.engine = engine or SoapEngine()
        self._app_factory = app_factory
        self._resolve = resolve or (lambda endpoint: endpoint)
        self._marshal_cpu_us = marshal_cpu_us
        self._demarshal_cpu_us = demarshal_cpu_us
        self._msg_counter = 0
        # Correlation state.
        self._rid_by_mid: dict[str, RequestId] = {}
        self._mid_by_rid: dict[RequestId, str] = {}
        self._event_by_mid: dict[str, RequestEvent] = {}
        self.requests_served = 0
        self.replies_received = 0

    # ------------------------------------------------------------------

    def _allocate_message_id(self) -> str:
        self._msg_counter += 1
        return f"urn:{self.service}:msg:{self._msg_counter}"

    def _bind(self, context: MessageContext) -> MessageContext:
        context.local_service = self.service
        context._allocate = self._allocate_message_id
        return context

    def executor_app(self) -> AppFactory:
        """The executor-level generator factory for this replica."""

        def app() -> Iterator[Any]:
            gen = self._app_factory()
            resume: Any = None
            throw: BaseException | None = None
            while True:
                try:
                    if throw is not None:
                        op, throw = gen.throw(throw), None
                    else:
                        op = gen.send(resume)
                except StopIteration:
                    return
                try:
                    resume = yield from self._perform(op)
                except ExecutorViolation:
                    raise
                except Exception as exc:  # surface app-level misuse
                    throw = exc
                    resume = None

        return app

    # ------------------------------------------------------------------
    # Operation translation
    # ------------------------------------------------------------------

    def _perform(self, op: Any):
        if isinstance(op, WsSend):
            message_id = yield from self._do_send(op.context)
            return message_id
        if isinstance(op, WsSendReceive):
            yield from self._do_send(op.context)
            return (yield from self._do_receive_reply(op.context))
        if isinstance(op, WsReceiveReply):
            return (yield from self._do_receive_reply(op.request))
        if isinstance(op, WsReceiveRequest):
            return (yield from self._do_receive_request())
        if isinstance(op, WsReceiveAny):
            return (yield from self._do_receive_any())
        if isinstance(op, WsSendReply):
            yield from self._do_send_reply(op.reply, op.request)
            return None
        if isinstance(op, WsCompute):
            yield Compute(op.cpu_us)
            return None
        if isinstance(op, (CurrentTime, Random, Sleep)):
            value = yield op
            return value
        if isinstance(op, Timestamp):
            millis = yield op
            # Integer timedelta arithmetic from the fixed epoch: the
            # float-seconds fromtimestamp path rounds, and without tz=
            # would read the host's local timezone — either way replicas
            # could disagree on the same agreed millis.
            return _UTC_EPOCH + datetime.timedelta(milliseconds=millis)
        raise ExecutorViolation(f"application yielded unknown operation: {op!r}")

    def _do_send(self, context: MessageContext):
        self._bind(context)
        if not context.to:
            raise ExecutorViolation("outgoing MessageContext has no wsa:To")
        if self._marshal_cpu_us:
            yield Compute(self._marshal_cpu_us)
        payload = self.engine.send_through(context)
        context.message_id = WsAddressing.message_id(context.envelope)
        target = self._resolve(context.to)
        request_id = yield Send(
            target=target,
            payload=payload,
            timeout_ms=context.options.timeout_ms,
        )
        self._rid_by_mid[context.message_id] = request_id
        self._mid_by_rid[request_id] = context.message_id
        return context.message_id

    def _do_receive_reply(self, request: MessageContext | None):
        if request is None:
            event = yield ReceiveReply()
        else:
            request_id = self._rid_by_mid.get(request.message_id)
            if request_id is None:
                raise ExecutorViolation(
                    f"receive_reply for unknown request {request.message_id!r}"
                )
            event = yield ReceiveReply(request_id)
        self.replies_received += 1
        if self._demarshal_cpu_us and not event.aborted:
            yield Compute(self._demarshal_cpu_us)
        return self._reply_context(event)

    def _do_receive_any(self):
        event = yield ReceiveAny()
        if self._demarshal_cpu_us and not getattr(event, "aborted", False):
            yield Compute(self._demarshal_cpu_us)
        if isinstance(event, RequestEvent):
            return self._request_context(event)
        context = self._reply_context(event)
        self.replies_received += 1
        return context

    def _reply_context(self, event: ReplyEvent) -> MessageContext:
        message_id = self._mid_by_rid.pop(event.request_id, "")
        self._rid_by_mid.pop(message_id, None)
        if event.aborted:
            envelope = make_fault_envelope(
                CODE_ABORTED, f"request {message_id} aborted by voter agreement"
            )
            WsAddressing.set_relates_to(envelope, message_id)
            context = MessageContext(envelope=envelope)
        else:
            context = self._bind(MessageContext())
            self.engine.receive_through(context, event.payload)
        context.relates_to = WsAddressing.relates_to(context.envelope) or message_id
        context.message_id = WsAddressing.message_id(context.envelope)
        context.kind = "reply"
        return context

    def _do_receive_request(self):
        event = yield ReceiveRequest()
        if self._demarshal_cpu_us:
            yield Compute(self._demarshal_cpu_us)
        return self._request_context(event)

    def _request_context(self, event: RequestEvent) -> MessageContext:
        context = self._bind(MessageContext())
        self.engine.receive_through(context, event.payload)
        context.caller = event.caller
        context.kind = "request"
        context.message_id = WsAddressing.message_id(context.envelope)
        self._event_by_mid[context.message_id] = event
        self.requests_served += 1
        return context

    def _do_send_reply(self, reply: MessageContext, request: MessageContext):
        event = self._event_by_mid.pop(request.message_id, None)
        if event is None:
            raise ExecutorViolation(
                f"send_reply for unknown or already answered request "
                f"{request.message_id!r}"
            )
        self._bind(reply)
        # Section 5.1: the reply's wsa:To is the request's wsa:ReplyTo and
        # its wsa:RelatesTo is the request's wsa:MessageID.
        WsAddressing.set_to(reply.envelope, WsAddressing.reply_to(request.envelope))
        WsAddressing.set_relates_to(reply.envelope, request.message_id)
        if self._marshal_cpu_us:
            yield Compute(self._marshal_cpu_us)
        payload = self.engine.send_through(reply)
        yield SendReply(event, payload)


def collecting_executor_factory(
    service: str,
    app_factory: WsAppFactory,
    adapters: list["WsAdapter"],
) -> Callable[[], Any]:
    """The per-replica executor factory every substrate deploys with.

    Each invocation (one per replica, in replica order — the driver
    constructs its executor eagerly) builds a fresh engine and adapter,
    appends the adapter to ``adapters`` for observability, and returns
    the executor-level generator. Endpoint references resolve through
    :func:`repro.ws.registry.service_name`, so ``perpetual://`` works
    identically on every substrate.
    """

    def factory() -> Any:
        adapter = WsAdapter(
            service=service,
            app_factory=app_factory,
            engine=SoapEngine(),
            resolve=service_name,
        )
        adapters.append(adapter)
        return adapter.executor_app()()

    return factory
