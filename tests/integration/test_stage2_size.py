"""Integration: a stage-2 agreement item carries the request body once.

Paper Fig. 1, stage 2: the target primary proves to every target voter
that ``fc + 1`` calling drivers issued a request. The item carries each
distinct stage-1 payload once, as the bytes the drivers MAC'd, plus one
authenticator per vouching driver — so a pre-prepare is bounded by the
base64 of the stage-1 payload, ``fc + 1`` encoded proof entries and a
fixed allowance for the pre-prepare's own framing and MAC vector. The
sizes are the ones the simulated network charges for: every
``SimConnection.transmit`` is observed, as the benchmark's byte count
observes it.
"""

import math
import random

import pytest

from repro.clbft.messages import PrePrepare, decode_message, encode_message
from repro.perpetual.messages import ITEM_REQUEST, OutRequest, item_kind
from repro.scenario.presets import two_tier_scenario
from repro.scenario.runtime import run_scenario
from repro.scenario.spec import ScenarioBuilder
from repro.transport.connection import SimConnection
from repro.transport.wire import WireEnvelope, auth_to_wire

#: Framing of one pre-prepare beyond its items: the message and item
#: headers, the request id, the pre-prepare's MAC vector and the
#: envelope overhead of the size model (about 450 bytes measured).
HEADER_ALLOWANCE = 1024


def payload_proc_shape():
    """caller n=1 -> target n=4 ``echo`` with 16 KiB bodies, window 4."""
    blob = random.Random(7).randbytes(8 * 1024).hex()
    return (
        ScenarioBuilder("stage2-size-16k")
        .seed(7)
        .duration(60)
        .batching("off")
        .service("target", n=4, app="echo")
        .service(
            "caller", n=1, app="async_caller", target="target",
            total_calls=12, window=4, body={"blob": blob},
        )
        .build()
    )


def echo_4x4_shape():
    return two_tier_scenario(n_calling=4, n_target=4, total_calls=6)


def observe(spec):
    """Stage-1 payload and proof-entry sizes per request id, and every
    pre-prepare that carries a request item, as transmitted."""
    stage1: dict[str, int] = {}
    entry_bytes: dict[str, int] = {}
    pre_prepares: list[tuple[int, PrePrepare]] = []
    original = SimConnection.transmit

    def observing(self, dst, envelope):
        if type(envelope) is WireEnvelope:
            msg = decode_message(envelope.payload)
            if isinstance(msg, OutRequest):
                rid = str(msg.request_id)
                stage1[rid] = max(stage1.get(rid, 0), len(envelope.payload))
                entry = encode_message([0, auth_to_wire(envelope.auth)])
                entry_bytes[rid] = max(entry_bytes.get(rid, 0), len(entry))
            elif isinstance(msg, PrePrepare) and any(
                item_kind(item) == ITEM_REQUEST for item in msg.requests
            ):
                pre_prepares.append((envelope.size_bytes, msg))
        original(self, dst, envelope)

    SimConnection.transmit = observing
    try:
        metrics = run_scenario(spec, runtime="sim")
    finally:
        SimConnection.transmit = original
    return metrics, stage1, entry_bytes, pre_prepares


@pytest.mark.parametrize(
    "shape, fc",
    [(payload_proc_shape, 0), (echo_4x4_shape, 1)],
    ids=["payload-proc-16k", "echo-4x4"],
)
def test_pre_prepare_carries_the_stage1_payload_once(shape, fc):
    metrics, stage1, entry_bytes, pre_prepares = observe(shape())
    assert pre_prepares, "no pre-prepare carried a request item"
    assert not any(svc.aborted_calls for svc in metrics.services.values())
    for size_bytes, msg in pre_prepares:
        bound = HEADER_ALLOWANCE
        for item in msg.requests:
            # In these shapes the target group agrees on requests only.
            assert item_kind(item) == ITEM_REQUEST
            rid = item.client.split("/", 1)[1]
            bound += math.ceil(4 / 3 * stage1[rid]) + (fc + 1) * entry_bytes[rid]
        assert size_bytes <= bound, (size_bytes, bound, msg.seqno)


def test_fault_free_4x4_item_has_one_payload_and_fc_plus_1_entries():
    __, __, __, pre_prepares = observe(echo_4x4_shape())
    for __, msg in pre_prepares:
        for item in msg.requests:
            assert len(item.op["payloads"]) == 1
            assert len(item.op["proof"]) == 2
            assert {index for index, __ in item.op["proof"]} == {0}
