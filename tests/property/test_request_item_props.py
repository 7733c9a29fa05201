"""Property: a stage-2 request item is accepted exactly when its proof is.

A target backup accepts a request item iff at least ``fc + 1`` distinct
calling drivers authenticated payloads that share one match key — with
every payload referenced by a proof entry and every entry a calling
driver's valid authenticator over the payload it points at. Hypothesis
draws proofs mixing retransmitted copies, a different request body,
forged MACs, non-driver senders, unreferenced payloads and out-of-range
indices; the verdict must match that rule every time.
"""

from hypothesis import given, settings, strategies as st

from repro.clbft.messages import encode_message
from repro.common.ids import RequestId, ServiceId
from repro.crypto.auth import AuthenticatorFactory
from repro.crypto.keys import KeyStore
from repro.perpetual.group import Topology
from repro.perpetual.messages import OutRequest, request_item
from repro.perpetual.voter import VoterNode, driver_name, voter_name
from repro.sim.kernel import Simulator
from repro.sim.network import UniformLatency
from repro.transport.wire import auth_to_wire

CALLER_N = 4  # fc = 1
FC = 1
RID = RequestId(ServiceId("caller"), 1)
AUDIENCE = [voter_name("svc", i) for i in range(4)]
KEYS = KeyStore.for_deployment("request-item-props")
FORGED_KEYS = KeyStore.for_deployment("not-the-deployment")

#: Sender pool: the four calling drivers, then two principals that are not.
SENDERS = [driver_name("caller", i) for i in range(CALLER_N)] + [
    voter_name("caller", 0),
    driver_name("intruder", 0),
]


def _copy(variant):
    """Variant 0/1: attempts 0 and 1 of one request (one match key);
    variant 2: the same request id with a different body."""
    attempt = 1 if variant == 1 else 0
    return encode_message(
        OutRequest(
            request_id=RID,
            caller=ServiceId("caller"),
            target=ServiceId("svc"),
            payload=b"other" if variant == 2 else b"body",
            responder_index=attempt,
            attempt=attempt,
        )
    )


PAYLOADS = [_copy(v) for v in range(3)]
MATCH_KEY = {0: "a", 1: "a", 2: "b"}


def _voter():
    topology = Topology()
    topology.add("caller", CALLER_N)
    topology.add("svc", 4)
    sim = Simulator()
    sim.set_network(UniformLatency(0))
    voter = VoterNode(topology=topology, service="svc", index=1, keys=KEYS)
    voter.attach(sim.add_node(voter_name("svc", 1), voter, host="svc/h1"))
    return voter


VOTER = _voter()

# Weighted so that valid proofs stay common: mostly calling drivers,
# mostly copies of one request, forgeries and bad indices now and then.
entries_strategy = st.lists(
    st.tuples(
        st.sampled_from([0, 1, 2, 3] * 3 + [4, 5]),  # sender
        st.sampled_from([0, 0, 0, 1, 1, 2]),  # payload variant
        st.sampled_from([False] * 7 + [True]),  # forged MAC
    ),
    min_size=0,
    max_size=5,
)


@given(
    entries=entries_strategy,
    extra_payload=st.sampled_from([None] * 5 + [0, 1, 2]),
    bad_index=st.sampled_from([False] * 5 + [True]),
)
@settings(max_examples=300, deadline=None)
def test_accepts_exactly_when_fc_plus_1_drivers_vouch_for_one_request(
    entries, extra_payload, bad_index
):
    variants = list(dict.fromkeys(v for _, v, _ in entries))
    if extra_payload is not None and extra_payload not in variants:
        variants.append(extra_payload)
    else:
        extra_payload = None
    payloads = [PAYLOADS[v] for v in variants] or [PAYLOADS[0]]
    proof = []
    for sender, variant, forged in entries:
        keys = FORGED_KEYS if forged else KEYS
        auth = AuthenticatorFactory(keys, SENDERS[sender]).sign(
            PAYLOADS[variant], AUDIENCE
        )
        proof.append([variants.index(variant), auth_to_wire(auth)])
    if bad_index and proof:
        proof[-1][0] = len(payloads)
    item = request_item(RID, payloads, proof)

    drivers = {s for s, _, _ in entries if s < CALLER_N}
    expected = (
        bool(entries)
        and not bad_index
        and extra_payload is None
        and all(not forged and s < CALLER_N for s, _, forged in entries)
        and len({MATCH_KEY[v] for v in variants}) == 1
        and len(drivers) >= FC + 1
    )
    verdict = VOTER._validate_batch((item,))
    assert verdict == ("accept" if expected else "reject")
