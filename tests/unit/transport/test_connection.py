"""Unit tests for Connection modules (the transport-independence seam)."""

from repro.crypto.auth import AuthenticatorFactory
from repro.sim.kernel import ProtocolNode, Simulator
from repro.sim.network import UniformLatency
from repro.transport.connection import SimConnection
from repro.transport.wire import WireEnvelope


def make_envelope(keys, sender="a", receiver="b"):
    auth = AuthenticatorFactory(keys, sender).sign(b"payload", [receiver])
    return WireEnvelope(payload=b"payload", auth=auth)


class Sink(ProtocolNode):
    def __init__(self):
        self.received = []

    def on_message(self, src, msg):
        self.received.append((str(src), msg))

    def on_timer(self, tag):
        pass


class TestSimConnection:
    def test_delivers_through_kernel(self, keys):
        sim = Simulator()
        sim.set_network(UniformLatency(5))
        sink = Sink()
        sim.add_node("b", sink)
        src = Sink()
        env = sim.add_node("a", src)
        conn = SimConnection(env)
        envelope = make_envelope(keys)
        conn.transmit("b", envelope)
        sim.run()
        assert sink.received == [("a", envelope)]

