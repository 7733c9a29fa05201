"""The node-host contract, once for every scheduler.

Each test class runs against the threaded scheduler under its plain name
and, through the ``Asyncio``/``WorkerHost`` subclasses at the bottom,
against the asyncio scheduler and a pipe-less process ``_WorkerHost``:
the same nodes, the same :class:`~repro.runtime.host.NodeEnv`, the same
assertions. A harness hides only how a scheduler is driven — threads
are started and polled, the asyncio loop is run until a predicate holds,
and the worker's real ``loop`` is fed ``go``/``stop`` frames by a fake
connection.
"""

import threading
import time

import pytest

from repro.common.encoding import canonical_encode
from repro.common.errors import ConfigurationError
from repro.crypto.keys import KeyStore
from repro.runtime.aio import AioCluster
from repro.runtime.cluster import ThreadedCluster
from repro.scenario.process import _WorkerHost
from repro.sim.kernel import ProtocolNode
from repro.transport.channel import ChannelAdapter
from repro.transport.connection import SimConnection
from repro.transport.wire import BatchEnvelope


class Collector(ProtocolNode):
    def __init__(self):
        self.started = 0
        self.messages = []
        self.timers = []

    def on_start(self):
        self.started += 1

    def on_message(self, src, msg):
        self.messages.append((str(src), msg))

    def on_timer(self, tag):
        self.timers.append(tag)


class ClusterHarness:
    """An in-process scheduler: its own ``run`` drives it — threads are
    started and the predicate polled from the test thread, or a fresh
    event loop runs with the predicate checked on the loop."""

    off_host_send_raises = False

    def __init__(self, cluster):
        self.host = cluster

    def run(self, until, timeout_s=5.0):
        self.host.run(until, timeout_s)
        return until()

    def close(self):
        self.host.shutdown()


class _FakeConn:
    """The parent's end of a worker pipe, scripted: ``go`` at once,
    ``stop`` when the predicate holds or the time is up."""

    def __init__(self, until, timeout_s):
        self._until = until
        self._deadline = time.monotonic() + timeout_s
        self._inbound = [canonical_encode(("go",))]
        self._stop_sent = False
        self.sent = []

    def poll(self, timeout):
        if self._inbound:
            return True
        if self._stop_sent:
            return False
        if self._until() or time.monotonic() >= self._deadline:
            self._inbound.append(canonical_encode(("stop",)))
            self._stop_sent = True
            return True
        time.sleep(min(timeout, 0.005))
        return False

    def recv_bytes(self):
        return self._inbound.pop(0)

    def send_bytes(self, data):
        self.sent.append(data)


class WorkerHostHarness:
    """The process worker's host with no process and no pipe around it."""

    #: A send to a node this host does not own is a send to another
    #: process, and only wire envelopes may make that trip.
    off_host_send_raises = True

    def __init__(self):
        self.host = _WorkerHost(conn=None)

    def run(self, until, timeout_s=5.0):
        self.host.conn = _FakeConn(until, timeout_s)
        self.host.loop(stats=dict)
        return until()

    def close(self):
        pass


HARNESSES = {
    "threaded": lambda: ClusterHarness(ThreadedCluster()),
    "asyncio": lambda: ClusterHarness(AioCluster()),
    "worker": WorkerHostHarness,
}


@pytest.fixture
def harness(request):
    h = HARNESSES[request.cls.scheduler]()
    yield h
    h.close()


class TestMessaging:
    scheduler = "threaded"

    def test_delivery(self, harness):
        a, b = Collector(), Collector()
        env_a = harness.host.add_node("a", a)
        harness.host.add_node("b", b)
        env_a.send("b", "hello")
        assert harness.run(lambda: b.messages == [("a", "hello")])
        assert (a.started, b.started) == (1, 1)

    def test_local_deliver(self, harness):
        a, b = Collector(), Collector()
        env_a = harness.host.add_node("a", a)
        harness.host.add_node("b", b)
        env_a.local_deliver("b", {"x": 1})
        assert harness.run(lambda: b.messages == [("a", {"x": 1})])

    def test_unknown_destination_harmless(self, harness):
        a = Collector()
        env_a = harness.host.add_node("a", a)
        if harness.off_host_send_raises:
            with pytest.raises(ConfigurationError, match="wire envelopes"):
                env_a.send("ghost", "x")
        else:
            env_a.send("ghost", "x")  # must not raise
        assert harness.run(harness.host.idle)
        assert harness.host.errors() == []

    def test_dropped_node_isolated(self, harness):
        a, b = Collector(), Collector()
        env_a = harness.host.add_node("a", a)
        env_b = harness.host.add_node("b", b)
        harness.host.drop_node("b")
        env_a.send("b", "never")
        env_b.send("a", "never")
        env_b.set_timer("t", 1_000)
        # The dropped node's timer fires into the void and disarms.
        assert harness.run(harness.host.idle)
        assert (a.messages, b.messages, b.timers) == ([], [], [])

    def test_handler_exception_recorded_not_fatal(self, harness):
        class Exploding(Collector):
            def on_message(self, src, msg):
                raise RuntimeError("bang")

        harness.host.add_node("x", Exploding())
        ok = Collector()
        harness.host.add_node("ok", ok)
        env = harness.host.add_node("driver", Collector())
        env.send("x", 1)
        env.send("ok", 2)
        assert harness.run(
            lambda: len(ok.messages) == 1 and len(harness.host.errors()) == 1
        )
        assert isinstance(harness.host.errors()[0], RuntimeError)


class TestTimers:
    scheduler = "threaded"

    def test_timer_fires(self, harness):
        a = Collector()
        env = harness.host.add_node("a", a)
        env.set_timer("t", 20_000)  # armed at deploy time, before any run
        assert env.timer_armed("t")
        assert harness.run(lambda: a.timers == ["t"])
        # A fired timer is no longer armed.
        assert not env.timer_armed("t")
        assert harness.host.timers.armed_count() == 0

    def test_cancel(self, harness):
        a = Collector()
        env = harness.host.add_node("a", a)
        env.set_timer("t", 50_000)
        env.cancel_timer("t")
        assert not env.timer_armed("t")
        assert not harness.run(lambda: a.timers != [], timeout_s=0.12)

    def test_rearm_replaces(self, harness):
        a = Collector()
        env = harness.host.add_node("a", a)
        env.set_timer("t", 500_000)
        env.set_timer("t", 10_000)
        assert harness.run(lambda: a.timers == ["t"], timeout_s=0.4)
        assert harness.host.idle()

    def test_timer_armed_from_a_handler(self, harness):
        class Chain(Collector):
            def on_start(self):
                self.env.set_timer(0, 2_000)

            def on_timer(self, tag):
                super().on_timer(tag)
                if tag < 5:
                    self.env.set_timer(tag + 1, 2_000)

        node = Chain()
        node.env = harness.host.add_node("a", node)
        assert harness.run(harness.host.idle)
        assert node.timers == [0, 1, 2, 3, 4, 5]


class TestQuiescence:
    scheduler = "threaded"

    def test_await_quiescent(self, harness):
        a, b = Collector(), Collector()
        env_a = harness.host.add_node("a", a)
        harness.host.add_node("b", b)
        assert harness.host.unprocessed == 2  # two pending on_starts
        for i in range(20):
            env_a.send("b", i)
        assert harness.host.unprocessed == 22
        assert harness.run(harness.host.idle)
        # idle() is exact: it cannot hold before all 20 are handled.
        assert len(b.messages) == 20
        assert harness.host.unprocessed == 0

    def test_never_idle_while_a_relay_is_in_flight(self, harness):
        """Every hop — a posted message or a fired timer — is counted
        before the hop that caused it stops counting, so a sampler can
        never see ``idle()`` until the whole relay is over."""
        hops = 40

        class Relay(Collector):
            def on_start(self):
                if self.peer == "b":
                    self.env.send(self.peer, 0)

            def on_message(self, src, n):
                self.env.set_timer(n, 500)  # half a millisecond

            def on_timer(self, n):
                super().on_timer(n)
                if n < hops:
                    self.env.send(self.peer, n + 1)

        a, b = Relay(), Relay()
        a.peer, b.peer = "b", "a"
        a.env = harness.host.add_node("a", a)
        b.env = harness.host.add_node("b", b)
        premature = []

        def sample():
            done = len(a.timers) + len(b.timers) == hops + 1
            if harness.host.idle() and not done:
                premature.append(len(a.timers) + len(b.timers))
            return done

        assert harness.run(sample)
        assert premature == []

    def test_clock_monotone(self, harness):
        env = harness.host.add_node("a", Collector())
        t1 = env.now_us()
        time.sleep(0.02)
        assert env.now_us() > t1
        assert env.now_ms() >= 0


class Forwarder(Collector):
    """Sends every message it handles on to ``sink`` through a channel
    that batches on the host's tick (``wants_flush``), or not at all
    (``batching="off"``); each message below ``feed`` also posts the
    next one to itself, so its mailbox never runs dry until then."""

    def __init__(self, host, batching="tick", feed=0):
        super().__init__()
        self.host = host
        self.wants_flush = batching == "tick"
        self.feed = feed
        #: Messages pending at each flush, and whether idle() held then.
        self.flushes = []
        self.idle_at_flush = []
        self.env = host.add_node("fwd", self)
        self.channel = ChannelAdapter(
            "fwd", KeyStore.for_deployment("drain-test"),
            SimConnection(self.env), batching=batching,
        )

    def on_message(self, src, n):
        super().on_message(src, n)
        self.channel.send("sink", n)
        if n < self.feed:
            self.env.local_deliver("fwd", n + 1)

    def on_flush(self):
        self.idle_at_flush.append(self.host.idle())
        self.flushes.append(self.channel.pending_count)
        self.channel.flush()


def received(sink):
    """The messages ``sink`` got, batches opened, in arrival order."""
    return [
        len(msg.items) if isinstance(msg, BatchEnvelope) else 1
        for _, msg in sink.messages
    ]


class TestDrainBatching:
    """Tick batching on a real clock: one flush per mailbox drain."""

    scheduler = "threaded"

    def test_queued_events_leave_as_one_batch(self, harness):
        k = 6
        fwd = Forwarder(harness.host)
        sink = Collector()
        harness.host.add_node("sink", sink)
        source = harness.host.add_node("src", Collector())
        for n in range(k):
            source.send("fwd", 100 + n)
        assert harness.run(lambda: sink.messages and harness.host.idle())
        (sender, batch), = sink.messages
        assert sender == "fwd" and isinstance(batch, BatchEnvelope)
        assert len(batch.items) == k
        assert [f for f in fwd.flushes if f] == [k]

    def test_continuous_posting_flushes_within_the_drain_bound(self, harness):
        """The mailbox never empties while the node feeds itself, yet its
        output leaves every drain: no flush holds more messages than
        were queued when its drain began, plus the one that began it."""
        queued, total = 5, 60
        fwd = Forwarder(harness.host, feed=total)
        sink = Collector()
        harness.host.add_node("sink", sink)
        source = harness.host.add_node("src", Collector())
        for n in range(queued):
            source.send("fwd", total + 1 + n)  # above feed: no re-post
        source.send("fwd", 0)  # the self-feeding chain 0..total
        sent = queued + total + 1
        assert harness.run(
            lambda: sum(received(sink)) == sent and harness.host.idle()
        )
        assert max(fwd.flushes) <= queued + 1
        assert len([f for f in fwd.flushes if f]) >= sent // (queued + 1)
        assert max(received(sink)) > 1

    def test_never_idle_while_output_is_unflushed(self, harness):
        fwd = Forwarder(harness.host, feed=40)
        sink = Collector()
        harness.host.add_node("sink", sink)
        harness.host.add_node("src", Collector()).send("fwd", 0)
        premature = []

        def sample():
            # idle() first: once it holds nothing can buffer anew, so a
            # pending message seen after it was buffered before it.
            if harness.host.idle() and fwd.channel.pending_count:
                premature.append(fwd.channel.pending_count)
            return sum(received(sink)) == 41

        assert harness.run(sample)
        assert premature == []
        assert fwd.idle_at_flush and not any(fwd.idle_at_flush)

    def test_batching_off_never_flushes(self, harness):
        fwd = Forwarder(harness.host, batching="off", feed=10)
        sink = Collector()
        harness.host.add_node("sink", sink)
        harness.host.add_node("src", Collector()).send("fwd", 0)
        assert harness.run(
            lambda: len(sink.messages) == 11 and harness.host.idle()
        )
        assert fwd.flushes == []
        assert received(sink) == [1] * 11


class TestThreadedWindows:
    """The two windows only a scheduler with real threads has."""

    def test_dequeued_but_unhandled_event_is_unprocessed(self):
        entered, release = threading.Event(), threading.Event()

        class Blocking(Collector):
            def on_message(self, src, msg):
                entered.set()
                release.wait(5)
                super().on_message(src, msg)

        cluster = ThreadedCluster()
        try:
            node = Blocking()
            env = cluster.add_node("a", node)
            cluster.start()
            env.send("a", "x")
            assert entered.wait(5)
            # The mailbox is empty — the handler holds the only event.
            assert cluster._mailboxes["a"].empty()
            assert cluster.unprocessed == 1 and not cluster.idle()
            release.set()
            cluster.run(cluster.idle, 5.0)
            assert cluster.idle() and node.messages == [("a", "x")]
        finally:
            release.set()
            cluster.shutdown()

    def test_popped_timer_is_unprocessed_before_it_is_unarmed(self):
        """A sampler thread racing the wheel never sees a timer that is
        neither armed nor counted."""
        cluster = ThreadedCluster()
        try:
            node = Collector()
            env = cluster.add_node("a", node)
            cluster.start()
            cluster.run(cluster.idle, 5.0)
            lost = []
            deadline = time.monotonic() + 20
            for i in range(200):
                env.set_timer(i, 100)
                while len(node.timers) <= i and time.monotonic() < deadline:
                    if cluster.idle() and len(node.timers) <= i:
                        lost.append(i)
                        break
            assert lost == [] and len(node.timers) == 200
        finally:
            cluster.shutdown()


class TestMessagingAsyncio(TestMessaging):
    scheduler = "asyncio"


class TestTimersAsyncio(TestTimers):
    scheduler = "asyncio"


class TestQuiescenceAsyncio(TestQuiescence):
    scheduler = "asyncio"


class TestMessagingWorkerHost(TestMessaging):
    scheduler = "worker"
    #: Not a worker-host behaviour: a crashed process replica is never
    #: spawned, so nothing ever calls ``drop_node`` there.
    test_dropped_node_isolated = None


class TestTimersWorkerHost(TestTimers):
    scheduler = "worker"


class TestQuiescenceWorkerHost(TestQuiescence):
    scheduler = "worker"


class TestDrainBatchingAsyncio(TestDrainBatching):
    scheduler = "asyncio"


class TestDrainBatchingWorkerHost(TestDrainBatching):
    scheduler = "worker"
