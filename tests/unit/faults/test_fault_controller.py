"""Unit tests for the fault subsystem: plans, scripts, and injectors.

The FaultPlan is pure data derived from a validated ScenarioSpec (the
process substrate rebuilds it inside each worker from spec JSON), and
the FaultInjector is the per-principal runtime object the voter/driver
hooks consult. These tests pin the plan-building rules and drive the
injector against a stub environment.
"""

import pytest

from repro.clbft.messages import ClientRequest, NewView, PrePrepare
from repro.clbft.messages import batch_digest
from repro.common.errors import ConfigurationError
from repro.faults import (
    FAULT_DEFER_TAG,
    FaultInjector,
    FaultPlan,
    ReplicaFaultScript,
    require_supported_kinds,
)
from repro.perpetual.messages import LocalResult
from repro.scenario.spec import ScenarioBuilder


def base_builder(name="faults-unit", n=4):
    return (
        ScenarioBuilder(name)
        .service("target", n=n, app="echo")
        .service("caller", n=1, app="sync_caller",
                 target="target", total_calls=1)
    )


class StubEnv:
    """Just enough node-environment surface for the injector hooks."""

    def __init__(self):
        self.now = 0
        self.sent = []
        self.timers = []

    def now_us(self):
        return self.now

    def send(self, dst, msg, size_bytes=256):
        self.sent.append((dst, msg, size_bytes))

    def set_timer(self, tag, delay_us):
        self.timers.append((tag, delay_us))


def injector(role="voter", **script_fields):
    script = ReplicaFaultScript(service="target", index=0, **script_fields)
    inj = FaultInjector(script, role)
    env = StubEnv()
    inj.wrap_env(env)
    return inj, env


class TestFaultPlan:
    def test_crash_and_link_contribute_nothing(self):
        spec = (
            base_builder()
            .crash("target", 1)
            .link_fault("caller/d0", "*", drop=0.5)
            .build()
        )
        assert FaultPlan.from_spec(spec).empty

    def test_faults_on_same_replica_merge_into_one_script(self):
        spec = (
            base_builder()
            .byzantine("target", 0, mode="corrupt")
            .delay("target", 0, delay_us=700, jitter_us=30)
            .build()
        )
        plan = FaultPlan.from_spec(spec)
        script = plan.script_for("target", 0)
        assert script.byzantine_mode == "corrupt"
        assert script.delay_us == 700
        assert script.delay_jitter_us == 30
        assert plan.script_for("target", 1) is None

    def test_partition_scripts_only_the_declared_side(self):
        spec = (
            base_builder()
            .partition("target", [3], heal_after_us=2_000_000)
            .build()
        )
        plan = FaultPlan.from_spec(spec)
        script = plan.script_for("target", 3)
        # Blocked peers are the *other* side's voter and driver names.
        assert script.blocked_peers == frozenset(
            f"target/{kind}{i}" for i in (0, 1, 2) for kind in ("v", "d")
        )
        assert script.block_start_us == 0
        assert script.block_heal_us == 2_000_000
        for i in (0, 1, 2):
            assert plan.script_for("target", i) is None

    def test_restart_window_carried_to_script(self):
        spec = (
            base_builder()
            .restart("target", 2, up_after_us=900_000, down_after_us=100_000)
            .build()
        )
        script = FaultPlan.from_spec(spec).script_for("target", 2)
        assert script.down_from_us == 100_000
        assert script.down_until_us == 900_000


class TestInjectorSendPath:
    def test_delay_defers_then_releases_on_timer(self):
        inj, env = injector(delay_us=500)
        consumed = inj.intercept_send("target/v1", "msg", 64)
        assert consumed
        assert env.sent == []
        [(tag, delay)] = env.timers
        assert tag[0] == FAULT_DEFER_TAG
        assert delay == 500
        assert inj.on_timer(tag)
        assert env.sent == [("target/v1", "msg", 64)]

    def test_delay_jitter_is_deterministic_per_label(self):
        delays = []
        for _ in range(2):
            inj, env = injector(delay_us=500, delay_jitter_us=200)
            for _ in range(5):
                inj.intercept_send("target/v1", "m", 64)
            delays.append([d for _, d in env.timers])
        assert delays[0] == delays[1]
        assert all(500 <= d <= 700 for d in delays[0])

    def test_down_window_drops_io_then_heals(self):
        inj, env = injector(down_from_us=100, down_until_us=200)
        env.now = 50
        assert not inj.intercept_send("x", "m", 1)
        assert inj.deliver_ok("x")
        env.now = 150
        assert inj.intercept_send("x", "m", 1)
        assert not inj.deliver_ok("x")
        assert inj.on_timer(("rtx", "anything"))  # suppressed while down
        env.now = 200
        assert not inj.intercept_send("x", "m", 1)
        assert inj.deliver_ok("x")
        assert not inj.on_timer(("rtx", "anything"))

    def test_partition_blocks_only_scripted_peers_until_heal(self):
        inj, env = injector(
            blocked_peers=frozenset({"target/v1", "target/d1"}),
            block_start_us=0,
            block_heal_us=1000,
        )
        assert inj.intercept_send("target/v1", "m", 1)
        assert not inj.intercept_send("target/v2", "m", 1)
        assert not inj.deliver_ok("target/d1")
        assert inj.deliver_ok("target/d2")
        env.now = 1000
        assert not inj.intercept_send("target/v1", "m", 1)
        assert inj.deliver_ok("target/d1")

    def test_deferred_send_arriving_in_down_window_is_swallowed(self):
        inj, env = injector(delay_us=500, down_from_us=400, down_until_us=900)
        inj.intercept_send("x", "m", 1)
        [(tag, _)] = env.timers
        env.now = 500  # release lands inside the down window
        assert inj.on_timer(tag)
        assert env.sent == []


class TestInjectorLocalPath:
    def test_corrupt_garbles_driver_results_only(self):
        result = LocalResult(request_id="urn:req:1", result=["ok"])
        drv, _ = injector(role="driver", byzantine_mode="corrupt")
        garbled = drv.intercept_local(result)
        assert garbled.result == ["#garbled", "urn:req:1"]
        assert garbled.request_id == result.request_id
        vot, _ = injector(role="voter", byzantine_mode="corrupt")
        assert vot.intercept_local(result) is result

    def test_down_window_drops_local_deliveries(self):
        inj, env = injector(role="driver", down_from_us=0, down_until_us=100)
        assert inj.intercept_local(LocalResult("urn:req:1", ["ok"])) is None


class TestClbftMulticastPlan:
    def _preprepare(self):
        requests = (ClientRequest(client="c", timestamp=1, op=["noop"]),)
        return PrePrepare(view=0, seqno=1,
                          digest=batch_digest(requests), requests=requests)

    def _replica(self, f=1, primary=True):
        class Config:
            pass

        class Replica:
            pass

        Config.f = f
        Replica.config = Config()
        Replica.is_primary = primary
        return Replica()

    def test_equivocate_splits_receivers_with_conflicting_digests(self):
        inj, _ = injector(byzantine_mode="equivocate")
        msg = self._preprepare()
        receivers = ["target/v1", "target/v2", "target/v3"]
        plan = inj.clbft_multicast_plan(msg, receivers, self._replica(f=1))
        assert plan is not None
        (true_half, true_msg), (lie_half, lie_msg) = plan
        assert len(true_half) == 1 and len(lie_half) == 2
        assert sorted(true_half + lie_half) == sorted(receivers)
        assert true_msg is msg
        assert lie_msg.digest != msg.digest
        assert (lie_msg.view, lie_msg.seqno) == (msg.view, msg.seqno)

    def test_equivocate_honest_when_not_primary(self):
        inj, _ = injector(byzantine_mode="equivocate")
        plan = inj.clbft_multicast_plan(
            self._preprepare(), ["a", "b", "c"], self._replica(primary=False)
        )
        assert plan is None

    def test_mute_swallows_primary_preprepares_and_new_views(self):
        inj, _ = injector(byzantine_mode="mute")
        replica = self._replica()
        assert inj.clbft_multicast_plan(
            self._preprepare(), ["a", "b", "c"], replica) == []
        new_view = NewView(view=1, view_changes=(), pre_prepares=())
        assert inj.clbft_multicast_plan(new_view, ["a", "b"], replica) == []

    def test_honest_replica_gets_no_plan(self):
        inj, _ = injector(byzantine_mode=None)
        assert inj.clbft_multicast_plan(
            self._preprepare(), ["a", "b", "c"], self._replica()) is None


class TestRequireSupportedKinds:
    def test_rejects_unsupported_kind_with_runtime_name(self):
        spec = base_builder().link_fault("caller/d0", "*", drop=0.1).build()
        with pytest.raises(ConfigurationError, match="threaded.*link.*sim"):
            require_supported_kinds(spec, ("link",), "threaded")

    def test_passes_when_only_supported_kinds_declared(self):
        spec = base_builder().crash("target", 1).byzantine("target", 0).build()
        require_supported_kinds(spec, ("link",), "process")
