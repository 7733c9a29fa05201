"""Unit: the sharded half of the scenario spec.

Groups and routing are validated structure like everything else in the
spec: bad documents fail at ``validate()`` with a precise message, good
documents round-trip through JSON unchanged, and the builder partitions
services and auto-assigns faults to the group that owns them.
"""

import pytest

from repro.common.errors import ConfigurationError
from repro.scenario.presets import sharded_echo_scenario, sharded_tpcw_scenario
from repro.scenario.spec import (
    AppSpec,
    FaultSpec,
    GroupSpec,
    RoutingSpec,
    ScenarioBuilder,
    ScenarioSpec,
    ServiceDecl,
)


def decl(name, n=4, app="echo", **params):
    return ServiceDecl(name=name, n=n, app=AppSpec(kind=app, params=params))


def spec_with(groups=(), routing=RoutingSpec(), services=(), faults=()):
    return ScenarioSpec(
        name="sharded-neg",
        services=tuple(services),
        faults=tuple(faults),
        groups=tuple(groups),
        routing=routing,
    )


class TestValidationNegatives:
    def test_empty_group(self):
        with pytest.raises(ConfigurationError, match="declares no services"):
            spec_with(groups=[GroupSpec(name="g0")]).validate()

    def test_duplicate_principal_across_groups(self):
        groups = [
            GroupSpec(name="g0", services=(decl("svc"),)),
            GroupSpec(name="g1", services=(decl("svc"),)),
        ]
        with pytest.raises(ConfigurationError, match="duplicate service"):
            spec_with(groups=groups).validate()

    def test_unknown_routing_policy(self):
        with pytest.raises(ConfigurationError, match="unknown routing policy"):
            spec_with(
                groups=[GroupSpec(name="g0", services=(decl("svc"),))],
                routing=RoutingSpec(policy="least_loaded"),
            ).validate()

    def test_routing_without_groups(self):
        with pytest.raises(ConfigurationError, match="has no groups"):
            spec_with(services=(decl("svc"),)).validate()

    def test_groups_without_routing(self):
        with pytest.raises(ConfigurationError, match="needs a routing policy"):
            spec_with(
                groups=[GroupSpec(name="g0", services=(decl("svc"),))],
                routing=None,
            ).validate()

    @pytest.mark.parametrize("vnodes", [0, -3, True, "many"])
    def test_bad_vnodes(self, vnodes):
        with pytest.raises(ConfigurationError, match="vnodes"):
            spec_with(
                groups=[GroupSpec(name="g0", services=(decl("svc"),))],
                routing=RoutingSpec(
                    policy="consistent_hash", params={"vnodes": vnodes}
                ),
            ).validate()

    @pytest.mark.parametrize("name", ["", "a/b"])
    def test_invalid_group_name(self, name):
        with pytest.raises(ConfigurationError, match="invalid group name"):
            spec_with(
                groups=[GroupSpec(name=name, services=(decl("svc"),))]
            ).validate()

    def test_duplicate_group_name(self):
        groups = [
            GroupSpec(name="g0", services=(decl("a"),)),
            GroupSpec(name="g0", services=(decl("b"),)),
        ]
        with pytest.raises(ConfigurationError, match="duplicate group"):
            spec_with(groups=groups).validate()

    def test_top_level_services_need_consistent_hash(self):
        spec = spec_with(
            groups=[GroupSpec(name="g0", services=(decl("svc"),))],
            services=(decl("client"),),
        )
        with pytest.raises(ConfigurationError, match="consistent_hash"):
            spec.validate()
        spec_with(
            groups=[GroupSpec(name="g0", services=(decl("svc"),))],
            services=(decl("client"),),
            routing=RoutingSpec(policy="consistent_hash"),
        ).validate()

    def test_group_fault_must_name_in_group_service(self):
        groups = [
            GroupSpec(
                name="g0",
                services=(decl("a"),),
                faults=(FaultSpec(kind="crash", service="b", index=0),),
            ),
            GroupSpec(name="g1", services=(decl("b"),)),
        ]
        with pytest.raises(
            ConfigurationError, match="which the group does not declare"
        ):
            spec_with(groups=groups).validate()

    def test_group_link_fault_scoped_to_group_principals(self):
        fault = FaultSpec(
            kind="link", params={"src": "other/v0", "dst": "*", "drop": 0.5}
        )
        groups = [
            GroupSpec(name="g0", services=(decl("svc"),), faults=(fault,)),
            GroupSpec(name="g1", services=(decl("other"),)),
        ]
        # "other" exists — but in g1, so g0's link rule cannot see it.
        with pytest.raises(ConfigurationError, match="names no principal"):
            spec_with(groups=groups).validate()


def top_level_link_spec(params):
    """Two groups on one network, one top-level link rule."""
    return spec_with(
        groups=[
            GroupSpec(name="g0", services=(decl("svc"),)),
            GroupSpec(name="g1", services=(decl("other"),)),
        ],
        faults=(FaultSpec(kind="link", params=params),),
    )


class TestTopLevelLinkFaults:
    def test_sharded_top_level_link_fault_validates(self):
        # One network carries every group, so a top-level rule may cut a
        # link between two of them.
        top_level_link_spec(
            {"src": "svc/v0", "dst": "other/d3", "drop": 1.0}
        ).validate()
        top_level_link_spec({"src": "*", "dst": "*"}).validate()

    def test_builder_keeps_a_cross_group_rule_top_level(self):
        spec = (
            ScenarioBuilder("cross-link")
            .service("a", n=4, app="echo", group="g0")
            .service("b", n=4, app="echo", group="g1")
            .link_fault("a/v0", "b/d1", drop=1.0)
            .link_fault("a/v0", "*", drop=0.5)
            .build()
        )
        assert [f.params["dst"] for f in spec.faults] == ["b/d1"]
        assert [f.params["dst"] for f in spec.groups[0].faults] == ["*"]

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"src": "*", "dst": "*", "loss": 0.5}, "unknown params"),
            ({"src": "ghost/v0", "dst": "*"}, "names no principal"),
            ({"src": "other/v4", "dst": "*"}, "names no principal"),
            ({"src": "svc/v0", "dst": "other/v0", "drop": 1.5}, r"\[0, 1\]"),
        ],
        ids=["unknown-param", "unknown-service", "index-out-of-range", "drop"],
    )
    def test_malformed_top_level_link_fault(self, params, message):
        with pytest.raises(ConfigurationError, match=message):
            top_level_link_spec(params).validate()


class TestRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [sharded_echo_scenario(), sharded_tpcw_scenario()],
        ids=["sharded-echo", "sharded-tpcw"],
    )
    def test_sharded_presets_round_trip(self, spec):
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.groups == spec.groups
        assert restored.routing == spec.routing
        restored.validate()

    def test_document_without_sharding_keys_is_classic(self):
        spec = ScenarioSpec.from_dict(
            {"name": "classic", "services": [], "network": {"kind": "lan"}}
        )
        assert spec.groups == ()
        assert spec.routing is None
        assert not spec.is_sharded


class TestBuilderPartitioning:
    def build(self):
        return (
            ScenarioBuilder("builder-sharding")
            .routing("consistent_hash", vnodes=16)
            .service("g0-a", n=4, app="echo", group="g0")
            .service("g1-b", n=4, app="echo", group="g1")
            .service("g0-c", n=4, app="echo", group="g0")
            .service("client", n=2, app="sync_caller",
                     target="g0-a", total_calls=1)
            .crash("g1-b", 0)
            .link_fault("g0-c/v1", "*", drop=0.5)
            .delay("client", 0, delay_us=100)
            .build()
        )

    def test_groups_in_first_appearance_order(self):
        spec = self.build()
        assert [g.name for g in spec.groups] == ["g0", "g1"]
        assert [s.name for s in spec.groups[0].services] == ["g0-a", "g0-c"]
        assert spec.is_sharded
        assert spec.routing == RoutingSpec(
            policy="consistent_hash", params={"vnodes": 16}
        )

    def test_faults_assigned_to_owning_group(self):
        spec = self.build()
        by_group = {g.name: [f.kind for f in g.faults] for g in spec.groups}
        assert by_group == {"g0": ["link"], "g1": ["crash"]}
        # The client is top-level, so its fault stays top-level.
        assert [f.kind for f in spec.faults] == ["delay"]
        assert [f.kind for f in spec.all_faults()] == ["delay", "link", "crash"]

    def test_routing_defaults_to_service_name(self):
        spec = (
            ScenarioBuilder("default-routing")
            .service("svc", n=4, app="echo", group="g0")
            .build()
        )
        assert spec.routing == RoutingSpec()
        assert spec.routing.policy == "service_name"

    def test_lookup_helpers_cover_groups(self):
        spec = self.build()
        assert [s.name for s in spec.all_services()] == [
            "client", "g0-a", "g0-c", "g1-b",
        ]
        assert spec.group_of("g1-b") == "g1"
        assert spec.group_of("client") is None
        assert spec.service("g0-c").name == "g0-c"
        with pytest.raises(ConfigurationError, match="no service"):
            spec.service("missing")
