"""Unit tests for the scenario spec, builder, registry, and presets."""

import pytest

from repro.common.errors import ConfigurationError
from repro.crypto.cost import MAC_COST_MODEL, SIGNATURE_COST_MODEL
from repro.scenario.apps import (
    app_kinds,
    build_app,
    register_cost_model,
    resolve_cost_model,
)
from repro.scenario.presets import (
    PRESETS,
    echo_parity_scenario,
    orchestration_scenario,
    preset,
    tpcw_scenario,
    two_tier_scenario,
)
from repro.scenario.spec import (
    AppSpec,
    FaultSpec,
    ScenarioBuilder,
    ScenarioSpec,
    ServiceDecl,
)


class TestBuilder:
    def test_builds_declared_services_in_order(self):
        spec = (
            ScenarioBuilder("b1")
            .service("target", n=4, app="echo")
            .service("caller", n=7, app="sync_caller",
                     target="target", total_calls=3)
            .build()
        )
        assert [s.name for s in spec.services] == ["target", "caller"]
        assert spec.service("caller").n == 7
        assert spec.service("caller").app.kind == "sync_caller"
        assert spec.service("caller").app.params["total_calls"] == 3

    def test_network_crypto_duration_seed(self):
        spec = (
            ScenarioBuilder("b2")
            .network("uniform", latency_us=50)
            .crypto("rsa-signature")
            .duration(12.5)
            .seed(99)
            .service("svc", n=1, app="echo")
            .build()
        )
        assert spec.network.kind == "uniform"
        assert spec.network.params == {"latency_us": 50}
        assert spec.crypto == "rsa-signature"
        assert spec.duration_s == 12.5
        assert spec.seed == 99

    def test_duplicate_service_rejected(self):
        builder = ScenarioBuilder("b3").service("svc", n=1, app="echo")
        with pytest.raises(ConfigurationError):
            builder.service("svc", n=2, app="echo").build()

    def test_zero_replicas_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioBuilder("b4").service("svc", n=0, app="echo").build()

    def test_crash_fault_out_of_range_rejected(self):
        builder = (
            ScenarioBuilder("b5").service("svc", n=2, app="echo").crash("svc", 5)
        )
        with pytest.raises(ConfigurationError):
            builder.build()

    def test_host_count_must_match_replication(self):
        with pytest.raises(ConfigurationError):
            ScenarioBuilder("b6").service(
                "svc", n=3, app="echo", hosts=["h0"]
            ).build()

    def test_unknown_network_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            (
                ScenarioBuilder("b7")
                .network("carrier-pigeon")
                .service("svc", n=1, app="echo")
                .build()
            )


class TestSpecLookups:
    def test_unknown_service_raises(self):
        spec = ScenarioSpec(name="s", services=())
        with pytest.raises(ConfigurationError):
            spec.service("ghost")

    def test_with_replaces_fields(self):
        spec = echo_parity_scenario(n=2, total_calls=3)
        faulted = spec.with_(faults=(FaultSpec(kind="crash",
                                               service="target", index=0),))
        assert faulted.faults[0].service == "target"
        assert spec.faults == ()

    def test_malformed_json_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_json("{not json")
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_json('{"services": []}')  # no name

    @pytest.mark.parametrize(
        "extra, named",
        [
            ({"groups": [{"name": "g0", "services": []}]}, "'groups'"),
            ({"routing": None, "batchng": "tick"}, "'batchng', 'routing'"),
        ],
        ids=["groups", "misspelt"],
    )
    def test_unknown_top_level_keys_rejected(self, extra, named):
        # A key the spec does not know would otherwise be dropped without
        # a word, and the run would differ from what the document says.
        document = echo_parity_scenario(n=1, total_calls=1).to_dict()
        with pytest.raises(ConfigurationError, match=f"unknown keys \\[{named}\\]"):
            ScenarioSpec.from_dict(dict(document, **extra))
        assert ScenarioSpec.from_dict(document).to_dict() == document


class TestAppRegistry:
    def test_known_kinds_present(self):
        kinds = app_kinds()
        for kind in ("echo", "counter", "digest", "sync_caller",
                     "async_caller", "bank", "pge", "bookstore", "rbe",
                     "orchestrator", "inventory", "shipping"):
            assert kind in kinds

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            build_app(AppSpec(kind="nonesuch"))

    def test_missing_required_params_rejected_as_configuration_error(self):
        with pytest.raises(ConfigurationError, match="sync_caller"):
            build_app(AppSpec(kind="sync_caller", params={"total_calls": 2}))

    def test_sync_caller_probe_counts_completions(self):
        built = build_app(
            AppSpec(kind="sync_caller", params={"target": "t", "total_calls": 2})
        )
        assert built.probe() == {"completed": 0, "faults": 0}

    def test_cost_model_resolution(self):
        assert resolve_cost_model("mac") is MAC_COST_MODEL
        assert resolve_cost_model("rsa-signature") is SIGNATURE_COST_MODEL
        assert register_cost_model(SIGNATURE_COST_MODEL) == "rsa-signature"
        with pytest.raises(ConfigurationError):
            resolve_cost_model("one-time-pad")

    def test_cost_model_from_explicit_params(self):
        # A spec carrying crypto_params builds the model without the
        # process-local registry — what spawned workers rely on.
        model = resolve_cost_model(
            "bespoke", {"sign_us": 9, "verify_us": 3, "per_receiver_us": 1}
        )
        assert (model.name, model.sign_us, model.verify_us,
                model.per_receiver_us) == ("bespoke", 9, 3, 1)
        with pytest.raises(ConfigurationError):
            resolve_cost_model("bespoke", {"sign_us": 9, "bogus": 1})


class TestPresets:
    def test_two_tier_shape(self):
        spec = two_tier_scenario(4, 7, total_calls=11, cpu_ms=6)
        assert spec.service("target").n == 7
        assert spec.service("target").app.kind == "digest"
        assert spec.service("caller").app.params["body"] == {"cpu_us": 6000}
        # Null-op cells target the increment service.
        null_spec = two_tier_scenario(1, 1, total_calls=5)
        assert null_spec.service("target").app.kind == "counter"

    def test_two_tier_async_explicit_even_at_window_1(self):
        spec = two_tier_scenario(4, 4, window=1, asynchronous=True)
        assert spec.service("caller").app.kind == "async_caller"
        assert spec.service("caller").app.params["window"] == 1

    def test_tpcw_shape(self):
        spec = tpcw_scenario(rbe_count=5, n_pge=4, seed=3)
        names = [s.name for s in spec.services]
        assert names[:3] == ["bank", "pge", "bookstore"]
        assert sum(name.startswith("rbe") for name in names) == 5
        # "All the RBEs were executed within a single host."
        assert spec.service("rbe0").hosts == ("rbe-host",)
        assert spec.service("bank").n == 4
        assert spec.service("bookstore").app.params["seed"] == 3

    def test_orchestration_shape(self):
        spec = orchestration_scenario(n=4)
        assert spec.service("orchestrator").app.kind == "orchestrator"
        assert len(spec.service("orchestrator").app.params["orders"]) == 4
        assert spec.service("shipping").n == 1

    def test_every_preset_builds_and_round_trips(self):
        for name in PRESETS:
            spec = preset(name)
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            preset("fig13")


class TestServiceDecl:
    def test_defaults(self):
        decl = ServiceDecl(name="svc", n=1, app=AppSpec(kind="echo"))
        assert decl.crypto is None
        assert decl.hosts is None
        assert decl.clbft is None


def fault_builder(n=4):
    return (
        ScenarioBuilder("fault-validation")
        .service("target", n=n, app="echo")
        .service("caller", n=1, app="sync_caller",
                 target="target", total_calls=1)
    )


class TestLinkFaultValidation:
    def test_unknown_param_key_rejected(self):
        builder = fault_builder().link_fault("caller/d0", "*", dorp=0.5)
        with pytest.raises(ConfigurationError, match="unknown params"):
            builder.build()

    def test_endpoint_must_name_a_declared_principal(self):
        for endpoint in ("caller", "ghost/v0", "target/v9", "target/x0"):
            builder = fault_builder().link_fault(endpoint, "*")
            with pytest.raises(ConfigurationError, match="principal"):
                builder.build()

    def test_wildcard_and_in_range_principals_accepted(self):
        spec = (
            fault_builder()
            .link_fault("*", "target/v3", drop=1.0)
            .link_fault("caller/d0", "*", extra_delay_us=0)
            .build()
        )
        assert len(spec.faults) == 2

    def test_drop_probability_bounds(self):
        for drop in (-0.1, 1.5, "half"):
            builder = fault_builder().link_fault("*", "*", drop=drop)
            with pytest.raises(ConfigurationError, match="drop"):
                builder.build()

    def test_negative_extra_delay_rejected(self):
        builder = fault_builder().link_fault("*", "*", extra_delay_us=-5)
        with pytest.raises(ConfigurationError, match="extra_delay_us"):
            builder.build()


class TestReplicaFaultValidation:
    def test_unknown_fault_kind_rejected(self):
        spec = fault_builder().build()
        bad = spec.with_(faults=(FaultSpec(kind="gremlin", service="target"),))
        with pytest.raises(ConfigurationError, match="gremlin"):
            bad.validate()

    def test_unknown_byzantine_mode_rejected(self):
        builder = fault_builder().byzantine("target", 0, mode="lazy")
        with pytest.raises(ConfigurationError, match="byzantine mode"):
            builder.build()

    def test_byzantine_needs_fault_tolerant_group(self):
        builder = fault_builder(n=3).byzantine("target", 0)
        with pytest.raises(ConfigurationError, match="n >= 4"):
            builder.build()

    def test_index_out_of_range_rejected_for_each_kind(self):
        for builder in (
            fault_builder().byzantine("target", 4),
            fault_builder().delay("target", -1, delay_us=100),
            fault_builder().restart("target", 9, up_after_us=100),
        ):
            with pytest.raises(ConfigurationError, match="out of range"):
                builder.build()

    def test_delay_needs_positive_integer_delay(self):
        for delay_us in (0, -100, 1.5):
            spec = fault_builder().build().with_(faults=(
                FaultSpec(kind="delay", service="target", index=0,
                          params={"delay_us": delay_us}),
            ))
            with pytest.raises(ConfigurationError, match="delay_us"):
                spec.validate()

    def test_delay_jitter_must_be_non_negative(self):
        builder = fault_builder().delay("target", 0, delay_us=10, jitter_us=-1)
        with pytest.raises(ConfigurationError, match="jitter_us"):
            builder.build()

    def test_partition_side_must_be_proper_in_range_subset(self):
        cases = [
            ([], "non-empty"),
            ([0, 4], "out of range"),
            ([0, 1, 2, 3], "proper subset"),
        ]
        for side, message in cases:
            builder = fault_builder().partition(
                "target", side, heal_after_us=1000
            )
            with pytest.raises(ConfigurationError, match=message):
                builder.build()

    def test_partition_window_must_be_ordered(self):
        builder = fault_builder().partition(
            "target", [0], heal_after_us=100, start_after_us=100
        )
        with pytest.raises(ConfigurationError, match="heal_after_us"):
            builder.build()

    def test_restart_window_must_be_ordered(self):
        builder = fault_builder().restart(
            "target", 0, up_after_us=50, down_after_us=50
        )
        with pytest.raises(ConfigurationError, match="up_after_us"):
            builder.build()

    def test_fault_on_unknown_service_rejected(self):
        builder = fault_builder().byzantine("ghost", 0)
        with pytest.raises(ConfigurationError, match="ghost"):
            builder.build()

    def test_new_fault_kinds_round_trip_through_json(self):
        spec = (
            fault_builder()
            .byzantine("target", 0, mode="mute")
            .delay("target", 1, delay_us=250, jitter_us=40)
            .partition("target", [3], heal_after_us=2_000_000,
                       start_after_us=500_000)
            .restart("target", 2, up_after_us=800_000, down_after_us=100_000)
            .build()
        )
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert [f.kind for f in restored.faults] == [
            "byzantine", "delay", "partition", "restart",
        ]
        # The restored document revalidates cleanly (what the process
        # substrate's workers do with the spawn-payload JSON).
        restored.validate()
