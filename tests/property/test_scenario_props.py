"""Property: ScenarioSpec -> to_json -> from_json is the identity.

The scenario document is the deployment contract shared by every
substrate — the CLI ships it to disk, the multi-process runtime ships it
to worker processes — so the JSON round trip must preserve every field,
including fault-injection and network-model structure and arbitrary
JSON-safe application parameters.
"""

from hypothesis import given, settings, strategies as st

from repro.scenario.spec import (
    AppSpec,
    FaultSpec,
    NetworkSpec,
    ScenarioBuilder,
    ScenarioSpec,
    ServiceDecl,
)

# JSON-safe values (dict keys must be strings; no NaN/inf, which JSON
# cannot express losslessly).
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=12),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=8), children, max_size=3),
    ),
    max_leaves=8,
)
json_params = st.dictionaries(st.text(min_size=1, max_size=10), json_values, max_size=4)

service_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=10
)


@st.composite
def service_decls(draw, name: str) -> ServiceDecl:
    n = draw(st.integers(min_value=1, max_value=7))
    hosts = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.text(min_size=1, max_size=8), min_size=n, max_size=n
            ).map(tuple),
        )
    )
    return ServiceDecl(
        name=name,
        n=n,
        app=AppSpec(kind=draw(st.text(min_size=1, max_size=10)),
                    params=draw(json_params)),
        crypto=draw(st.one_of(st.none(), st.sampled_from(["mac", "rsa-signature"]))),
        hosts=hosts,
        clbft=draw(st.one_of(st.none(), json_params)),
    )


networks = st.one_of(
    st.builds(
        NetworkSpec,
        kind=st.just("lan"),
        params=st.fixed_dictionaries(
            {},
            optional={
                "propagation_us": st.integers(0, 10_000),
                "ns_per_byte": st.integers(0, 100),
                "jitter_us": st.integers(0, 1000),
            },
        ),
    ),
    st.builds(
        NetworkSpec,
        kind=st.just("uniform"),
        params=st.fixed_dictionaries(
            {}, optional={"latency_us": st.integers(0, 100_000)}
        ),
    ),
)


@st.composite
def scenario_specs(draw) -> ScenarioSpec:
    names = draw(
        st.lists(service_names, min_size=1, max_size=4, unique=True)
    )
    services = tuple(draw(service_decls(name)) for name in names)
    crash_faults = st.builds(
        FaultSpec,
        kind=st.just("crash"),
        service=st.sampled_from(names),
        index=st.integers(0, 6),
        params=st.just({}),
    )
    link_faults = st.builds(
        FaultSpec,
        kind=st.just("link"),
        service=st.just(""),
        index=st.just(0),
        params=st.fixed_dictionaries(
            {
                "src": st.one_of(st.just("*"), service_names),
                "dst": st.one_of(st.just("*"), service_names),
            },
            optional={
                "drop": st.floats(0.0, 1.0, allow_nan=False),
                "extra_delay_us": st.integers(0, 50_000),
            },
        ),
    )
    byzantine_faults = st.builds(
        FaultSpec,
        kind=st.just("byzantine"),
        service=st.sampled_from(names),
        index=st.integers(0, 6),
        params=st.fixed_dictionaries(
            {"mode": st.sampled_from(["equivocate", "corrupt", "mute"])}
        ),
    )
    delay_faults = st.builds(
        FaultSpec,
        kind=st.just("delay"),
        service=st.sampled_from(names),
        index=st.integers(0, 6),
        params=st.fixed_dictionaries(
            {"delay_us": st.integers(1, 1_000_000)},
            optional={"jitter_us": st.integers(0, 100_000)},
        ),
    )
    partition_faults = st.builds(
        FaultSpec,
        kind=st.just("partition"),
        service=st.sampled_from(names),
        index=st.just(0),
        params=st.fixed_dictionaries(
            {
                "side": st.lists(st.integers(0, 6), min_size=1, max_size=3),
                "heal_after_us": st.integers(1, 10_000_000),
            },
            optional={"start_after_us": st.integers(0, 1_000_000)},
        ),
    )
    restart_faults = st.builds(
        FaultSpec,
        kind=st.just("restart"),
        service=st.sampled_from(names),
        index=st.integers(0, 6),
        params=st.fixed_dictionaries(
            {"up_after_us": st.integers(1, 10_000_000)},
            optional={"down_after_us": st.integers(0, 1_000_000)},
        ),
    )
    fault_specs = st.one_of(
        crash_faults, link_faults, byzantine_faults,
        delay_faults, partition_faults, restart_faults,
    )
    return ScenarioSpec(
        name=draw(st.text(min_size=1, max_size=16)),
        services=services,
        network=draw(networks),
        crypto=draw(st.sampled_from(["mac", "rsa-signature"])),
        crypto_params=draw(
            st.one_of(
                st.none(),
                st.fixed_dictionaries(
                    {
                        "sign_us": st.integers(0, 10_000),
                        "verify_us": st.integers(0, 10_000),
                        "per_receiver_us": st.integers(0, 100),
                    }
                ),
            )
        ),
        faults=tuple(draw(st.lists(fault_specs, max_size=3))),
        duration_s=draw(
            st.floats(min_value=0.0, max_value=1e6,
                      allow_nan=False, allow_infinity=False)
        ),
        seed=draw(st.integers(min_value=0, max_value=2**31)),
        max_events=draw(st.one_of(st.none(), st.integers(0, 2**31))),
    )


@settings(max_examples=150, deadline=None)
@given(scenario_specs())
def test_scenario_spec_json_round_trip(spec):
    assert ScenarioSpec.from_json(spec.to_json()) == spec


@settings(max_examples=60, deadline=None)
@given(scenario_specs())
def test_scenario_spec_dict_round_trip(spec):
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


def test_builder_output_round_trips_with_faults_and_network():
    spec = (
        ScenarioBuilder("round-trip")
        .network("lan", propagation_us=170, jitter_us=25)
        .crypto("bespoke", sign_us=500, verify_us=50, per_receiver_us=2)
        .service("target", n=4, app="echo")
        .service("caller", n=4, app="sync_caller",
                 target="target", total_calls=9,
                 body={"cpu_us": 2000}, timeout_ms=750)
        .crash("target", 3)
        .link_fault("caller/d0", "*", drop=0.25, extra_delay_us=500)
        .duration(33.5)
        .seed(7)
        .max_events(1_000_000)
        .build()
    )
    restored = ScenarioSpec.from_json(spec.to_json())
    assert restored == spec
    assert restored.faults[0].kind == "crash"
    assert restored.faults[1].params["drop"] == 0.25
    assert restored.network.params["jitter_us"] == 25
    assert restored.crypto_params == {
        "sign_us": 500, "verify_us": 50, "per_receiver_us": 2,
    }
    assert restored.service("caller").app.params["timeout_ms"] == 750
