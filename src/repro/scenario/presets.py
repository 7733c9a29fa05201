"""Canonical scenario presets: every experiment as a ScenarioSpec.

These builders replace the hand-wiring the figure generators, the TPC-W
harness, and the demos used to do against the simulator directly. Each
returns a plain :class:`~repro.scenario.spec.ScenarioSpec`, so any preset
runs on any substrate (``sim`` / ``threaded`` / ``process``) and can be
dumped to JSON for ``python -m repro.experiments run --scenario``.

``PRESETS`` maps short names to zero-argument builders for the CLI.
"""

from __future__ import annotations

from typing import Callable

from repro.scenario.spec import FaultSpec, ScenarioBuilder, ScenarioSpec

#: Simulated-time budget of the micro-benchmarks (they end at quiescence).
MICROBENCH_DURATION_S = 600.0

#: The saga batch of the orchestration demo (examples/soa_orchestration.py).
DEMO_ORDERS = [
    {"order_id": 101, "item": "laptop", "qty": 1, "card": "4-alice",
     "amount_cents": 120_000},
    {"order_id": 102, "item": "laptop", "qty": 5, "card": "4-bob",
     "amount_cents": 600_000},   # not enough stock
    {"order_id": 103, "item": "phone", "qty": 1, "card": "4-carol",
     "amount_cents": 80_000_00},  # card limit exceeded -> compensation
    {"order_id": 104, "item": "phone", "qty": 1, "card": "4-dave",
     "amount_cents": 70_000},
]


def two_tier_scenario(
    n_calling: int,
    n_target: int,
    total_calls: int = 150,
    window: int = 1,
    cpu_ms: int = 0,
    crypto: str = "mac",
    crypto_params: dict | None = None,
    duration_s: float = MICROBENCH_DURATION_S,
    asynchronous: bool | None = None,
    batching: str | int = "off",
    name: str | None = None,
) -> ScenarioSpec:
    """The section 6.2 micro-benchmark pair (Figures 7, 8, and 9).

    ``cpu_ms == 0`` targets the increment null-operation service, positive
    values the digest service burning that much CPU per request.
    ``asynchronous`` selects the windowed caller of Figure 9 explicitly —
    the Figure 9 sweep uses it even at window=1, so its baseline exercises
    the same send/receive pattern as the rest of the series; the default
    picks it whenever ``window > 1``. ``batching`` is the channel-layer
    batching knob (``"off"`` | ``"tick"`` | window µs) — see
    ``docs/scenarios.md``.
    """
    if asynchronous is None:
        asynchronous = window > 1
    body = {"cpu_us": cpu_ms * 1000} if cpu_ms > 0 else {}
    builder = (
        ScenarioBuilder(name or f"micro-{n_calling}-{n_target}-{window}-{cpu_ms}")
        .crypto(crypto, **(crypto_params or {}))
        .duration(duration_s)
        .batching(batching)
        .service("target", n=n_target, app="digest" if cpu_ms > 0 else "counter")
    )
    if asynchronous:
        builder.service(
            "caller", n=n_calling, app="async_caller",
            target="target", total_calls=total_calls, window=window, body=body,
        )
    else:
        builder.service(
            "caller", n=n_calling, app="sync_caller",
            target="target", total_calls=total_calls, body=body,
        )
    return builder.build()


def echo_parity_scenario(
    n: int = 4,
    total_calls: int = 6,
    name: str | None = None,
    duration_s: float = 60.0,
    batching: str | int = "off",
) -> ScenarioSpec:
    """A small echo scenario used to assert substrate parity (n=4, f=1)."""
    return (
        ScenarioBuilder(name or f"echo-parity-{n}-{total_calls}")
        .duration(duration_s)
        .batching(batching)
        .service("target", n=n, app="echo")
        .service("caller", n=n, app="sync_caller",
                 target="target", total_calls=total_calls)
        .build()
    )


def tpcw_scenario(
    rbe_count: int,
    n_pge: int,
    n_bank: int | None = None,
    duration_s: float = 60.0,
    synchronous_pge: bool = False,
    synchronous_bookstore_pge_calls: bool | None = None,
    think_time_mean_us: int = 7_000_000,
    seed: int = 11,
    mix: dict | None = None,
    name: str | None = None,
) -> ScenarioSpec:
    """The Figure 5 / Figure 6 chain: RBEs -> bookstore -> PGE -> bank.

    ``n_bank`` defaults to ``n_pge`` (the paper replicates both tiers
    equally); ``mix`` optionally overrides the TPC-W interaction mix as
    ``{"name": ..., "weights": [[page, weight], ...]}``.
    """
    if n_bank is None:
        n_bank = n_pge
    if synchronous_bookstore_pge_calls is None:
        synchronous_bookstore_pge_calls = synchronous_pge
    builder = (
        ScenarioBuilder(
            name or f"tpcw-{rbe_count}-{n_pge}-{n_bank}-{synchronous_pge}"
        )
        .duration(duration_s)
        .seed(seed)
        .service("bank", n=n_bank, app="bank")
        .service("pge", n=n_pge, app="pge",
                 bank_endpoint="bank", synchronous=synchronous_pge)
        .service("bookstore", n=1, app="bookstore",
                 seed=seed, pge_endpoint="pge",
                 synchronous_pge=synchronous_bookstore_pge_calls)
    )
    # "All the RBEs were executed within a single host."
    for i in range(rbe_count):
        rbe_params = {
            "rbe_index": i,
            "bookstore_endpoint": "bookstore",
            "seed": seed,
            "think_time_mean_us": think_time_mean_us,
        }
        if mix is not None:
            rbe_params["mix"] = mix
        builder.service(f"rbe{i}", n=1, app="rbe",
                        hosts=["rbe-host"], **rbe_params)
    return builder.build()


def sharded_echo_scenario(
    group_count: int = 2,
    n: int = 4,
    total_calls: int = 6,
    duration_s: float = 60.0,
    name: str | None = None,
) -> ScenarioSpec:
    """Echo parity, sharded: one closed echo/caller pair per group.

    Group-closed (no cross-group calls); every substrate runs all groups
    side by side on one flat namespace, the simulator on one kernel. The
    2-group flavour is the fig10 representative cell.
    """
    builder = ScenarioBuilder(
        name or f"sharded-echo-{group_count}-{n}-{total_calls}"
    ).duration(duration_s)
    for g in range(group_count):
        group = f"g{g}"
        builder.service(f"{group}-target", n=n, app="echo", group=group)
        builder.service(
            f"{group}-caller", n=n, app="sync_caller",
            target=f"{group}-target", total_calls=total_calls, group=group,
        )
    return builder.build()


#: The TPC-W interaction classes the sharded preset partitions traffic
#: by: each class becomes one group's mix (page weights sum to 100).
#: Page names match repro.tpcw.interactions (string literals here to keep
#: presets importable from the tpcw harness without a cycle).
TPCW_INTERACTION_CLASSES: tuple[dict, ...] = (
    {
        "name": "browse",
        "weights": [
            ["home", 30],
            ["new_products", 20],
            ["best_sellers", 15],
            ["product_detail", 35],
        ],
    },
    {
        "name": "search",
        "weights": [
            ["search_request", 35],
            ["search_results", 35],
            ["shopping_cart", 20],
            ["customer_registration", 10],
        ],
    },
    {
        "name": "order",
        "weights": [
            ["buy_request", 30],
            ["buy_confirm", 30],
            ["order_inquiry", 20],
            ["order_display", 20],
        ],
    },
)


def sharded_tpcw_scenario(
    group_count: int = 3,
    rbes_per_group: int = 3,
    n_pge: int = 4,
    n_bank: int | None = None,
    duration_s: float = 40.0,
    think_time_mean_us: int = 7_000_000,
    seed: int = 11,
    name: str = "sharded-tpcw",
) -> ScenarioSpec:
    """TPC-W split by interaction class across independent BFT groups.

    Each group runs its own bank -> PGE -> bookstore chain plus an RBE
    population driving one interaction class (browse / search / order,
    cycled when ``group_count`` exceeds the classes) — the
    millions-of-users shape: aggregate throughput scales with the number
    of groups because every group orders, executes, and thinks
    independently. ``service_name`` routing pins every service to its
    group; the preset runs on all four substrates.
    """
    if n_bank is None:
        n_bank = n_pge
    builder = (
        ScenarioBuilder(name)
        .duration(duration_s)
        .seed(seed)
        .routing("service_name")
    )
    classes = TPCW_INTERACTION_CLASSES
    for g in range(group_count):
        group = f"g{g}"
        mix = classes[g % len(classes)]
        builder.service(f"{group}-bank", n=n_bank, app="bank", group=group)
        builder.service(
            f"{group}-pge", n=n_pge, app="pge", group=group,
            bank_endpoint=f"{group}-bank", synchronous=False,
        )
        builder.service(
            f"{group}-bookstore", n=1, app="bookstore", group=group,
            seed=seed + g, pge_endpoint=f"{group}-pge", synchronous_pge=False,
        )
        # One host per group's RBE population, as in the flat preset.
        for i in range(rbes_per_group):
            builder.service(
                f"{group}-rbe{i}", n=1, app="rbe", group=group,
                hosts=[f"{group}-rbe-host"],
                rbe_index=g * rbes_per_group + i,
                bookstore_endpoint=f"{group}-bookstore",
                seed=seed,
                think_time_mean_us=think_time_mean_us,
                mix=mix,
            )
    return builder.build()


def orchestration_scenario(
    orders: list[dict] | None = None,
    stock: dict[str, int] | None = None,
    card_limit_cents: int = 500_000,
    n: int = 4,
    duration_s: float = 180.0,
    name: str = "soa-orchestration",
) -> ScenarioSpec:
    """The SOA saga demo: replicated orchestrator over three services."""
    return (
        ScenarioBuilder(name)
        .duration(duration_s)
        .service("inventory", n=n, app="inventory",
                 stock=dict(stock if stock is not None
                            else {"laptop": 2, "phone": 1}))
        .service("payment", n=n, app="bank", card_limit_cents=card_limit_cents)
        .service("shipping", n=1, app="shipping")
        .service("orchestrator", n=n, app="orchestrator",
                 orders=list(orders if orders is not None else DEMO_ORDERS))
        .build()
    )


def chaos_equivocating_primary(
    rbe_count: int = 4,
    n_pge: int = 4,
    duration_s: float = 120.0,
    seed: int = 11,
    name: str = "chaos-equivocating-primary",
) -> ScenarioSpec:
    """TPC-W buy-heavy load with an equivocating PGE primary.

    Replica 0 of the PGE group sends conflicting pre-prepares to
    disjoint replica halves while it is primary: no digest can gather a
    prepared certificate, ordering stalls, the view-change timer fires,
    and the group completes a view change before serving the buy
    traffic. Every correct request still completes — the adversary costs
    latency, never safety.
    """
    buy_heavy = {
        "name": "buy-heavy",
        "weights": [["buy_request", 1], ["buy_confirm", 3]],
    }
    spec = tpcw_scenario(
        rbe_count=rbe_count,
        n_pge=n_pge,
        duration_s=duration_s,
        think_time_mean_us=200_000,
        seed=seed,
        mix=buy_heavy,
        name=name,
    )
    equivocate = FaultSpec(
        kind="byzantine", service="pge", index=0,
        params={"mode": "equivocate"},
    )
    return spec.with_(faults=spec.faults + (equivocate,)).validate()


def chaos_partition_heal(
    n: int = 4,
    total_calls: int = 12,
    heal_after_us: int = 2_000_000,
    duration_s: float = 120.0,
    name: str = "chaos-partition-heal",
) -> ScenarioSpec:
    """A minority partition that heals mid-run.

    Replica ``n - 1`` of the target group is cut off from its peers for
    the first ``heal_after_us``; the majority keeps ordering (quorums
    survive losing f replicas) and the isolated replica catches up from
    retransmissions and checkpoints after the heal.
    """
    return (
        ScenarioBuilder(name)
        .duration(duration_s)
        .service("target", n=n, app="echo")
        .service("caller", n=n, app="sync_caller",
                 target="target", total_calls=total_calls)
        .partition("target", [n - 1], heal_after_us=heal_after_us)
        .build()
    )


def chaos_slow_drip(
    n: int = 4,
    total_calls: int = 8,
    duration_s: float = 120.0,
    name: str = "chaos-slow-drip",
) -> ScenarioSpec:
    """A mute primary that forces at least one view change.

    Replica 0 of the target group swallows its own pre-prepares while
    primary, so no request is ordered until the backups' view-change
    timers expire and view 1 takes over.
    """
    return (
        ScenarioBuilder(name)
        .duration(duration_s)
        .service("target", n=n, app="echo")
        .service("caller", n=n, app="sync_caller",
                 target="target", total_calls=total_calls)
        .byzantine("target", 0, mode="mute")
        .build()
    )


def chaos_soak(
    n: int = 4,
    total_calls: int = 400,
    checkpoint_interval: int = 16,
    duration_s: float = 900.0,
    name: str = "chaos-soak",
) -> ScenarioSpec:
    """A bounded-memory soak: many requests over a small checkpoint K.

    Runs at least 10x ``checkpoint_interval`` requests through one
    group so checkpoint-driven GC must evict continuously; the voter's
    reply cache staying near K (instead of growing with the request
    count) is the assertable outcome.
    """
    return (
        ScenarioBuilder(name)
        .duration(duration_s)
        .service("target", n=n, app="echo",
                 clbft={"checkpoint_interval": checkpoint_interval})
        .service("caller", n=n, app="sync_caller",
                 target="target", total_calls=total_calls)
        .build()
    )


PRESETS: dict[str, Callable[[], ScenarioSpec]] = {
    "two-tier": lambda: two_tier_scenario(4, 4, total_calls=30, duration_s=120.0),
    "async-window": lambda: two_tier_scenario(
        4, 4, total_calls=40, window=10, duration_s=120.0
    ),
    "echo-parity": lambda: echo_parity_scenario(),
    "tpcw-small": lambda: tpcw_scenario(rbe_count=8, n_pge=4, duration_s=40.0),
    "sharded-echo": lambda: sharded_echo_scenario(),
    "sharded-tpcw": lambda: sharded_tpcw_scenario(),
    "orchestration": lambda: orchestration_scenario(),
    "chaos-equivocating-primary": chaos_equivocating_primary,
    "chaos-partition-heal": chaos_partition_heal,
    "chaos-slow-drip": chaos_slow_drip,
    "chaos-soak": chaos_soak,
}


def preset(name: str) -> ScenarioSpec:
    """Build the named preset scenario."""
    from repro.common.errors import ConfigurationError

    builder = PRESETS.get(name)
    if builder is None:
        raise ConfigurationError(
            f"unknown scenario preset {name!r} (known: {', '.join(sorted(PRESETS))})"
        )
    return builder()
