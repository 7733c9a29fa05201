"""Integration: channel-layer batching across scenarios and substrates.

Pins of channel-layer batching:

- ``batching="off"`` is bit-identical to the pre-batching goldens
  captured from PR 7 (``tests/data/golden_pr7_sim.json``) — every
  pre-existing counter, every service metric, and the finishing clock;
- ``batching="tick"`` on the windowed async workload genuinely
  aggregates (batches on the wire, fewer MAC verifications) while
  completing the identical workload;
- the same ``batching="tick"`` spec completes on every substrate — that
  parity run lives in the conformance matrix (``test_conformance.py``);
- a ``tick`` primary proposes once per tick, so on a real clock, where a
  tick is one mailbox drain, the items of one drain share a pre-prepare;
- ``delay`` and ``byzantine`` faults keep their per-message semantics
  when the channel batches (every message inside a batch is delayed;
  equivocation rewrites individual agreement messages above the batch).
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.scenario.presets import two_tier_scenario
from repro.scenario.runtime import get_runtime, run_scenario
from repro.scenario.spec import ScenarioBuilder
from tests.integration.conformance import run_on

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "data" / "golden_pr7_sim.json").read_text()
)


def assert_matches_golden(metrics, golden):
    data = asdict(metrics)
    # Counter comparison is restricted to keys the golden already has:
    # this PR added the batch counters, which must read zero when off but
    # are not part of the PR 7 snapshot.
    for key, expected in golden["counters"].items():
        assert data["counters"].get(key) == expected, key
    assert data["counters"]["batches_sent"] == 0
    assert data["counters"]["batch_messages"] == 0
    # Service comparison is likewise restricted to the golden's fields:
    # the sharding PR added ServiceMetrics.group, which must stay None on
    # unsharded runs but is not part of the PR 7 snapshot.
    assert set(data["services"]) == set(golden["services"])
    for name, golden_svc in golden["services"].items():
        for key, expected in golden_svc.items():
            assert data["services"][name].get(key) == expected, (name, key)
        assert data["services"][name]["group"] is None, name
    assert data["now_us"] == golden["now_us"]
    assert data["scenario"] == golden["scenario"]


class TestOffModeBitIdentical:
    def test_fig7_cell(self):
        metrics = run_scenario(
            two_tier_scenario(n_calling=4, n_target=4, total_calls=10),
            runtime="sim",
        )
        assert_matches_golden(metrics, GOLDEN["fig7_small"])

    def test_fig8_cell(self):
        metrics = run_scenario(
            two_tier_scenario(n_calling=4, n_target=4, total_calls=6, cpu_ms=6),
            runtime="sim",
        )
        assert_matches_golden(metrics, GOLDEN["fig8_small"])

    def test_fig9_async_cell(self):
        metrics = run_scenario(
            two_tier_scenario(n_calling=2, n_target=4, total_calls=8, window=4),
            runtime="sim",
        )
        assert_matches_golden(metrics, GOLDEN["fig9_async"])


class TestTickModeAggregates:
    def test_async_window_batches_and_saves_macs(self):
        base = two_tier_scenario(n_calling=2, n_target=4, total_calls=8, window=4)
        off = run_scenario(base, runtime="sim")
        tick = run_scenario(base.with_(batching="tick"), runtime="sim")

        # Identical workload outcome.
        assert tick.services["caller"].completed_calls == 8
        assert (
            tick.services["caller"].completed_calls
            == off.services["caller"].completed_calls
        )
        assert (
            tick.services["target"].requests_served
            == off.services["target"].requests_served
        )
        # Genuine aggregation: batches on the wire, each amortising its
        # single MAC vector over several messages...
        assert tick.counters["batches_sent"] > 0
        assert tick.counters["batch_messages"] > tick.counters["batches_sent"]
        # ...which is visible as strictly fewer MAC verifications.
        assert tick.counters["mac_verifications"] < off.counters["mac_verifications"]
        assert off.counters["batches_sent"] == 0

    def test_tick_mode_is_deterministic(self):
        spec = two_tier_scenario(
            n_calling=2, n_target=4, total_calls=8, window=4
        ).with_(batching="tick")
        a = run_scenario(spec, runtime="sim")
        b = run_scenario(spec, runtime="sim")
        assert asdict(a) == asdict(b)


class TestTickFoldsAgreement:
    def test_real_clock_primary_folds_a_drain_into_one_pre_prepare(self):
        calls = 200
        spec = two_tier_scenario(
            n_calling=4, n_target=4, total_calls=calls, window=10,
            batching="tick", name="tick-fold",
        )
        rt = get_runtime("asyncio")
        metrics = run_on(rt, spec)
        assert metrics.services["caller"].completed_calls == calls
        assert metrics.services["caller"].aborted_calls == 0
        assert metrics.counters["view_changes"] == 0
        primary = rt._groups["target"].voters[0].replica
        assert primary.is_primary
        assert primary.executed_requests == calls
        # Proposing inside submit gives one batch per item (ratio 1.0).
        assert primary.committed_batches <= 0.5 * primary.executed_requests

    @pytest.mark.parametrize("runtime", ["sim", "asyncio"])
    def test_unreplicated_target_strands_no_proposal(self, runtime):
        # n == 1: the primary commits and executes inside its own
        # proposal, so anything that execution submits must still be
        # proposed before the tick ends.
        calls = 40
        spec = two_tier_scenario(
            n_calling=4, n_target=1, total_calls=calls, window=10,
            batching="tick", name=f"tick-n1-{runtime}",
        )
        rt = get_runtime(runtime)
        metrics = run_on(rt, spec)
        assert metrics.services["caller"].completed_calls == calls
        assert metrics.services["caller"].aborted_calls == 0
        assert metrics.services["target"].requests_served == calls
        for group in rt._groups.values():
            for voter in group.voters:
                assert not voter.replica._pending


# Cross-substrate tick-batching parity moved to the conformance matrix
# (tests/integration/test_conformance.py, case "batching-window-4").


class TestFaultsApplyPerMessageInsideBatches:
    def test_delay_fault_defers_every_batched_message(self):
        def build(batching):
            return (
                ScenarioBuilder("batch-delay")
                .batching(batching)
                .service("target", n=4, app="counter")
                .service("caller", n=2, app="async_caller",
                         target="target", total_calls=8, window=4)
                .delay("target", 1, delay_us=2_000)
                .build()
            )

        off = run_scenario(build("off"), runtime="sim")
        tick = run_scenario(build("tick"), runtime="sim")
        # The delayed replica's sends — batched or not — all arrive late;
        # agreement still completes the full workload either way.
        assert off.counters["faults_injected"] > 0
        assert tick.counters["faults_injected"] > 0
        assert tick.services["caller"].completed_calls == 8
        assert off.services["caller"].completed_calls == 8
        assert tick.counters["batches_sent"] > 0

    def test_byzantine_equivocation_survives_batching(self):
        def build(batching):
            return (
                ScenarioBuilder("batch-byz")
                .batching(batching)
                .service("target", n=4, app="counter")
                .service("caller", n=1, app="sync_caller",
                         target="target", total_calls=4)
                .byzantine("target", 0, mode="equivocate")
                .duration(120)
                .build()
            )

        off = run_scenario(build("off"), runtime="sim")
        tick = run_scenario(build("tick"), runtime="sim")
        # Equivocation rewrites individual agreement multicasts above the
        # channel, so the per-message Byzantine behaviour (and the view
        # change recovering from it) is identical under batching.
        for metrics in (off, tick):
            assert metrics.counters["faults_injected"] > 0
            assert metrics.services["caller"].completed_calls == 4
        assert (
            tick.services["target"].view_changes
            == off.services["target"].view_changes
        )
