"""Integration: replicated-to-replicated interaction (Figure 1 end to end).

The probe behind the Figure 2 "interaction between replicated Web
Services" row: calling and target services at every paper replication
degree combination complete requests with consistent replica state.
"""

import gc
from collections import Counter

import pytest

from repro.clbft.messages import ClientRequest, PrePrepare
from repro.perpetual.messages import (
    OutRequest,
    ReplyBundle,
    ReplyForward,
    ResultSubmission,
)
from repro.scenario.sim import SimRuntime
from tests.integration.scripted import replies, run_sim, two_tier


@pytest.mark.parametrize(
    "nc,nt", [(1, 1), (1, 4), (4, 1), (4, 4), (4, 7), (7, 4)]
)
def test_degree_combinations(nc, nt):
    runtime = run_sim(two_tier(nc, nt, calls=5).build(), until_s=60)
    # Replica 0's driver completed every logical call exactly once.
    assert runtime._groups["caller"].drivers[0].completed_calls == 5
    # Every correct caller replica saw the identical reply set: nc
    # replicas each append 5 results (entries interleave across replicas),
    # so each counter value appears exactly nc times.
    results = replies(runtime)
    assert len(results) == nc * 5
    counts = Counter(r["counter"] for r in results)
    assert counts == {k: nc for k in range(1, 6)}


def test_target_state_consistent_across_replicas():
    runtime = run_sim(two_tier(4, 4, calls=8).build(), until_s=60)
    voters = runtime._groups["target"].voters
    # Each target voter delivered all 8 requests to its driver.
    for voter in voters:
        assert voter.delivered_requests == 8
    # And agreement executed identically everywhere.
    executed = [v.replica.executed_requests for v in voters]
    assert len(set(executed)) == 1


def test_exactly_once_despite_retransmissions():
    # Retransmit timers fire aggressively; execution must stay exactly-once.
    runtime = SimRuntime().deploy(two_tier(4, 4, calls=5, name="rtx").build())
    # Shrink the drivers' retransmit timeout below the request RTT so
    # every request is retransmitted at least once.
    for driver in runtime._groups["caller"].drivers:
        driver._retransmit_timeout_us = 2_000
    runtime.run(until_s=60)
    final = [r["counter"] for r in replies(runtime) if r != "FAULT"]
    assert max(final) == 5  # not 6+: no double execution


def test_throughput_counters_exposed():
    runtime = run_sim(two_tier(4, 4, calls=3).build(), until_s=60)
    driver = runtime._groups["caller"].drivers[0]
    assert driver.completed_calls == 3
    assert driver.first_issue_us is not None
    assert driver.last_completion_us > driver.first_issue_us


def test_full_watermark_window_resumes_at_the_next_stable_checkpoint():
    """A primary whose watermark window fills proposes again as soon as
    a stable checkpoint slides the window, not when the view-change
    timer replaces it. Window 10 against a log window of two seqnos
    with a checkpoint at every seqno keeps the target primary at its
    high watermark all run long."""
    from dataclasses import replace

    from repro.scenario.presets import two_tier_scenario
    from repro.scenario.runtime import get_runtime

    spec = two_tier_scenario(4, 4, total_calls=60, window=10, name="narrow-log")
    narrow = {"log_window": 2, "checkpoint_interval": 1}
    spec = spec.with_(
        services=tuple(replace(d, clbft=narrow) for d in spec.services)
    )
    runtime = get_runtime("sim")
    runtime.deploy(spec)
    runtime.run(until_s=60)
    metrics = runtime.metrics()
    caller = metrics.services["caller"]
    assert caller.completed_calls == 60
    assert metrics.counters["view_changes"] == 0
    assert metrics.counters["retransmissions"] == 0
    # 65,676 simulated µs; a stall until the view-change timer took 816,409.
    assert caller.last_completion_us < 100_000


def test_a_finished_run_pins_no_protocol_message():
    # Values derived from a message (decodes, digests, match keys) live on
    # the message, so once the run and its metrics are dropped nothing
    # process-global keeps a message of it alive.
    kinds = (OutRequest, ClientRequest, ResultSubmission, ReplyForward,
             ReplyBundle, PrePrepare)

    def live():
        return [o for o in gc.get_objects() if type(o) in kinds]

    gc.collect()
    earlier = live()  # held, so no id of theirs is reused below
    seen = {id(o) for o in earlier}
    runtime = run_sim(two_tier(4, 4, calls=40).build(), until_s=60)
    metrics = runtime.metrics()
    assert metrics.services["caller"].completed_calls == 40
    del runtime, metrics
    gc.collect()
    pinned = Counter(type(o).__name__ for o in live() if id(o) not in seen)
    assert pinned == {}
