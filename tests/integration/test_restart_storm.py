"""Integration (sim): a primary restart must not end in a view-change storm.

The scenario is the benchmark's ``failover`` shape at 200 calls: the
target group's view-0 primary drops out at 0.6 s and returns at 1.0 s of
a sync 4x4 counter loop on the LAN model, whose links are not FIFO.
Before next-view traffic was stashed, the new primary's first pre-prepare
overtook its NEW-VIEW at the backups still changing view, was dropped,
and nothing re-sent it; every later view repeated the loss: 608 view
changes, 331 retransmissions, one aborted call, the last completion at
110 virtual seconds. The run is deterministic, so this pins the fix.
"""

from repro.scenario.runtime import run_scenario
from repro.scenario.spec import ScenarioBuilder

CALLS = 200


def restart_storm_spec():
    return (
        ScenarioBuilder("restart-storm")
        .seed(3)
        .duration(2.0)
        .service("target", n=4, app="counter")
        .service(
            "caller", n=4, app="sync_caller", target="target",
            total_calls=CALLS, body={"nonce": "fd3feb3c9250b797"},
        )
        .restart("target", 0, up_after_us=1_000_000, down_after_us=600_000)
        .build()
    )


def test_primary_restart_settles_in_one_view_change():
    metrics = run_scenario(restart_storm_spec(), runtime="sim", until_s=600)
    caller = metrics.services["caller"]
    target = metrics.services["target"]
    assert caller.completed_calls == CALLS
    assert caller.aborted_calls == 0
    # One view change per replica (the rejoiner's included), not 152.
    assert 1 <= target.view_changes < 10
    assert metrics.counters["view_changes"] < 10 * target.n
    # The restarted replica ends in the group's view.
    assert target.view_lag == 0
    assert metrics.counters["retransmissions"] < 20
    assert caller.last_completion_us < 5_000_000
