"""Integration (sim): up to f faults cost about one timeout, not one per call.

The responder of a call is ``seqno % n``, so before calling drivers
suspected silent voters every n-th call named a dead target replica and
waited out the 250 ms retransmission timer: a 4x4 echo of 200 calls with
one crashed target backup finished 20x later than fault-free. Each run
below is deterministic on the sim. The bounds are on the caller's last
completion:

- a crash or a mute Byzantine replica at any non-primary position:
  at most 1.5x the fault-free run;
- a crashed target primary (the backups' 500 ms view-change timer is
  paid once): at most 3.5x the fault-free run;
- a crashed or mute caller primary and a mute target primary: no worse
  than before suspicion, in absolute virtual time (1,189,926 us,
  1,167,120 us and 1,462,131 us). These positions cost a view change,
  not responder timeouts, so their completion is timer-bound: a cheaper
  codec shortens the fault-free run and every faulty run by the same
  few milliseconds, which raises their ratio to it without making any
  of them slower.

The TPC-W case bounds retransmissions per bank call with a dead bank
backup. The window-batching case pins the fix of a retransmitted stage-1
copy that rode a batch without its proof and was rejected at every
backup, for 100+ view changes and aborted calls.
"""

import pytest

from repro.scenario.presets import tpcw_scenario, two_tier_scenario
from repro.scenario.runtime import run_scenario
from repro.scenario.spec import FaultSpec

CALLS = 200

#: (service, replica, fault) -> bound on last completion, in virtual µs:
#: the completions measured before drivers suspected silent responders.
NO_WORSE_THAN_BEFORE_US = {
    ("caller", 0, "crash"): 1_189_926,
    ("caller", 0, "mute"): 1_167_120,
    ("target", 0, "mute"): 1_462_131,
}
TARGET_PRIMARY_CRASH = 3.5
NON_PRIMARY = 1.5

POSITIONS = [
    (service, index, fault)
    for service in ("caller", "target")
    for index in range(4)
    for fault in ("crash", "mute")
]


def with_fault(spec, service, index, fault):
    if fault == "crash":
        injected = FaultSpec("crash", service, index)
    else:
        injected = FaultSpec("byzantine", service, index, {"mode": "mute"})
    return spec.with_(faults=spec.faults + (injected,))


def echo_spec(**kwargs):
    return two_tier_scenario(4, 4, total_calls=CALLS, **kwargs)


@pytest.fixture(scope="module")
def fault_free_us():
    caller = run_scenario(echo_spec(), runtime="sim", until_s=60).services[
        "caller"
    ]
    assert caller.completed_calls == CALLS
    return caller.last_completion_us


@pytest.mark.parametrize(
    "service,index,fault", POSITIONS,
    ids=[f"{fault}-{service}{index}" for service, index, fault in POSITIONS],
)
def test_one_faulty_replica_costs_about_one_timeout(
    fault_free_us, service, index, fault
):
    spec = with_fault(echo_spec(), service, index, fault)
    caller = run_scenario(spec, runtime="sim", until_s=60).services["caller"]
    assert caller.completed_calls == CALLS
    assert caller.aborted_calls == 0
    if (service, index, fault) in NO_WORSE_THAN_BEFORE_US:
        bound_us = NO_WORSE_THAN_BEFORE_US[(service, index, fault)]
    elif (service, index) == ("target", 0):
        bound_us = TARGET_PRIMARY_CRASH * fault_free_us
    else:
        bound_us = NON_PRIMARY * fault_free_us
    assert caller.last_completion_us <= bound_us


def test_dead_bank_backup_retransmits_for_few_bank_calls():
    spec = with_fault(
        tpcw_scenario(rbe_count=4, n_pge=4, n_bank=4, think_time_mean_us=0,
                      seed=7, duration_s=10),
        "bank", 1, "crash",
    )
    metrics = run_scenario(spec, runtime="sim", until_s=10)
    bank_calls = metrics.services["bank"].delivered_requests
    assert bank_calls > 0
    assert metrics.counters["retransmissions"] * 2 <= bank_calls


def test_window_batched_retransmission_keeps_its_proof():
    # A dead backup makes callers retransmit to the whole target group;
    # under window batching those copies must still reach the primary
    # with an authenticator every target voter can check.
    spec = with_fault(
        echo_spec(window=10, batching=2000), "target", 1, "crash"
    )
    metrics = run_scenario(spec, runtime="sim", until_s=120)
    caller = metrics.services["caller"]
    assert caller.completed_calls == CALLS
    assert caller.aborted_calls == 0
    assert metrics.services["target"].view_changes == 0
    assert metrics.counters["view_changes"] == 0
