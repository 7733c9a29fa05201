"""Integration: a chaos preset on the sanitized threaded substrate.

``ThreadedRuntime(debug_locks=True)`` wraps the cluster's shared
structures in assert-owner proxies; driving a Byzantine preset through
it checks every ``guarded-by`` claim from the static lock pass under
genuinely racy interleavings — node workers, the timer wheel, and the
deploying thread all running at once. Any discipline violation raises
``LockDisciplineError`` into the worker's error list and fails the run.
"""

from repro.scenario.presets import chaos_slow_drip
from repro.scenario.threaded import ThreadedRuntime


def test_chaos_preset_completes_under_debug_locks():
    spec = chaos_slow_drip(
        total_calls=4, duration_s=45.0, name="drip-debug-locks"
    )
    rt = ThreadedRuntime(debug_locks=True)
    try:
        rt.deploy(spec)
        # The proxies are actually installed, not silently skipped.
        assert hasattr(rt.cluster.nodes, "_guard")
        assert hasattr(rt.cluster.dropped, "_guard")
        assert hasattr(rt.cluster.timers._entries, "_guard")
        assert all(hasattr(e, "_guard") for e in rt.cluster._errors.values())
        rt.run()
        metrics = rt.metrics()
        errors = rt.errors()
    finally:
        rt.shutdown()

    assert errors == []
    caller = metrics.services["caller"]
    assert caller.completed_calls == 4
    assert caller.aborted_calls == 0
    # The mute primary forces the liveness path (view change) through
    # the sanitized timer wheel.
    assert metrics.services["target"].view_changes >= 1
