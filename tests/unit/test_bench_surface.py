"""Tier-1 guard: what the benchmark package imports from ``repro`` exists.

``bench/`` changes only with the benchmark itself, so a change that
deletes or renames a name it uses would otherwise surface only when the
benchmark runs. Importing ``bench.cli`` pulls in ``bench.trace`` and
``bench.measure``; building the process runtime the way ``payload_proc``
does pins ``ProcessRuntime``'s keywords; ``direct_metrics`` calls every
stateless layer entry point the trace times.
"""

import math

from repro.scenario.process import ProcessRuntime


def test_bench_imports_and_builds_the_process_runtime():
    import bench.cli  # noqa: F401 — the import is the check
    from bench.measure import _make_runtime

    runtime = _make_runtime("process", 1.0)
    try:
        assert isinstance(runtime, ProcessRuntime)
    finally:
        runtime.shutdown()


def test_direct_metrics_time_every_layer_entry_point():
    from bench.trace import direct_metrics

    metrics = direct_metrics()
    assert len(metrics) == 22
    for name, value in metrics.items():
        assert math.isfinite(value) and value > 0, name
