"""The benchmark's own arithmetic, on inputs with known answers.

Collected by the tier-1 run (``python -m pytest`` from the repository
root). One short real run at the end checks that the command prints
every end-to-end metric the contract declares.
"""

from __future__ import annotations

import json

import pytest

from bench.cli import Contract, main
from bench.estimator import (
    FLAG_ORDER,
    NS_PER_S,
    Sample,
    decode_samples,
    longest_gap_s,
    percentile,
    quiet_window,
    recovery_ratio,
    span_window,
)
from bench.trace import LAYERS, bucket_profile, layer_of

START = 5 * NS_PER_S  # an arbitrary perf_counter origin


def _bucket(index: int, count: int, latency_ms: float = 1.0, flags: int = 0):
    """``count`` completions spread inside one-second bucket ``index``."""
    step = NS_PER_S // (count + 1)
    return [
        Sample(START + index * NS_PER_S + (k + 1) * step, int(latency_ms * 1e6), flags)
        for k in range(count)
    ]


def _run(counts: list[int]) -> list[Sample]:
    return [s for i, n in enumerate(counts) for s in _bucket(i, n, latency_ms=i + 1)]


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 11)]
    assert percentile(values, 0.5) == 5.0
    assert percentile(values, 0.9) == 9.0
    assert percentile(values, 0.91) == 10.0
    assert percentile(values, 1.0) == 10.0
    assert percentile([7.0], 0.5) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_decode_samples_rejects_a_torn_list():
    assert decode_samples([1, 2, 3, 4, 5, 6]) == [Sample(1, 2, 3), Sample(4, 5, 6)]
    with pytest.raises(ValueError):
        decode_samples([1, 2, 3, 4])


def test_quiet_window_known_answer():
    # 11 whole buckets; the first three are warm-up however busy they are.
    counts = [999, 999, 999, 10, 50, 20, 40, 10, 10, 30, 10]
    window = quiet_window(_run(counts), START, START + 11 * NS_PER_S)
    # Eight candidates, a quarter of them kept: the two busiest.
    assert window.buckets == (4, 6)
    assert window.seconds == 2.0
    assert window.throughput_rps == 45.0
    # 50 samples at 5 ms and 40 at 7 ms pooled.
    assert window.latency_ms(0.5) == 5.0
    assert window.latency_ms(0.9) == 7.0


def test_quiet_window_bucket_edges_and_partial_tail():
    end = START + int(5.5 * NS_PER_S)
    samples = [
        Sample(START + 4 * NS_PER_S - 1, 1, 0),   # last ns of bucket 3
        Sample(START + 4 * NS_PER_S, 2, 0),       # first ns of bucket 4
        Sample(START + 5 * NS_PER_S, 3, 0),       # in the partial bucket 5
        Sample(START - 1, 4, 0),                  # before the run started
    ]
    window = quiet_window(samples, START, end)
    # Candidates are buckets 3 and 4, one kept; the tie goes to the earlier.
    assert window.buckets == (3,)
    assert [s.latency_ns for s in window.samples] == [1]


def test_quiet_window_with_empty_buckets_and_short_runs():
    # Nothing completed after warm-up: an empty window, not an error.
    idle = quiet_window(_run([5, 5, 5, 0, 0, 0, 0]), START, START + 7 * NS_PER_S)
    assert idle.samples == () and idle.throughput_rps == 0.0
    # A 4-second run keeps its one post-warm-up bucket.
    short = quiet_window(_run([9, 9, 9, 4]), START, START + 4 * NS_PER_S)
    assert short.buckets == (3,) and short.throughput_rps == 4.0
    # A 2-second run gives up warm-up rather than measure nothing.
    tiny = quiet_window(_run([9, 4]), START, START + 2 * NS_PER_S)
    assert tiny.buckets == (1,)
    with pytest.raises(ValueError):
        quiet_window([], START, START + NS_PER_S // 2)


def test_flagged_latency_falls_back_to_all_calls():
    plain = _bucket(0, 10, latency_ms=2.0)
    orders = _bucket(0, 4, latency_ms=20.0, flags=FLAG_ORDER)
    mixed = span_window(plain + orders, START, START + NS_PER_S)
    assert mixed.latency_ms(0.5, FLAG_ORDER) == 20.0
    assert mixed.count(FLAG_ORDER) == 4
    unflagged = span_window(plain, START, START + NS_PER_S)
    assert unflagged.latency_ms(0.5, FLAG_ORDER) == unflagged.latency_ms(0.5) == 2.0


def test_outage_and_recovery_around_a_fault():
    # 100/s for four seconds, silence for 1.5 s, then 10/s to the end.
    fault = START + 4 * NS_PER_S
    end = START + 12 * NS_PER_S
    samples = [Sample(START + k * NS_PER_S // 100, 1, 0) for k in range(1, 400)]
    resumed = fault + 3 * NS_PER_S // 2
    samples += [Sample(resumed + k * NS_PER_S // 10, 1, 0) for k in range(65)]
    gap = longest_gap_s(samples, fault, end)
    assert gap == pytest.approx(1.5, abs=0.02)
    # Last third of the run (4 s at 10/s) over seconds 2-4 (100/s).
    assert recovery_ratio(samples, START, fault, end) == pytest.approx(0.1, rel=0.03)
    # No completion at all after the fault: the gap is the whole span.
    assert longest_gap_s(samples[:399], fault, end) == pytest.approx(8.0, abs=0.02)


def test_layer_of_maps_files_to_packages():
    assert layer_of("/x/src/repro/clbft/replica.py") == "clbft"
    assert layer_of("/x/src/repro/common/encoding.py") == "common"
    assert layer_of("/x/src/repro/experiments/cli.py") is None
    assert layer_of("/x/src/repro/__init__.py") is None
    assert layer_of("/usr/lib/python3.11/asyncio/base_events.py") == "runtime"
    assert layer_of("/usr/lib/python3.11/json/encoder.py") is None
    assert layer_of("~") is None


def test_bucket_profile_charges_foreign_time_to_the_calling_layer():
    encode = ("/x/src/repro/common/encoding.py", 10, "canonical_encode")
    sign = ("/x/src/repro/crypto/auth.py", 20, "sign")
    dumps = ("/usr/lib/python3.11/json/__init__.py", 5, "dumps")
    c_encode = ("~", 0, "<built-in method c_make_encoder>")
    sha = ("~", 0, "<built-in method sha256>")
    orphan = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
    stats = {
        # (primitive calls, calls, self s, cumulative s, callers)
        encode: (4, 4, 1.0, 4.0, {}),
        sign: (2, 3, 2.0, 3.0, {}),
        # json.dumps is reached from the codec only; its own self time
        # and that of the C encoder beneath it belong to ``common``.
        dumps: (4, 4, 0.5, 3.0, {encode: (4, 4, 0.5, 3.0)}),
        c_encode: (4, 4, 2.5, 2.5, {dumps: (4, 4, 2.5, 2.5)}),
        # sha256 is called from both layers: split by the edges' self time.
        sha: (6, 6, 1.0, 1.0, {encode: (2, 2, 0.25, 0.25), sign: (4, 4, 0.75, 0.75)}),
        orphan: (1, 1, 0.125, 0.125, {}),
    }
    buckets = bucket_profile(stats)
    assert set(buckets) == set(LAYERS) | {"other"}
    assert buckets["common"] == (1.0 + 0.5 + 2.5 + 0.25, 4)
    assert buckets["crypto"] == (2.0 + 0.75, 3)
    assert buckets["other"] == (0.125, 0)
    assert buckets["clbft"] == (0.0, 0)
    assert sum(s for s, _ in buckets.values()) == sum(v[2] for v in stats.values())


def test_contract_and_workloads_agree():
    contract = Contract.load()
    assert "setup_s" in contract.end_to_end
    for layer in LAYERS:
        assert f"{layer}.self_ms_per_req" in contract.per_layer
        assert f"{layer}.calls_per_req" in contract.per_layer


def test_smoke_run_prints_every_end_to_end_metric(capsys):
    status = main(["--workload", "echo_sync", "--seconds", "4", "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert status == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    for name, declared in Contract.load().end_to_end.items():
        entry = result["metrics"][name]
        assert entry["unit"] == declared["unit"] and entry["value"] > 0
        assert any(
            line.split()[1:2] == [name] and declared["unit"] in line.split()
            for line in lines[:-1]
        ), name
