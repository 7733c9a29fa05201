"""Ablation: MAC vs digital-signature authentication.

The paper's section 3 argument for MACs ("three orders of magnitude
faster" than signatures, hence better scaling to large replica groups),
made measurable: the identical two-tier benchmark under both cost models.
"""

import pytest

from benchmarks.conftest import print_series
from repro.crypto.cost import MAC_COST_MODEL, SIGNATURE_COST_MODEL
from repro.experiments.ablations import crypto_ablation
from repro.transport.channel import ChannelAdapter

GROUP_SIZES = (1, 4, 7)


@pytest.fixture(scope="module")
def rows():
    return crypto_ablation(group_sizes=GROUP_SIZES, total_calls=40)


def test_ablation_series(rows, benchmark):
    lines = benchmark(
        lambda: [
            f"n={row.n:<3d} MAC {row.mac_rps:8.1f} req/s   "
            f"signatures {row.signature_rps:8.1f} req/s   "
            f"slowdown {row.slowdown:5.2f}x"
            for row in rows
        ]
    )
    print_series("Ablation: MAC vs digital-signature authentication", lines)
    assert all(row.signature_rps < row.mac_rps for row in rows)


def test_signatures_slower_everywhere(rows):
    for row in rows:
        assert row.signature_rps < row.mac_rps


def test_signature_penalty_grows_with_group_size(rows):
    """The scalability argument, with expectations derived from the cost
    model rather than hard-coded series.

    The throughput *ratio* saturates once fixed wire/CPU work dilutes the
    crypto term, so it is not monotone in ``n``. What the cost model does
    guarantee:

    - the absolute per-request time paid to signatures grows with the
      group (every extra replica adds signed envelopes to a request's
      critical path, each ``sign_us`` dearer than its MAC equivalent);
    - every measured penalty is at least one ``sign_us`` (each request
      crosses at least one signed envelope);
    - every slowdown exceeds the floor from swapping one envelope's
      verification from MAC to signature atop the fixed wire cost.
    """
    penalties_ms = [
        1000.0 / row.signature_rps - 1000.0 / row.mac_rps for row in rows
    ]
    assert penalties_ms == sorted(penalties_ms)
    floor_ms = SIGNATURE_COST_MODEL.sign_us / 1000.0
    assert all(p >= floor_ms for p in penalties_ms)
    wire_us = ChannelAdapter.DEFAULT_WIRE_CPU_US
    for row in rows:
        verify_floor = (wire_us + SIGNATURE_COST_MODEL.verification_cost_us()) / (
            wire_us
            + MAC_COST_MODEL.verification_cost_us()
            + MAC_COST_MODEL.per_receiver_us * row.n
        )
        assert row.slowdown > verify_floor


def test_benchmark_signature_cell(benchmark):
    from repro.crypto.cost import SIGNATURE_COST_MODEL
    from repro.experiments.microbench import run_two_tier

    result = benchmark.pedantic(
        lambda: run_two_tier(4, 4, total_calls=20,
                             cost_model=SIGNATURE_COST_MODEL),
        rounds=1,
        iterations=1,
    )
    assert result.completed == 20
