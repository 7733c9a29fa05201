"""Ablation: responder reply-bundling vs all-to-all replies.

Figure 1 stages 5-6 exist "to avoid the nt x nc messages that would
result from having all voters of t send replies to all drivers of c".
This ablation quantifies the reply-path message counts under both
designs across the paper's replication grid, and cross-checks the
responder path's measured message count in a live run.
"""

import pytest

from benchmarks.conftest import print_series
from repro.experiments.ablations import reply_path_ablation

GROUP_SIZES = (1, 4, 7, 10)


@pytest.fixture(scope="module")
def rows():
    return reply_path_ablation(GROUP_SIZES)


def test_ablation_series(rows, benchmark):
    rows = benchmark(lambda: reply_path_ablation(GROUP_SIZES))
    lines = [
        f"nt={row.n_target:<3d} nc={row.n_calling:<3d} "
        f"responder {row.responder_messages:>4d} msgs   "
        f"all-to-all {row.all_to_all_messages:>4d} msgs   "
        f"saving {row.savings_factor:4.1f}x"
        for row in rows
    ]
    print_series("Ablation: responder bundling vs all-to-all replies", lines)


def test_responder_never_worse_at_scale(rows):
    for row in rows:
        if row.n_target >= 4 and row.n_calling >= 4:
            assert row.responder_messages < row.all_to_all_messages


def test_saving_grows_quadratically(rows):
    small = next(r for r in rows if (r.n_target, r.n_calling) == (4, 4))
    large = next(r for r in rows if (r.n_target, r.n_calling) == (10, 10))
    assert large.savings_factor > small.savings_factor


def test_live_reply_path_message_count():
    """Measured: stage 5-6 traffic in a live 4x4 run matches the formula's
    order (nt + nc, not nt * nc)."""
    from repro.clbft.messages import decode_message
    from repro.perpetual.messages import ReplyBundle, ReplyForward
    from repro.transport.wire import WireEnvelope
    from repro.scenario.sim import Deployment
    from tests.integration.helpers import counter_service, scripted_caller

    deployment = Deployment(name="reply-count")
    deployment.declare("caller", 4)
    deployment.declare("target", 4)
    deployment.add_service("target", counter_service())
    results = []
    deployment.add_service("caller", scripted_caller("target", 1, results))

    reply_messages = [0]
    original_post = deployment.sim.post_message

    def counting_post(src, dst, msg, size_bytes):
        if isinstance(msg, WireEnvelope):
            try:
                decoded = decode_message(msg.payload)
            except Exception:
                decoded = None
            if isinstance(decoded, (ReplyForward, ReplyBundle)):
                reply_messages[0] += 1
        original_post(src, dst, msg, size_bytes)

    deployment.sim.post_message = counting_post
    deployment.run(seconds=30)
    assert results
    # Responder path: ~(nt - 1) forwards + nc bundles = 7, far below the
    # 16-message all-to-all mesh (retransmissions may add a few).
    assert reply_messages[0] <= 10, reply_messages[0]
