"""CLBFT normal-case operation: three-phase agreement, batching, dedup."""

import pytest

from repro.clbft.messages import ClientRequest, Commit, PrePrepare, Prepare
from tests.unit.clbft.harness import Group


class TestUnreplicated:
    def test_n1_executes_immediately(self):
        group = Group(1)
        group.submit({"op": "x"})
        assert group.executed_ops(0) == [{"op": "x"}]


class TestThreePhase:
    def test_all_replicas_execute(self):
        group = Group(4)
        group.submit({"op": "a"})
        group.deliver_all()
        for i in range(4):
            assert group.executed_ops(i) == [{"op": "a"}]

    def test_total_order_consistent(self):
        group = Group(4)
        for k in range(10):
            group.submit({"k": k}, timestamp=k + 1)
        group.deliver_all()
        reference = group.executed_ops(0)
        assert len(reference) == 10
        for i in range(1, 4):
            assert group.executed_ops(i) == reference

    def test_exactly_once_execution(self):
        group = Group(4)
        request = group.submit({"op": "a"})
        group.deliver_all()
        # Resubmit the identical request (client retransmission).
        for replica in group.replicas:
            replica.submit(request)
        group.deliver_all()
        for i in range(4):
            assert group.executed_ops(i) == [{"op": "a"}]

    def test_message_flow_contains_all_phases(self):
        group = Group(4)
        group.submit({"op": "a"})
        group.deliver_all()
        kinds = {type(m).__name__ for _, _, m in group.bus.log}
        assert {"PrePrepare", "Prepare", "Commit"} <= kinds

    def test_larger_groups(self):
        for n in (7, 10):
            group = Group(n)
            group.submit({"op": "a"})
            group.deliver_all()
            for i in range(n):
                assert group.executed_ops(i) == [{"op": "a"}]


class TestBatching:
    def test_primary_batches_pending_requests(self):
        group = Group(4, batch_size=8)
        # Submit to backups only first so the primary receives them in one
        # burst via its own submission later.
        for k in range(8):
            group.submit({"k": k}, timestamp=k + 1)
        group.deliver_all()
        pre_prepares = [
            m for _, _, m in group.bus.log if isinstance(m, PrePrepare)
        ]
        # All 8 requests fit in few pre-prepares (batching happened).
        assert len({p.seqno for p in pre_prepares}) <= 8
        assert sum(len(p.requests) for p in pre_prepares if p.view == 0) >= 8

    def test_batch_size_one(self):
        group = Group(4, batch_size=1)
        for k in range(3):
            group.submit({"k": k}, timestamp=k + 1)
        group.deliver_all()
        assert len(group.executed_ops(0)) == 3


class TestByzantineInputRejection:
    def test_pre_prepare_from_non_primary_ignored(self):
        group = Group(4)
        fake = PrePrepare(view=0, seqno=1, digest=b"x" * 32, requests=())
        group.replicas[1].on_message(2, fake)  # replica 2 is not primary
        group.deliver_all()
        assert group.executed_ops(1) == []

    def test_pre_prepare_with_wrong_digest_ignored(self):
        group = Group(4)
        request = ClientRequest(client="c", timestamp=1, op={"op": "evil"})
        fake = PrePrepare(
            view=0, seqno=1, digest=b"y" * 32, requests=(request,)
        )
        group.replicas[1].on_message(0, fake)
        group.deliver_all()
        assert group.executed_ops(1) == []

    def test_prepare_claiming_wrong_replica_ignored(self):
        group = Group(4)
        group.submit({"op": "a"})
        forged = Prepare(view=0, seqno=1, digest=b"z" * 32, replica=3)
        group.replicas[1].on_message(2, forged)  # src 2 claims to be 3
        group.deliver_all()
        entry = group.replicas[1].log.entry_if_exists(0, 1)
        assert entry is None or 3 not in {
            p.replica
            for p in entry.prepares.values()
            if p.digest == b"z" * 32
        }

    def test_commit_for_future_view_ignored(self):
        group = Group(4)
        forged = Commit(view=5, seqno=1, digest=b"x" * 32, replica=2)
        group.replicas[1].on_message(2, forged)
        assert group.replicas[1].log.entry_if_exists(5, 1) is None

    def test_out_of_window_seqno_ignored(self):
        group = Group(4, log_window=16)
        request = ClientRequest(client="c", timestamp=1, op="x")
        from repro.clbft.messages import batch_digest

        far = PrePrepare(
            view=0, seqno=999, digest=batch_digest((request,)),
            requests=(request,),
        )
        group.replicas[1].on_message(0, far)
        assert group.replicas[1].log.entry_if_exists(0, 999) is None


class TestEquivocation:
    def test_conflicting_pre_prepare_keeps_first(self):
        group = Group(4)
        from repro.clbft.messages import batch_digest

        r1 = ClientRequest(client="c", timestamp=1, op="one")
        r2 = ClientRequest(client="c", timestamp=2, op="two")
        pp1 = PrePrepare(view=0, seqno=1, digest=batch_digest((r1,)),
                         requests=(r1,))
        pp2 = PrePrepare(view=0, seqno=1, digest=batch_digest((r2,)),
                         requests=(r2,))
        backup = group.replicas[1]
        backup.on_message(0, pp1)
        backup.on_message(0, pp2)
        entry = backup.log.entry_if_exists(0, 1)
        assert entry.pre_prepare.digest == batch_digest((r1,))


class TestSharedPrePrepare:
    def test_backups_sharing_a_pre_prepare_digest_its_batch_once(self):
        # Co-resident backups receive one decoded pre-prepare object; the
        # batch digest they check it against is computed once, not per
        # backup (in this bus-only harness it is the only encode).
        from repro.clbft.messages import encode_message
        from repro.common.metrics import METRICS
        from repro.crypto.digest import digest

        group = Group(4)
        requests = (ClientRequest(client="c", timestamp=1, op="x"),)
        shared = PrePrepare(view=0, seqno=1, digest=digest(encode_message(requests)),
                            requests=requests)
        METRICS.reset()
        for backup in group.replicas[1:]:
            backup.on_message(0, shared)
            assert backup.log.entry_if_exists(0, 1).pre_prepare is shared
        assert (METRICS.encode_calls, METRICS.digest_calls) == (1, 1)
