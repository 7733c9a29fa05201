"""CLBFT checkpointing and log garbage collection."""

from repro.clbft.messages import Checkpoint, ViewChange
from tests.unit.clbft.harness import Group


class TestCheckpoints:
    def test_stable_checkpoint_advances(self):
        group = Group(4, checkpoint_interval=4, batch_size=1)
        for k in range(8):
            group.submit({"k": k}, timestamp=k + 1)
            group.deliver_all()
        for i in range(4):
            assert group.replicas[i].log.stable_seqno >= 4

    def test_garbage_collection_bounds_log(self):
        group = Group(4, checkpoint_interval=4, log_window=16, batch_size=1)
        for k in range(40):
            group.submit({"k": k}, timestamp=k + 1)
            group.deliver_all()
        for i in range(4):
            log = group.replicas[i].log
            assert log.live_entry_count <= log._config.log_window + 8
            assert log.stable_seqno >= 32

    def test_checkpoint_messages_flow(self):
        group = Group(4, checkpoint_interval=2, batch_size=1)
        for k in range(4):
            group.submit({"k": k}, timestamp=k + 1)
            group.deliver_all()
        checkpoints = [
            m for _, _, m in group.bus.log if isinstance(m, Checkpoint)
        ]
        assert checkpoints

    def test_progress_beyond_initial_window(self):
        # Without garbage collection the watermark window would halt
        # agreement; 100 requests >> log_window proves GC unblocks it.
        group = Group(4, checkpoint_interval=4, log_window=16, batch_size=1)
        for k in range(100):
            group.submit({"k": k}, timestamp=k + 1)
            group.deliver_all()
        for i in range(4):
            assert len(group.executed_ops(i)) == 100

    def test_mismatched_checkpoint_digests_never_stabilise(self):
        group = Group(4, checkpoint_interval=4)
        log = group.replicas[0].log
        for replica in range(3):
            log.add_checkpoint(
                Checkpoint(seqno=4, state_digest=bytes([replica]) * 32,
                           replica=replica)
            )
        assert log.stable_seqno == 0

    def test_quorum_of_matching_digests_stabilises(self):
        group = Group(4, checkpoint_interval=4)
        log = group.replicas[0].log
        for replica in range(3):
            became_stable = log.add_checkpoint(
                Checkpoint(seqno=4, state_digest=b"s" * 32, replica=replica)
            )
        assert became_stable
        assert log.stable_seqno == 4

    def test_stale_checkpoint_votes_ignored(self):
        group = Group(4, checkpoint_interval=4)
        log = group.replicas[0].log
        for replica in range(3):
            log.add_checkpoint(
                Checkpoint(seqno=4, state_digest=b"s" * 32, replica=replica)
            )
        assert not log.add_checkpoint(
            Checkpoint(seqno=4, state_digest=b"s" * 32, replica=3)
        )

    def test_a_vote_counts_only_for_the_replica_that_sent_it(self):
        group = Group(4, checkpoint_interval=4)
        replica = group.replicas[0]
        # Replica 3 claims every replica's vote: none but its own counts.
        for claimed in range(4):
            replica.on_message(
                3, Checkpoint(seqno=4, state_digest=b"s" * 32, replica=claimed)
            )
        assert replica.log.stable_seqno == 0

    def test_three_copies_of_one_checkpoint_are_not_a_quorum(self):
        group = Group(4, checkpoint_interval=4)
        replica = group.replicas[0]
        own = Checkpoint(seqno=4, state_digest=b"s" * 32, replica=2)
        vote = ViewChange(
            new_view=1, stable_seqno=4, checkpoint_proof=(own, own, own),
            prepared=(), replica=2,
        )
        assert not replica._verify_view_change(vote)
        quorum = tuple(
            Checkpoint(seqno=4, state_digest=b"s" * 32, replica=r)
            for r in range(3)
        )
        assert replica._verify_view_change(
            ViewChange(new_view=1, stable_seqno=4, checkpoint_proof=quorum,
                       prepared=(), replica=2)
        )
