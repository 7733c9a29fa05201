"""CLBFT: a replica that missed a view change rejoins the group's view,
and next-view traffic that overtakes NEW-VIEW is not lost."""

from repro.clbft.messages import Commit, NewView, PrePrepare, Prepare, ViewChange
from repro.clbft.replica import VIEW_CHANGE_TIMER
from tests.unit.clbft.harness import Group


def cut_off(group: Group, index: int) -> None:
    group.bus.drop = lambda src, dst, msg: index in (src, dst)


def reconnect(group: Group) -> None:
    group.bus.drop = lambda src, dst, msg: False


def group_in_view_one_without_replica_zero(submit_to=(1, 2, 3), **config) -> Group:
    """Replica 0 (view 0's primary) is cut off; 1-3 move to view 1 and
    execute ``a`` there; then the link to replica 0 comes back."""
    group = Group(4, **config)
    cut_off(group, 0)
    group.submit({"op": "a"}, timestamp=1, to=list(submit_to))
    group.deliver_all()
    for i in (1, 2, 3):
        group.fire_timer(i)
    group.deliver_all()
    assert [group.replicas[i].view for i in range(4)] == [0, 1, 1, 1]
    reconnect(group)
    group.bus.log.clear()
    return group


def prepare(view: int, replica: int, seqno: int = 1) -> Prepare:
    return Prepare(view=view, seqno=seqno, digest=b"d", replica=replica)


def posted(group: Group, kind, src=None, dst=None) -> list:
    return [
        m for s, d, m in group.bus.log
        if isinstance(m, kind)
        and (src is None or s == src) and (dst is None or d == dst)
    ]


class TestRejoin:
    def test_reconnected_replica_reaches_the_view_and_executes(self):
        group = group_in_view_one_without_replica_zero(checkpoint_interval=2)
        rejoiner = group.replicas[0]
        # Normal-case traffic of view 1 from f+1 peers is the evidence.
        group.submit({"op": "b"}, timestamp=2, to=[1, 2, 3])
        group.deliver_all()
        assert rejoiner.view == 1
        assert not rejoiner.in_view_change
        # ``a`` ran while it was away; the checkpoint at seqno 2 carries
        # it over the gap, and it executes what is ordered from then on.
        group.submit({"op": "c"}, timestamp=3, to=[1, 2, 3])
        group.deliver_all()
        assert rejoiner.log.last_executed == 3
        assert group.executed_ops(0)[-1] == {"op": "c"}
        assert {"op": "a"} not in group.executed_ops(0)

    def test_rejoiner_stops_waiting_for_what_ran_without_it(self):
        # Replica 0 was asked for ``a`` as well and proposed it in view 0;
        # the group ran it in a batch replica 0 never sees.
        group = group_in_view_one_without_replica_zero(
            submit_to=(0, 1, 2, 3), checkpoint_interval=2
        )
        rejoiner = group.replicas[0]
        group.submit({"op": "b"}, timestamp=2, to=[1, 2, 3])
        group.deliver_all()
        group.submit({"op": "c"}, timestamp=3, to=[1, 2, 3])
        group.deliver_all()
        assert rejoiner.view == 1 and rejoiner.log.last_executed == 3
        # Waiting for ``a`` would fire its view-change timer forever.
        assert not rejoiner._pending
        assert not group.timers.is_armed(0, VIEW_CHANGE_TIMER)
        assert not rejoiner.in_view_change

    def test_one_peer_claiming_a_higher_view_triggers_no_vote(self):
        group = Group(4)
        replica = group.replicas[2]
        for seqno in (1, 2, 3):
            replica.on_message(3, prepare(view=5, replica=3, seqno=seqno))
            replica.on_message(
                3, Commit(view=6, seqno=seqno, digest=b"d", replica=3)
            )
        assert not replica.in_view_change
        assert posted(group, ViewChange) == []

    def test_votes_for_the_view_f_plus_one_peers_reached(self):
        group = Group(4)
        replica = group.replicas[2]
        replica.on_message(3, prepare(view=10**9, replica=3))  # the liar
        replica.on_message(0, prepare(view=1, replica=0))
        assert replica.in_view_change
        assert replica.target_view == 1
        assert [v.new_view for v in posted(group, ViewChange, dst=1)] == [1]

    def test_evidence_must_come_from_its_sender(self):
        group = Group(4)
        replica = group.replicas[2]
        # Replica 3 relays prepares that name other replicas.
        replica.on_message(3, prepare(view=1, replica=0))
        replica.on_message(3, prepare(view=1, replica=1))
        assert not replica.in_view_change

    def test_new_view_resent_once_per_replica_by_the_views_primary(self):
        group = group_in_view_one_without_replica_zero()
        vote = ViewChange(
            new_view=1, stable_seqno=0, checkpoint_proof=(), prepared=(),
            replica=0,
        )
        for _ in range(3):
            for i in (1, 2, 3):
                group.replicas[i].on_message(0, vote)
        resent = [(s, d) for s, d, m in group.bus.log if isinstance(m, NewView)]
        assert resent == [(1, 0)]
        group.deliver_all()
        assert group.replicas[0].view == 1

    def test_vote_for_an_older_view_is_not_answered(self):
        group = group_in_view_one_without_replica_zero()
        stale = ViewChange(
            new_view=0, stable_seqno=0, checkpoint_proof=(), prepared=(),
            replica=0,
        )
        group.replicas[1].on_message(0, stale)
        assert posted(group, NewView) == []


class TestNextViewTrafficIsKept:
    def test_pre_prepare_overtaking_new_view_is_replayed(self):
        group = Group(4)
        group.bus.drop = lambda src, dst, msg: src == 0  # mute primary
        group.submit({"op": "a"})
        group.deliver_all()
        for i in (1, 2, 3):
            group.fire_timer(i)
        # Deliver the votes; hold back what the new primary sends to 3.
        held = []
        while group.bus.queue:
            src, dst, msg = group.bus.queue.pop(0)
            if src == 1 and dst == 3 and isinstance(msg, (NewView, PrePrepare)):
                held.append(msg)
            else:
                group.replicas[dst].on_message(src, msg)
        assert [type(m) for m in held] == [NewView, PrePrepare]
        backup = group.replicas[3]
        assert backup.in_view_change
        # The link reorders them: the pre-prepare arrives first.
        backup.on_message(1, held[1])
        backup.on_message(1, held[0])
        group.deliver_all()
        assert backup.view == 1
        assert group.executed_ops(3) == [{"op": "a"}]

    def test_stash_is_bounded_per_sender(self):
        group = Group(4, log_window=8)
        replica = group.replicas[2]
        for seqno in range(1, 200):
            replica.on_message(3, prepare(view=4, replica=3, seqno=seqno))
        assert sum(len(s) for s in replica._ahead.values()) == 8
