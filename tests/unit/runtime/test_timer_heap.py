"""TimerHeap: the one timer table under every real-clock scheduler."""

from repro.runtime.host import TimerHeap


def test_pop_due_returns_live_timers_in_deadline_order():
    heap = TimerHeap()
    heap.set("a", "late", 3.0)
    heap.set("b", "early", 1.0)
    heap.set("a", "mid", 2.0)
    assert heap.pop_due(0.5) == []
    assert heap.pop_due(2.0) == [("b", "early"), ("a", "mid")]
    assert heap.pop_due(10.0) == [("a", "late")]
    assert heap.pop_due(10.0) == []


def test_same_tag_on_two_nodes_is_two_timers():
    heap = TimerHeap()
    heap.set("a", "t", 1.0)
    heap.set("b", "t", 1.0)
    heap.cancel("a", "t")
    assert not heap.armed("a", "t") and heap.armed("b", "t")
    assert heap.pop_due(1.0) == [("b", "t")]


def test_rearm_replaces_the_deadline():
    heap = TimerHeap()
    heap.set("a", "t", 5.0)
    heap.set("a", "t", 1.0)
    assert heap.armed_count() == 1
    assert heap.pop_due(1.0) == [("a", "t")]
    # The replaced arm is stale: it must not fire a second time.
    assert heap.pop_due(5.0) == []

    heap.set("a", "t", 1.0)
    heap.set("a", "t", 5.0)  # pushed later
    assert heap.pop_due(1.0) == []
    assert heap.armed("a", "t")
    assert heap.pop_due(5.0) == [("a", "t")]


def test_cancel_disarms_and_is_idempotent():
    heap = TimerHeap()
    heap.set("a", "t", 1.0)
    heap.cancel("a", "t")
    heap.cancel("a", "t")
    heap.cancel("a", "never-set")
    assert heap.armed_count() == 0
    assert heap.pop_due(2.0) == []


def test_fired_timer_is_unarmed_and_can_be_rearmed():
    heap = TimerHeap()
    heap.set("a", "t", 1.0)
    assert heap.armed("a", "t") and heap.armed_count() == 1
    assert heap.pop_due(1.0) == [("a", "t")]
    assert not heap.armed("a", "t") and heap.armed_count() == 0
    heap.set("a", "t", 2.0)
    assert heap.pop_due(2.0) == [("a", "t")]


def test_next_deadline_skips_cancelled_and_replaced_heads():
    heap = TimerHeap()
    assert heap.next_deadline() is None
    heap.set("a", "x", 1.0)
    heap.set("a", "y", 2.0)
    heap.set("a", "z", 3.0)
    heap.cancel("a", "x")
    heap.set("a", "y", 4.0)
    assert heap.next_deadline() == 3.0
    heap.cancel("a", "z")
    assert heap.next_deadline() == 4.0
    heap.cancel("a", "y")
    assert heap.next_deadline() is None


def test_unorderable_tags_never_get_compared():
    heap = TimerHeap()
    heap.set("a", ("rtx", object()), 1.0)
    heap.set("a", {"unhashable": False}.keys().__class__, 1.0)
    heap.set("a", None, 1.0)
    assert len(heap.pop_due(1.0)) == 3


def test_clear_disarms_everything():
    heap = TimerHeap()
    heap.set("a", "t", 1.0)
    heap.set("b", "u", 2.0)
    heap.clear()
    assert heap.armed_count() == 0 and heap.next_deadline() is None
    assert heap.pop_due(9.0) == []
