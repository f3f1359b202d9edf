"""Unit tests for replica-local watches."""

from repro.app import DataTreeStateMachine, WatchManager


def do(sm, op):
    return sm.apply(sm.prepare(op))


def tree_with_watches():
    sm = DataTreeStateMachine()
    watches = WatchManager(sm)
    return sm, watches


def test_data_watch_fires_on_change():
    sm, watches = tree_with_watches()
    do(sm, ("create", "/a", b"0", "", None))
    fired = []
    watches.watch_data("/a", lambda event, path: fired.append(event))
    do(sm, ("set", "/a", b"1", -1))
    assert fired == ["changed"]


def test_data_watch_fires_on_create_and_delete():
    sm, watches = tree_with_watches()
    fired = []
    watches.watch_data("/a", lambda event, path: fired.append(event))
    do(sm, ("create", "/a", b"", "", None))
    assert fired == ["created"]
    watches.watch_data("/a", lambda event, path: fired.append(event))
    do(sm, ("delete", "/a", -1))
    assert fired == ["created", "deleted"]


def test_watches_are_one_shot():
    sm, watches = tree_with_watches()
    do(sm, ("create", "/a", b"", "", None))
    fired = []
    watches.watch_data("/a", lambda event, path: fired.append(event))
    do(sm, ("set", "/a", b"1", -1))
    do(sm, ("set", "/a", b"2", -1))
    assert fired == ["changed"]
    assert watches.pending() == 0


def test_child_watch_fires_on_membership_change():
    sm, watches = tree_with_watches()
    do(sm, ("create", "/q", b"", "", None))
    fired = []
    watches.watch_children("/q", lambda event, path: fired.append(path))
    do(sm, ("create", "/q/n1", b"", "", None))
    assert fired == ["/q"]


def test_child_watch_not_fired_by_data_change():
    sm, watches = tree_with_watches()
    do(sm, ("create", "/q", b"", "", None))
    fired = []
    watches.watch_children("/q", lambda event, path: fired.append(path))
    do(sm, ("set", "/q", b"new", -1))
    assert fired == []


def test_multiple_watchers_all_fire():
    sm, watches = tree_with_watches()
    do(sm, ("create", "/a", b"", "", None))
    fired = []
    for i in range(3):
        watches.watch_data("/a", lambda event, path, i=i: fired.append(i))
    do(sm, ("set", "/a", b"1", -1))
    assert sorted(fired) == [0, 1, 2]
    assert watches.fired == 3


def test_ephemeral_cleanup_fires_watches():
    sm, watches = tree_with_watches()
    do(sm, ("create_session", "s1", 5.0))
    do(sm, ("create", "/e", b"", "e", "s1"))
    fired = []
    watches.watch_data("/e", lambda event, path: fired.append(event))
    do(sm, ("close_session", "s1"))
    assert fired == ["deleted"]
