"""Unit tests for the leader-side request pipeline helpers."""

import types

from repro.obs.trace import NULL_TRACER
from repro.sim import Simulator
from repro.zab import messages
from repro.zab.pipeline import Batcher, OutstandingWindow, PendingRequest
from repro.zab.zxid import Zxid


def make_batcher():
    sim = Simulator()
    peer = types.SimpleNamespace(sim=sim, tracer=NULL_TRACER, peer_id=1)
    sent = []  # (virtual time, message, committed)
    batcher = Batcher(
        peer, lambda message, committed=(): sent.append(
            (sim.now, message, list(committed)))
    )
    return sim, batcher, sent


def _propose(counter):
    return messages.Propose(Zxid(1, counter), "t%d" % counter, 8)


def test_lone_message_goes_out_bare():
    sim, batcher, sent = make_batcher()
    propose = _propose(1)
    sim.schedule(0.1, batcher.add, propose)
    sim.run()
    assert sent == [(0.1, propose, [])]


def test_flush_runs_when_the_event_returns():
    sim, batcher, sent = make_batcher()
    seen = []

    def event():
        batcher.add(_propose(1))
        seen.append(list(sent))   # nothing leaves mid-event

    sim.schedule(0.2, event)
    sim.run()
    assert seen == [[]]
    assert [t for t, _m, _c in sent] == [0.2]


def test_full_batch_flushes_without_waiting():
    # Everything one event issued leaves as one dissemination when the
    # event returns, at the same virtual time.
    sim, batcher, sent = make_batcher()
    commit = messages.Commit(Zxid(1, 1))
    covered = [(Zxid(1, 1), "proposal-1")]

    def event():
        batcher.add(commit, covered)
        for counter in (2, 3, 4):
            batcher.add(_propose(counter))

    sim.schedule(0.1, event)
    sim.schedule(0.1, batcher.add, _propose(5))
    sim.run()
    assert [t for t, _m, _c in sent] == [0.1, 0.1]
    _t, frame, committed = sent[0]
    assert isinstance(frame, messages.Frame)
    # Issue order, tagged with the newest member's zxid, sized as the
    # sum of its members.
    assert [type(m).__name__ for m in frame.members] == [
        "Commit", "Propose", "Propose", "Propose"]
    assert frame.zxid == Zxid(1, 4)
    assert frame.wire_size() == sum(m.wire_size() for m in frame.members)
    assert committed == covered
    assert sent[1][1].zxid == Zxid(1, 5)   # the next event: bare


def test_manual_flush_leaves_nothing_for_the_deferred_flush():
    sim, batcher, sent = make_batcher()
    batcher.add(_propose(1))
    batcher.flush()
    assert len(sent) == 1
    sim.run()   # the deferred flush finds an empty outbox
    assert len(sent) == 1


def test_close_drops_buffered_items():
    sim, batcher, sent = make_batcher()
    batcher.add(_propose(1))
    batcher.add(_propose(2))
    assert len(batcher) == 2
    batcher.close()
    sim.run()
    assert sent == []
    assert len(batcher) == 0


def test_outstanding_window_head_order():
    window = OutstandingWindow()
    assert window.head() is None
    window[Zxid(1, 1)] = "first"
    window[Zxid(1, 2)] = "second"
    assert window.head() == (Zxid(1, 1), "first")
    del window[Zxid(1, 1)]
    assert window.head() == (Zxid(1, 2), "second")


def test_pending_request_repr():
    request = PendingRequest("r1", "client:x", 2, ("put", "k", 1), 64)
    assert "r1" in repr(request)
