"""The checker trace keeps columns, not objects.

Recording an event appends integers to an ``array('q')`` and a txn id
to a list, so a long trace leaves the cyclic collector nothing new to
walk; the event objects callers see are views built on demand.  Saving
goes through those views and loading through ``record_*``, so a
save/load/save cycle must reproduce the file byte for byte.
"""

import gc

from repro.checker import Trace
from repro.zab.zxid import Zxid

EVENTS = 10000


def _record(trace, count):
    for i in range(1, count + 1):
        zxid = Zxid(1 + i // 1000, i)
        trace.record_broadcast(1, zxid.epoch, zxid, "t%d" % i)
        trace.record_delivery(1 + i % 3, 1, i, zxid, "t%d" % i)


def test_recording_keeps_no_gc_tracked_object_per_event():
    trace = Trace()
    _record(trace, 10)      # let every column allocate once
    gc.collect()
    before = len(gc.get_objects())
    _record(trace, EVENTS)
    gc.collect()
    # The Zxids and txn ids above are temporaries or untracked; a trace
    # that kept one object per event would add 20,000 here.
    assert len(gc.get_objects()) - before <= 10
    assert trace.stats()["deliveries"] == EVENTS + 10


def test_save_load_save_is_byte_identical(tmp_path):
    trace = Trace()
    _record(trace, 50)
    trace.record_delivery(3, 2, 7, Zxid(1, 7), "t7", epoch=2)
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    trace.save(str(first))
    Trace.load(str(first)).save(str(second))
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().count(b"\n") == 101
