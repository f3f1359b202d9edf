"""Unit tests for the write-ahead transaction log."""

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import StorageError
from repro.sim import Simulator
from repro.sim.kernel import SimulationLimitError
from repro.storage import DiskModel, TxnLog
from repro.storage.records import LogRecord, Torn
from repro.zab.zxid import Zxid


def z(epoch, counter):
    return Zxid(epoch, counter)


def filled_log(n=5, epoch=1):
    log = TxnLog()
    for i in range(1, n + 1):
        log.append(z(epoch, i), "txn-%d" % i, size=100)
    return log


def test_append_and_read_back():
    log = filled_log(3)
    assert len(log) == 3
    assert log.last_durable() == z(1, 3)
    assert [record.txn for record in log.all_entries()] == [
        "txn-1", "txn-2", "txn-3",
    ]


def test_append_without_disk_is_immediately_durable():
    log = TxnLog()
    done = []
    log.append(z(1, 1), "a", callback=lambda: done.append(True))
    assert done == [True]
    assert log.last_durable() == z(1, 1)


def test_non_monotonic_append_rejected():
    log = filled_log(2)
    with pytest.raises(StorageError):
        log.append(z(1, 2), "dup")
    with pytest.raises(StorageError):
        log.append(z(1, 1), "old")


def test_cross_epoch_appends_allowed_ascending():
    log = filled_log(2, epoch=1)
    log.append(z(2, 1), "new-epoch")
    assert log.last_durable() == z(2, 1)


def test_contains_and_get():
    log = filled_log(3)
    assert log.contains(z(1, 2))
    assert not log.contains(z(1, 9))
    assert log.get(z(1, 2)).txn == "txn-2"
    assert log.get(z(9, 9)) is None


def test_entries_after():
    log = filled_log(5)
    tail = log.entries_after(z(1, 2))
    assert [record.zxid for record in tail] == [z(1, 3), z(1, 4), z(1, 5)]
    assert len(log.entries_after(None)) == 5
    assert log.entries_after(z(1, 5)) == []


def test_bytes_after():
    log = filled_log(4)
    assert log.bytes_after(z(1, 2)) == 200


def test_truncate_drops_suffix():
    log = filled_log(5)
    dropped = log.truncate(z(1, 3))
    assert dropped == 2
    assert log.last_durable() == z(1, 3)
    assert not log.contains(z(1, 4))


def test_truncate_none_clears_everything():
    log = filled_log(3)
    log.truncate(None)
    assert len(log) == 0


def test_purge_through_keeps_tail_and_tracks_boundary():
    log = filled_log(5)
    log.purge_through(z(1, 3))
    assert log.first_durable() == z(1, 4)
    assert log.purged_through() == z(1, 3)
    # last_durable still reports the tail
    assert log.last_durable() == z(1, 5)


def test_last_durable_falls_back_to_purged_boundary():
    log = filled_log(3)
    log.purge_through(z(1, 3))
    assert len(log) == 0
    assert log.last_durable() == z(1, 3)


def test_group_commit_batches_appends():
    sim = Simulator()
    disk = DiskModel(sim, fsync_latency=0.01, bandwidth_bps=1e9)
    log = TxnLog(disk)
    done = []
    # First append starts a flush; the rest arrive while it is in flight
    # and must coalesce into exactly one more flush.  Each flush runs
    # only its newest record's callback, which covers the batch.
    for i in range(1, 6):
        log.append(z(1, i), "t%d" % i, size=10,
                   callback=lambda i=i: done.append(i))
    sim.run()
    assert done == [1, 5]
    assert log.flushes == 2
    assert log.last_durable() == z(1, 5)


def test_held_appends_share_one_flush_after_release():
    sim = Simulator()
    disk = DiskModel(sim, fsync_latency=0.01, bandwidth_bps=1e9)
    log = TxnLog(disk)
    done = []
    log.hold()
    for i in range(1, 6):
        log.append(z(1, i), "t%d" % i, size=10,
                   callback=lambda i=i: done.append(i))
    assert log.last_appended() == z(1, 5)
    sim.run()
    assert done == [] and log.flushes == 0   # nothing starts while held
    log.release()
    sim.run()
    assert done == [5]
    assert log.flushes == 1
    assert log.last_durable() == z(1, 5)


def test_crash_ends_a_hold():
    sim = Simulator()
    log = TxnLog(DiskModel(sim, fsync_latency=0.01, bandwidth_bps=1e9))
    log.hold()
    log.append(z(1, 1), "lost", size=10)
    log.crash()
    log.append(z(1, 1), "kept", size=10)   # flushes at once again
    sim.run()
    assert log.flushes == 1
    assert log.get(z(1, 1)).txn == "kept"


def test_callbacks_fire_after_fsync_latency():
    sim = Simulator()
    disk = DiskModel(sim, fsync_latency=0.05, bandwidth_bps=1e9)
    log = TxnLog(disk)
    times = []
    log.append(z(1, 1), "a", callback=lambda: times.append(sim.now))
    sim.run()
    assert times[0] >= 0.05


def test_crash_loses_pending_keeps_durable():
    sim = Simulator()
    disk = DiskModel(sim, fsync_latency=0.05, bandwidth_bps=1e9)
    log = TxnLog(disk)
    log.append(z(1, 1), "durable")
    sim.run()  # first flush completes
    log.append(z(1, 2), "lost")
    log.crash()
    sim.run()
    assert log.last_durable() == z(1, 1)
    assert log.last_appended() == z(1, 1)
    # The log accepts fresh appends after restart.
    log.append(z(1, 2), "retry")
    sim.run()
    assert log.last_durable() == z(1, 2)


def test_truncate_with_pending_appends_rejected():
    sim = Simulator()
    disk = DiskModel(sim, fsync_latency=0.05, bandwidth_bps=1e9)
    log = TxnLog(disk)
    log.append(z(1, 1), "inflight")
    with pytest.raises(StorageError):
        log.truncate(z(1, 0))
    sim.run()


def test_install_record_synchronous():
    log = TxnLog()
    log.install_record(z(1, 1), "sync", size=50)
    assert log.last_durable() == z(1, 1)
    with pytest.raises(StorageError):
        log.install_record(z(1, 1), "dup")


def test_reset_to_snapshot():
    log = filled_log(4)
    log.reset_to_snapshot(z(2, 7))
    assert len(log) == 0
    assert log.purged_through() == z(2, 7)
    assert log.last_durable() == z(2, 7)


def test_replace_with_adopts_foreign_history():
    log = filled_log(2)
    other = filled_log(4, epoch=3)
    log.replace_with(other.all_entries())
    assert log.last_durable() == z(3, 4)
    assert len(log) == 4


def test_purge_beyond_durable_tail_clamps_watermark():
    # The zxid-watermark bug: purging "through" a zxid the log never
    # made durable must not advance the purge boundary past the durable
    # tail — last_durable() falls back to the boundary when the log is
    # empty, so an over-advanced watermark fakes durability for records
    # that were never fsynced.
    log = filled_log(3)
    log.purge_through(z(1, 9))
    assert len(log) == 0
    assert log.purged_through() == z(1, 3)
    assert log.last_durable() == z(1, 3)


def test_purge_with_inflight_appends_keeps_watermark_at_durable(
):
    # A snapshot taken at the commit frontier can race appends still
    # sitting in the disk queue; the purge must clamp to what is
    # actually durable and leave the in-flight suffix alone.
    sim = Simulator()
    disk = DiskModel(sim, fsync_latency=0.05, bandwidth_bps=1e9)
    log = TxnLog(disk)
    log.append(z(1, 1), "durable")
    sim.run()
    log.append(z(1, 2), "inflight")
    log.append(z(1, 3), "pending")
    log.purge_through(z(1, 3))  # frontier claims 3; only 1 is durable
    assert log.purged_through() == z(1, 1)
    sim.run()
    assert log.last_durable() == z(1, 3)
    assert [r.txn for r in log.all_entries()] == ["inflight", "pending"]


def test_purge_on_empty_log_is_a_noop():
    log = TxnLog()
    log.purge_through(z(1, 5))
    assert log.purged_through() is None
    assert log.last_durable() is None


def test_purge_never_regresses_watermark():
    log = filled_log(5)
    log.purge_through(z(1, 4))
    log.append(z(1, 6), "later")
    log.purge_through(z(1, 2))  # stale retention plan replayed late
    assert log.purged_through() == z(1, 4)
    assert log.first_durable() == z(1, 5)


@pytest.mark.parametrize("inflight", [0, 1, 5])
def test_tear_lands_the_flush_with_a_torn_tail_that_recovery_drops(
        inflight):
    sim = Simulator()
    disk = DiskModel(sim, fsync_latency=0.05, bandwidth_bps=1e9)
    log = TxnLog(disk)
    acked = []
    log.append(z(1, 1), "t1")  # flush 1 carries this record alone
    for i in range(2, inflight + 2):
        log.append(z(1, i), "t%d" % i, callback=lambda: acked.append(1))
    sim.run(until=0.06)  # flush 1 landed; flush 2 holds the rest
    if inflight:
        log.append(z(1, inflight + 2), "queued behind flush 2")
    assert log.tear() == inflight
    sim.run()
    assert acked == [] and log.last_appended() == log.last_durable()
    # Every record of the torn flush but its last lands intact.
    txns = [record.txn for record in log.all_entries()]
    assert txns[:-1] == ["t%d" % i for i in range(1, len(txns))]
    tail = txns[-1]
    if inflight:
        assert isinstance(tail, Torn) and tail.txn_id == "torn"
        assert tail.body == "t%d" % (inflight + 1)
    else:
        assert tail == "t1"
    log.drop_torn_tail()
    survivors = max(1, inflight)
    assert log.last_durable() == z(1, survivors)
    # Appends continue past the dropped tail, retaking its zxid.
    log.append(z(1, survivors + 1), "retaken")
    sim.run()
    assert [record.txn for record in log.all_entries()] == (
        ["t%d" % i for i in range(1, survivors + 1)] + ["retaken"]
    )


# --- Model test: every reader against a plain list of LogRecords ------------

_OPS = st.sampled_from([
    "append", "append", "append", "advance", "advance", "hold", "release",
    "crash", "tear", "drop_torn_tail", "truncate", "purge_through",
    "reset_to_snapshot", "replace_with", "install_record",
])


class _LogModel:
    """What a TxnLog on a DiskModel must hold: durable LogRecords, the
    flush in flight, the appends queued behind it, and one flag per disk
    write still to complete (False once a crash voided it)."""

    def __init__(self, group_commit):
        self.group_commit = group_commit
        self.durable = []
        self.inflight = None
        self.queued = []
        self.writes = []
        self.held = False
        self.purged = None

    def busy(self):
        return bool(self.queued) or self.inflight is not None

    def last_appended(self):
        tail = self.queued or self.inflight
        if tail:
            return tail[-1].zxid
        return self.durable[-1].zxid if self.durable else self.purged

    def start_flush(self):
        cut = len(self.queued) if self.group_commit else 1
        self.inflight, self.queued = self.queued[:cut], self.queued[cut:]
        self.writes.append(True)

    def crash(self):
        self.queued, self.inflight, self.held = [], None, False
        self.writes = [False] * len(self.writes)


def _rows(records):
    """Comparable rows: a torn txn reads as ("torn", body)."""
    return [
        (zxid, ("torn", txn.body) if isinstance(txn, Torn) else txn, size)
        for zxid, txn, size in records
    ]


def _check_readers(log, model, probes):
    durable = model.durable
    assert len(log._zxids) == len(log._txns) == len(log._sizes)
    assert _rows(log.all_entries()) == _rows(durable)
    assert len(log) == len(durable)
    assert log.durable_zxids() == tuple(r.zxid for r in durable)
    assert log.first_durable() == (durable[0].zxid if durable else None)
    assert log.last_durable() == (
        durable[-1].zxid if durable else model.purged)
    assert log.last_appended() == model.last_appended()
    assert log.purged_through() == model.purged
    for probe in [None] + probes:
        after = [r for r in durable if probe is None or r.zxid > probe]
        assert _rows(log.entries_after(probe)) == _rows(after)
        assert log.bytes_after(probe) == sum(r.size for r in after)
        for upto in probes:
            assert _rows(
                (zxid, txn, 0) for zxid, txn
                in log.committed_between(probe, upto)
            ) == _rows((r.zxid, r.txn, 0) for r in after if r.zxid <= upto)
    for probe in probes:
        match = [r for r in durable if r.zxid == probe]
        assert log.contains(probe) == bool(match)
        got = log.get(probe)
        assert _rows([got] if got else []) == _rows(match)


@settings(max_examples=150, deadline=None)
@given(st.booleans(), st.lists(st.tuples(_OPS, st.integers(0, 7)),
                               max_size=40))
def test_txnlog_matches_a_list_model(group_commit, steps):
    sim = Simulator()
    log = TxnLog(DiskModel(sim, fsync_latency=0.01, bandwidth_bps=1e9),
                 group_commit=group_commit)
    model = _LogModel(group_commit)
    fresh = [1, 0]   # epoch, counter of the newest zxid handed out

    def next_zxid(arg):
        # Counters step by 2 so odd probes fall between records; an
        # arg of 0 opens a new epoch.
        if arg == 0:
            fresh[:] = [fresh[0] + 1, 0]
        fresh[1] += 2
        return z(*fresh)

    def record(arg):
        zxid = next_zxid(arg)
        return LogRecord(zxid, "t%d" % zxid.counter, 10 + arg)

    for op, arg in steps:
        pick = (model.durable[arg % len(model.durable)].zxid
                if model.durable else z(1, 1))
        if op == "append":
            new = record(arg)
            log.append(*new)
            model.queued.append(new)
            if model.inflight is None and not model.held:
                model.start_flush()
        elif op == "advance" and model.writes:
            with contextlib.suppress(SimulationLimitError):
                sim.run(max_events=1)   # the oldest disk write completes
            if model.writes.pop(0):
                model.durable += model.inflight
                model.inflight = None
                if model.queued:
                    model.start_flush()
        elif op == "hold":
            log.hold()
            model.held = True
        elif op == "release":
            log.release()
            model.held = False
            if model.queued and model.inflight is None:
                model.start_flush()
        elif op == "crash":
            log.crash()
            model.crash()
        elif op == "tear":
            torn = model.inflight or []
            assert log.tear() == len(torn)
            if torn:
                last = torn[-1]
                model.durable += torn[:-1] + [
                    last._replace(txn=Torn(last.txn))]
            model.crash()
        elif op == "drop_torn_tail":
            log.drop_torn_tail()
            if model.durable and isinstance(model.durable[-1].txn, Torn):
                model.durable.pop()
        elif op in ("truncate", "reset_to_snapshot", "replace_with"):
            if model.busy():
                with pytest.raises(StorageError):
                    getattr(log, op)(pick)
                continue
            if op == "truncate":
                target = None if arg == 7 else pick
                kept = [r for r in model.durable
                        if target is not None and r.zxid <= target]
                assert log.truncate(target) == len(model.durable) - len(kept)
                model.durable = kept
            elif op == "reset_to_snapshot":
                log.reset_to_snapshot(pick)
                model.durable, model.purged = [], pick
            else:
                base = next_zxid(arg) if arg % 2 else None
                history = [record(1) for _ in range(arg)]
                log.replace_with(history, purged_through=base)
                model.durable, model.purged = history, base
        elif op == "purge_through":
            # Past the durable tail, the watermark clamps to the tail.
            target = pick if arg < 6 else z(fresh[0], fresh[1] + 1)
            log.purge_through(target)
            if model.durable:
                target = min(target, model.durable[-1].zxid)
                model.durable = [r for r in model.durable if r.zxid > target]
                if model.purged is None or target > model.purged:
                    model.purged = target
        elif op == "install_record":
            if model.busy():
                continue   # sync installs into a quiesced log only
            new = record(arg)
            log.install_record(*new)
            model.durable.append(new)
        probes = sorted({r.zxid for r in model.durable} | {
            z(1, 1), z(fresh[0], fresh[1] + 1), z(fresh[0] + 1, 0)
        } | {z(r.zxid.epoch, r.zxid.counter + 1) for r in model.durable})
        _check_readers(log, model, probes)
