"""Unit tests for the write-ahead transaction log."""

import pytest

from repro.common.errors import StorageError
from repro.sim import Simulator
from repro.storage import DiskModel, TxnLog
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
