"""Unit tests for disk model, snapshots, epoch store, and the journal."""

import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import StorageError
from repro.sim import Simulator
from repro.storage import DiskModel, EpochStore, NullDisk, SnapshotStore
from repro.storage.journal import FileJournal
from repro.zab.zxid import Zxid


# --- DiskModel --------------------------------------------------------------

def test_disk_write_latency():
    sim = Simulator()
    disk = DiskModel(sim, fsync_latency=0.01, bandwidth_bps=1000.0)
    times = []
    disk.write(100, lambda: times.append(sim.now))
    sim.run()
    assert times[0] == pytest.approx(0.01 + 0.1)


def test_disk_serialises_writes():
    sim = Simulator()
    disk = DiskModel(sim, fsync_latency=0.01, bandwidth_bps=1e6)
    times = []
    disk.write(0, lambda: times.append(sim.now))
    disk.write(0, lambda: times.append(sim.now))
    sim.run()
    assert times[1] == pytest.approx(times[0] + 0.01)
    assert disk.writes == 2


def test_null_disk_is_synchronous():
    done = []
    NullDisk().write(100, lambda: done.append(True))
    assert done == [True]


# --- SnapshotStore -----------------------------------------------------------

def test_snapshot_store_latest_and_retention():
    store = SnapshotStore(retain=2)
    for i in range(1, 5):
        store.save(Zxid(1, i), {"i": i}, size=100)
    assert len(store) == 2
    assert store.latest().last_zxid == Zxid(1, 4)


def test_snapshot_latest_at_or_before():
    store = SnapshotStore(retain=5)
    store.save(Zxid(1, 2), "a", 10)
    store.save(Zxid(1, 6), "b", 10)
    assert store.latest_at_or_before(Zxid(1, 5)).state == "a"
    assert store.latest_at_or_before(Zxid(1, 6)).state == "b"
    assert store.latest_at_or_before(Zxid(1, 1)) is None


def test_snapshot_store_rejects_zero_retention():
    with pytest.raises(ValueError):
        SnapshotStore(retain=0)


# --- EpochStore ---------------------------------------------------------------

def test_epoch_store_persists_monotonically():
    store = EpochStore()
    store.set_accepted_epoch(3)
    store.set_current_epoch(3)
    assert (store.accepted_epoch, store.current_epoch) == (3, 3)
    with pytest.raises(ValueError):
        store.set_accepted_epoch(2)
    with pytest.raises(ValueError):
        store.set_current_epoch(1)
    assert store.persist_count == 2


# --- FileJournal ----------------------------------------------------------------

def test_journal_roundtrip(tmp_path):
    path = str(tmp_path / "log.jnl")
    with FileJournal(path) as journal:
        journal.append(Zxid(1, 1), ("set", "a", 1))
        journal.append(Zxid(1, 2), ("set", "b", 2))
    with FileJournal(path) as journal:
        records = journal.replay()
    assert [(z.epoch, z.counter) for z, _t in records] == [(1, 1), (1, 2)]
    assert records[1][1] == ("set", "b", 2)


def test_journal_recovers_from_torn_tail(tmp_path):
    path = str(tmp_path / "log.jnl")
    with FileJournal(path) as journal:
        journal.append(Zxid(1, 1), "good")
        journal.append(Zxid(1, 2), "tail")
    # Tear the final record by chopping bytes off the file.
    with open(path, "r+b") as f:
        f.seek(-3, 2)
        f.truncate()
    with FileJournal(path) as journal:
        records = journal.replay()
    assert [txn for _z, txn in records] == ["good"]


def test_journal_detects_corrupt_record_via_crc(tmp_path):
    path = str(tmp_path / "log.jnl")
    with FileJournal(path) as journal:
        journal.append(Zxid(1, 1), "victim")
    with open(path, "r+b") as f:
        f.seek(-1, 2)
        last = f.read(1)
        f.seek(-1, 2)
        f.write(bytes([last[0] ^ 0xFF]))
    with FileJournal(path) as journal:
        assert journal.replay() == []


def test_journal_append_after_replay(tmp_path):
    path = str(tmp_path / "log.jnl")
    with FileJournal(path) as journal:
        journal.append(Zxid(1, 1), "first")
    with FileJournal(path) as journal:
        journal.replay()
        journal.append(Zxid(1, 2), "second")
        assert len(journal.replay()) == 2


def test_journal_append_after_torn_tail_is_not_lost(tmp_path):
    path = str(tmp_path / "log.jnl")
    with FileJournal(path) as journal:
        journal.append(Zxid(1, 1), "a")
        journal.append(Zxid(1, 2), "b")
    with open(path, "r+b") as f:
        f.seek(-3, 2)
        f.truncate()
    with FileJournal(path) as journal:
        assert [txn for _z, txn in journal.replay()] == ["a"]
        journal.append(Zxid(1, 3), "c")
    with FileJournal(path) as journal:
        assert [txn for _z, txn in journal.replay()] == ["a", "c"]


@settings(max_examples=20, deadline=None)
@given(st.lists(st.text(max_size=12), min_size=1, max_size=4))
def test_journal_torn_at_any_offset_keeps_a_prefix_and_takes_appends(txns):
    with tempfile.TemporaryDirectory() as root:
        intact = os.path.join(root, "intact.jnl")
        with FileJournal(intact) as journal:
            for i, txn in enumerate(txns):
                journal.append(Zxid(1, i + 1), txn)
        with open(intact, "rb") as f:
            image = f.read()
        path = os.path.join(root, "torn.jnl")
        for size in range(len(b"ZABJRNL1"), len(image)):
            with open(path, "wb") as f:
                f.write(image[:size])
            with FileJournal(path) as journal:
                survivors = [txn for _z, txn in journal.replay()]
                assert survivors == txns[:len(survivors)]
                journal.append(Zxid(2, 1), "after the tear")
            with FileJournal(path) as journal:
                assert [txn for _z, txn in journal.replay()] == (
                    survivors + ["after the tear"]
                )


def test_journal_mid_log_corruption_raises(tmp_path):
    path = str(tmp_path / "log.jnl")
    with FileJournal(path) as journal:
        journal.append(Zxid(1, 1), "first")
        journal.append(Zxid(1, 2), "middle")
        middle_end = os.path.getsize(path)
        journal.append(Zxid(1, 3), "last")
    # Flip the final payload byte of the middle record: its CRC fails
    # while the record after it is still well-formed.
    with open(path, "r+b") as f:
        f.seek(middle_end - 1)
        byte = f.read(1)
        f.seek(middle_end - 1)
        f.write(bytes([byte[0] ^ 0xFF]))
    with FileJournal(path) as journal:
        with pytest.raises(StorageError, match="precedes valid records"):
            journal.replay()


def test_journal_rewrite_truncates(tmp_path):
    path = str(tmp_path / "log.jnl")
    with FileJournal(path) as journal:
        for i in range(1, 6):
            journal.append(Zxid(1, i), i)
        records = journal.replay()
        journal.rewrite(records[:2])
        assert [txn for _z, txn in journal.replay()] == [1, 2]
