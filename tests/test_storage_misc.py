"""Unit tests for disk model, snapshots, and epoch store."""

import pytest

from repro.sim import Simulator
from repro.storage import DiskModel, EpochStore, NullDisk, SnapshotStore
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
