"""Property suite: the retention policy never destroys recoverability.

Hypothesis drives arbitrary interleavings of *append txn*, *take
snapshot*, and *compact (keep newest N)* against a peer's stable
storage and pins the two invariants documented in
:mod:`repro.storage.retention`:

- after any schedule at least one **recoverable pair** survives: a
  snapshot whose full log suffix is intact (the purge watermark never
  passes the oldest retained snapshot);
- recovery from the compacted storage — latest snapshot state plus
  ``entries_after`` replay — equals replaying the uncompacted
  reference log from the start.

The "app" is a counter: txn ``i`` sets the running total to ``i``, so
state equality is exact and order-sensitive.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import RetentionPolicy
from repro.zab.peer import PeerStorage
from repro.zab.zxid import Zxid

# One schedule step: ("append",) | ("snapshot",) | ("compact", keep).
STEPS = st.lists(
    st.one_of(
        st.just(("append",)),
        st.just(("snapshot",)),
        st.tuples(st.just("compact"), st.integers(1, 3)),
    ),
    min_size=1,
    max_size=40,
)


def _run_schedule(steps):
    """Apply *steps*; returns (storage, reference list of all txns)."""
    storage = PeerStorage()
    reference = []
    counter = 0
    applied = 0
    for step in steps:
        if step[0] == "append":
            counter += 1
            zxid = Zxid(1, counter)
            storage.log.append(zxid, counter, size=8)
            reference.append((zxid, counter))
        elif step[0] == "snapshot":
            if not reference:
                continue
            zxid, value = reference[-1]
            # Snapshot state = the running total at that zxid.
            storage.snapshots.save(zxid, value, size=8)
        else:
            if not len(storage.snapshots):
                continue
            RetentionPolicy(step[1]).apply(storage)
            applied += 1
    return storage, reference, applied


def _recover(storage):
    """Latest snapshot + log suffix, the way a restarting peer reads it."""
    snapshot = storage.snapshots.latest()
    if snapshot is None:
        state, base = 0, None
    else:
        state, base = snapshot.state, snapshot.last_zxid
    for record in storage.log.entries_after(base):
        state = record.txn
    return state


@settings(max_examples=200, deadline=None)
@given(steps=STEPS)
def test_some_recoverable_pair_always_survives(steps):
    storage, reference, applied = _run_schedule(steps)
    if not applied:
        return
    # Compaction ran at least once, so a snapshot must exist...
    snapshots = storage.snapshots.all()
    assert snapshots, "compaction deleted the last snapshot"
    # ...and the purge watermark never passed the oldest survivor, so
    # every retained snapshot still has its entire suffix in the log.
    boundary = storage.log.purged_through()
    if boundary is not None:
        assert boundary <= snapshots[0].last_zxid


@settings(max_examples=200, deadline=None)
@given(steps=STEPS)
def test_recovery_equals_uncompacted_reference(steps):
    storage, reference, _applied = _run_schedule(steps)
    expected = reference[-1][1] if reference else 0
    assert _recover(storage) == expected


@settings(max_examples=100, deadline=None)
@given(steps=STEPS, keep=st.integers(1, 4))
def test_final_compaction_keeps_exactly_min_n_snapshots(steps, keep):
    storage, _reference, _applied = _run_schedule(steps)
    before = len(storage.snapshots)
    report = RetentionPolicy(keep).apply(storage)
    assert len(storage.snapshots) == min(before, keep)
    assert len(report.dropped) == before - len(storage.snapshots)
    # Idempotence: compacting again with the same policy does nothing.
    again = RetentionPolicy(keep).apply(storage)
    assert not again.changed
