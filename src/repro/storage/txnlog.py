"""Write-ahead transaction log with group commit.

The log is the durable heart of a Zab peer: a proposal is acknowledged only
after it is fsynced here.  Appends issued while a flush is in flight are
batched into the next flush (*group commit*), which is how ZooKeeper
amortises fsync latency under load.

Crash semantics: records whose flush had not completed when the peer
crashed are lost; completed flushes survive.  A crash *mid*-flush
(:meth:`TxnLog.tear`) lands the flush's records but tears the last one,
and recovery drops that torn tail (:meth:`TxnLog.drop_torn_tail`) before
the protocol layer re-reads the durable suffix.
"""

import bisect
import functools
import types
from operator import itemgetter

from repro.common.errors import StorageError
from repro.obs.trace import NULL_TRACER
from repro.storage.records import LogRecord, Torn

_ZXID, _TXN, _SIZE = itemgetter(0), itemgetter(1), itemgetter(2)
#: ``LogRecord`` from a ``(zxid, txn, size)`` tuple, without a Python frame.
_record = functools.partial(tuple.__new__, LogRecord)
#: The clock of a disk that has none.
_NO_CLOCK = types.SimpleNamespace(now=0.0)


class TxnLog:
    """An ordered, truncatable, crash-durable sequence of proposals.

    Parameters
    ----------
    disk:
        Optional :class:`repro.storage.disk.DiskModel`.  When ``None``,
        appends become durable synchronously (unit-test mode).
    group_commit:
        When True (default), appends that arrive while a flush is in
        flight coalesce into the next flush.  When False, every append
        pays its own fsync — the ablation knob for experiment E9.
    """

    def __init__(self, disk=None, group_commit=True):
        self._disk = disk
        self._clock = getattr(disk, "sim", _NO_CLOCK)   # bound once
        self._group_commit = group_commit
        # The durable log as three parallel columns, ascending zxid.
        self._zxids = []
        self._txns = []
        self._sizes = []
        self._pending = []        # [(zxid, txn, size, callback, appended_at)]
        self._inflight = []       # the batch currently being flushed
        self._flushing = False
        self._held = False        # hold(): appends wait for release()
        self._generation = 0      # bumped on crash to void in-flight flushes
        self._purged_through = None
        self.flushes = 0
        self._tracer = NULL_TRACER
        self._trace_node = None

    def bind_tracer(self, tracer, node):
        """Stamp subsequent ``log.*`` events with *tracer* as *node*.

        The owning peer wires this up; the log itself stays usable
        standalone (unit tests, tools) with the no-op default.
        """
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._trace_node = node
        return self

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append(self, zxid, txn, size=64, callback=None):
        """Append a proposal; *callback* fires once it is durable.

        A flush that makes several records durable runs only the newest
        record's callback, which covers the older ones too.

        zxids must be strictly increasing across the whole log (durable
        tail plus any pending appends).
        """
        queued = self._pending or self._inflight
        last = queued[-1][0] if queued else self.last_durable()
        if last is not None and zxid <= last:
            raise StorageError(
                "non-monotonic append: %r <= last %r" % (zxid, last)
            )
        tracer = self._tracer
        if tracer.active:
            tracer.emit(
                "log.append", node=self._trace_node,
                zxid=zxid.as_tuple(), size=size,
                queued=len(self._pending),
            )
        if self._disk is None:
            self._land([(zxid, txn, size)])
            if tracer.active:
                tracer.emit(
                    "log.durable", node=self._trace_node,
                    zxid=zxid.as_tuple(), wait=0.0,
                )
            if callback is not None:
                callback()
            return
        self._pending.append((zxid, txn, size, callback, self._clock.now))
        if not self._flushing and not self._held:
            self._start_flush()

    def hold(self):
        """Queue appends without flushing until :meth:`release`."""
        self._held = True

    def release(self):
        """End a :meth:`hold`: start the flush the held appends wait for."""
        self._held = False
        if self._pending and not self._flushing:
            self._start_flush()

    def _start_flush(self):
        if self._group_commit:
            batch = self._pending
            self._pending = []
        else:
            batch = self._pending[:1]
            self._pending = self._pending[1:]
        self._inflight = batch
        self._flushing = True
        generation = self._generation
        self._disk.write(
            sum(map(_SIZE, batch)),
            functools.partial(self._on_flush, batch, generation),
        )

    def _on_flush(self, batch, generation):
        if generation != self._generation:
            return  # the peer crashed while this flush was in flight
        self._flushing = False
        self._inflight = []
        self.flushes += 1
        self._land(batch)
        tracer = self._tracer
        if tracer.active and batch:
            now = self._clock.now
            tracer.emit(
                "log.flush", node=self._trace_node,
                records=len(batch), bytes=sum(map(_SIZE, batch)),
            )
            for zxid, _txn, _size, _cb, appended_at in batch:
                tracer.emit(
                    "log.durable", node=self._trace_node,
                    zxid=zxid.as_tuple(), wait=now - appended_at,
                )
        # Records are durable in order, so the newest one's callback
        # stands for the whole flush: it is the only one that runs.
        callback = batch[-1][3] if batch else None
        if callback is not None:
            callback()
        if self._pending:
            self._start_flush()

    def _land(self, batch):
        """Extend the durable columns by a flushed *batch*, in order."""
        self._zxids.extend(map(_ZXID, batch))
        self._txns.extend(map(_TXN, batch))
        self._sizes.extend(map(_SIZE, batch))

    def _rows(self, start):
        """The durable records from index *start* on, as ``LogRecord``s."""
        return list(map(_record, zip(
            self._zxids[start:], self._txns[start:], self._sizes[start:]
        )))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def last_durable(self):
        """zxid of the newest durable record, or None if empty."""
        return self._zxids[-1] if self._zxids else self._purged_through

    def last_appended(self):
        """zxid of the newest record: durable, mid-flush, or pending."""
        queued = self._pending or self._inflight
        return queued[-1][0] if queued else self.last_durable()

    def first_durable(self):
        """zxid of the oldest record still in the log, or None."""
        return self._zxids[0] if self._zxids else None

    def purged_through(self):
        """zxid up to which records were folded into a snapshot, or None."""
        return self._purged_through

    def contains(self, zxid):
        """True if a durable record with this exact zxid exists."""
        index = bisect.bisect_left(self._zxids, zxid)
        return index < len(self._zxids) and self._zxids[index] == zxid

    def get(self, zxid):
        """Return the durable record with this zxid, or None."""
        index = bisect.bisect_left(self._zxids, zxid)
        if index < len(self._zxids) and self._zxids[index] == zxid:
            return LogRecord(zxid, self._txns[index], self._sizes[index])
        return None

    def _after(self, zxid):
        """Index of the first durable record newer than *zxid* (None: 0)."""
        return 0 if zxid is None else bisect.bisect_right(self._zxids, zxid)

    def entries_after(self, zxid):
        """All durable records with zxid strictly greater than *zxid*.

        Pass ``None`` to read the whole durable log.
        """
        return self._rows(self._after(zxid))

    def all_entries(self):
        """The full durable log, oldest first."""
        return self._rows(0)

    def committed_between(self, after, upto):
        """An iterator of ``(zxid, txn)``, one per durable record in
        (*after*, *upto*], oldest first.

        The delivery read: *after* is what was delivered (None for
        nothing yet), *upto* the commit frontier.
        """
        start = self._after(after)
        end = bisect.bisect_right(self._zxids, upto)
        return zip(self._zxids[start:end], self._txns[start:end])

    def durable_zxids(self):
        """The durable records' zxids, oldest first, as a tuple."""
        return tuple(self._zxids)

    def bytes_after(self, zxid):
        """Total record bytes newer than *zxid* (sync-cost accounting)."""
        return sum(self._sizes[self._after(zxid):])

    def __len__(self):
        return len(self._zxids)

    # ------------------------------------------------------------------
    # Synchronisation paths
    # ------------------------------------------------------------------

    def install_record(self, zxid, txn, size=64):
        """Synchronously install one record from a sync stream.

        Sync streams carry already-committed history; timing is accounted
        on the network side, so installation is immediate and durable.
        """
        last = self.last_appended()
        if last is not None and zxid <= last:
            raise StorageError(
                "non-monotonic install: %r <= last %r" % (zxid, last)
            )
        self._land([(zxid, txn, size)])

    def reset_to_snapshot(self, zxid):
        """Drop every record: the state now lives in a snapshot at *zxid*."""
        if self._pending or self._flushing:
            raise StorageError("cannot reset with in-flight appends")
        self._zxids, self._txns, self._sizes = [], [], []
        self._purged_through = zxid

    def replace_with(self, records, purged_through=None):
        """Adopt a foreign history wholesale (leader history fetch)."""
        if self._pending or self._flushing:
            raise StorageError("cannot replace with in-flight appends")
        self._zxids, self._txns, self._sizes = [], [], []
        self._purged_through = purged_through
        for record in records:
            self.install_record(record.zxid, record.txn, record.size)

    # ------------------------------------------------------------------
    # Truncation, purging, crash
    # ------------------------------------------------------------------

    def truncate(self, zxid):
        """Discard every durable record newer than *zxid*.

        Used by TRUNC synchronisation when a follower logged proposals the
        new leader's history does not contain.  Illegal while appends are
        pending — the protocol never truncates mid-broadcast.
        """
        if self._pending or self._flushing:
            raise StorageError("cannot truncate with in-flight appends")
        index = self._after(zxid)
        dropped = len(self._zxids) - index
        for column in self._zxids, self._txns, self._sizes:
            del column[index:]
        return dropped

    def purge_through(self, zxid):
        """Drop records with zxid <= *zxid* (they live in a snapshot now).

        The purge watermark is clamped to the durable tail.  A fuzzy
        snapshot can reflect transactions whose own log records are
        still in the flush pipeline — the leader may commit on a
        follower-only quorum before its local fsync lands — and
        advancing ``purged_through`` past what the disk has actually
        accepted would make ``last_durable()`` claim durability that
        never happened.  If nothing is durable yet, the purge is a
        no-op: pending and in-flight records are never dropped and
        cannot justify a watermark.
        """
        if not self._zxids:
            return
        tail = self._zxids[-1]
        if zxid > tail:
            zxid = tail
        index = self._after(zxid)
        for column in self._zxids, self._txns, self._sizes:
            del column[:index]
        if self._purged_through is None or zxid > self._purged_through:
            self._purged_through = zxid

    def crash(self):
        """Simulate a crash: pending appends are lost, durable ones kept."""
        self._pending = []
        self._inflight = []
        self._flushing = False
        self._held = False
        self._generation += 1

    def tear(self):
        """Crash mid-flush: the flush lands, but its last record is torn.

        Every record of the in-flight flush but the last becomes durable
        intact; the last lands as a :class:`Torn` txn.  Pending appends
        are lost as in :meth:`crash`, and no callback runs.  Returns how
        many records the torn flush wrote (0 when none was in flight).
        """
        batch = self._inflight
        self.crash()
        if batch:
            self._land(batch)
            self._txns[-1] = Torn(self._txns[-1])
        return len(batch)

    def drop_torn_tail(self):
        """Recovery's tail check: drop a torn last record, if any.

        Only a tail can tear, since a flush starts only after the one
        before it landed, so no record before the last is checked.
        """
        if self._txns and isinstance(self._txns[-1], Torn):
            for column in self._zxids, self._txns, self._sizes:
                del column[-1]

    def abort_pending(self):
        """Discard not-yet-durable appends without a crash.

        Used on role changes: a peer abandoning its leader must quiesce
        the log before reporting its position in a new handshake —
        appends still in the disk queue were never acknowledged, so
        dropping them is always safe, and letting them land *mid-sync*
        would corrupt the handshake's view of the log.
        """
        self.crash()
