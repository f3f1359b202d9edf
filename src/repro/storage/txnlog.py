"""Write-ahead transaction log with group commit.

The log is the durable heart of a Zab peer: a proposal is acknowledged only
after it is fsynced here.  Appends issued while a flush is in flight are
batched into the next flush (*group commit*), which is how ZooKeeper
amortises fsync latency under load.

Crash semantics: records whose flush had not completed when the peer
crashed are lost; completed flushes survive.  The protocol layer re-reads
the durable suffix on recovery.
"""

import bisect

from repro.common.errors import StorageError
from repro.obs.trace import NULL_TRACER
from repro.storage.records import LogRecord


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
        self._group_commit = group_commit
        self._records = []        # durable LogRecords, ascending zxid
        self._zxids = []          # parallel list of zxids for bisect
        self._pending = []        # [(LogRecord, callback)] awaiting flush
        self._inflight = []       # the batch currently being flushed
        self._flushing = False
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
        last = self.last_appended()
        if last is not None and zxid <= last:
            raise StorageError(
                "non-monotonic append: %r <= last %r" % (zxid, last)
            )
        record = LogRecord(zxid, txn, size)
        tracer = self._tracer
        if tracer.active:
            tracer.emit(
                "log.append", node=self._trace_node,
                zxid=zxid.as_tuple(), size=size,
                queued=len(self._pending),
            )
        if self._disk is None:
            self._install(record)
            if tracer.active:
                tracer.emit(
                    "log.durable", node=self._trace_node,
                    zxid=zxid.as_tuple(), wait=0.0,
                )
            if callback is not None:
                callback()
            return
        self._pending.append((record, callback, self._now()))
        if not self._flushing:
            self._start_flush()

    def _now(self):
        """The disk model's virtual clock (0.0 without one)."""
        sim = getattr(self._disk, "sim", None)
        return sim.now if sim is not None else 0.0

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
        total = sum(record.size for record, _cb, _t in batch)
        self._disk.write(total, lambda: self._on_flush(batch, generation))

    def _on_flush(self, batch, generation):
        if generation != self._generation:
            return  # the peer crashed while this flush was in flight
        self._flushing = False
        self._inflight = []
        self.flushes += 1
        tracer = self._tracer
        now = self._now()
        if tracer.active and batch:
            tracer.emit(
                "log.flush", node=self._trace_node,
                records=len(batch),
                bytes=sum(record.size for record, _cb, _t in batch),
            )
        for record, _cb, appended_at in batch:
            self._install(record)
            if tracer.active:
                tracer.emit(
                    "log.durable", node=self._trace_node,
                    zxid=record.zxid.as_tuple(),
                    wait=now - appended_at,
                )
        # Records are durable in order, so the newest one's callback
        # stands for the whole flush: it is the only one that runs.
        callback = batch[-1][1] if batch else None
        if callback is not None:
            callback()
        if self._pending:
            self._start_flush()

    def _install(self, record):
        self._records.append(record)
        self._zxids.append(record.zxid)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def last_durable(self):
        """zxid of the newest durable record, or None if empty."""
        if not self._records:
            return self._purged_through
        return self._records[-1].zxid

    def last_appended(self):
        """zxid of the newest record: durable, mid-flush, or pending."""
        if self._pending:
            return self._pending[-1][0].zxid
        if self._inflight:
            return self._inflight[-1][0].zxid
        return self.last_durable()

    def first_durable(self):
        """zxid of the oldest record still in the log, or None."""
        if not self._records:
            return None
        return self._records[0].zxid

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
            return self._records[index]
        return None

    def entries_after(self, zxid):
        """All durable records with zxid strictly greater than *zxid*.

        Pass ``None`` to read the whole durable log.
        """
        if zxid is None:
            return list(self._records)
        index = bisect.bisect_right(self._zxids, zxid)
        return self._records[index:]

    def all_entries(self):
        """The full durable log, oldest first."""
        return list(self._records)

    def bytes_after(self, zxid):
        """Total record bytes newer than *zxid* (sync-cost accounting)."""
        return sum(record.size for record in self.entries_after(zxid))

    def __len__(self):
        return len(self._records)

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
        self._install(LogRecord(zxid, txn, size))

    def reset_to_snapshot(self, zxid):
        """Drop every record: the state now lives in a snapshot at *zxid*."""
        if self._pending or self._flushing:
            raise StorageError("cannot reset with in-flight appends")
        self._records = []
        self._zxids = []
        self._purged_through = zxid

    def replace_with(self, records, purged_through=None):
        """Adopt a foreign history wholesale (leader history fetch)."""
        if self._pending or self._flushing:
            raise StorageError("cannot replace with in-flight appends")
        self._records = []
        self._zxids = []
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
        index = 0 if zxid is None else bisect.bisect_right(self._zxids, zxid)
        dropped = len(self._records) - index
        del self._records[index:]
        del self._zxids[index:]
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
        if not self._records:
            return
        tail = self._zxids[-1]
        if zxid > tail:
            zxid = tail
        index = bisect.bisect_right(self._zxids, zxid)
        del self._records[:index]
        del self._zxids[:index]
        if self._purged_through is None or zxid > self._purged_through:
            self._purged_through = zxid

    def crash(self):
        """Simulate a crash: pending appends are lost, durable ones kept."""
        self._pending = []
        self._inflight = []
        self._flushing = False
        self._generation += 1

    def abort_pending(self):
        """Discard not-yet-durable appends without a crash.

        Used on role changes: a peer abandoning its leader must quiesce
        the log before reporting its position in a new handshake —
        appends still in the disk queue were never acknowledged, so
        dropping them is always safe, and letting them land *mid-sync*
        would corrupt the handshake's view of the log.
        """
        self.crash()
