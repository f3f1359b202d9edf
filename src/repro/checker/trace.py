"""Event traces of broadcast executions.

Two event kinds matter for the PO broadcast properties:

- **broadcast**: a primary hands a transaction to the broadcast layer
  (the paper's ``abcast``).  Order of broadcast events of one epoch *is*
  the primary's causal order.
- **delivery**: a process applies a transaction to its state machine
  (``abdeliver``).  Deliveries carry the process's *position* — the global
  index of the transaction in that replica's history, counted from
  genesis — so that histories of different processes (and of the same
  process across crashes) can be aligned exactly.

Events share one global, monotonically increasing index, giving a total
"wall clock" order used by the primary-integrity check.

A trace keeps each kind as append-only columns: one fixed-stride
``array('q')`` of the integer fields (one row per event) and one list of
txn ids.  Recording therefore allocates nothing the cyclic GC tracks.
:class:`BroadcastEvent` and :class:`DeliveryEvent` are read-only views
built on demand from a row; the checkers read the columns directly.
"""

import json
from array import array
from collections import namedtuple
from struct import Struct

from repro.zab.zxid import Zxid

#: The integer fields of one row, in column order.
BROADCAST_FIELDS = ("index", "primary", "epoch", "zxid_epoch",
                    "zxid_counter")
DELIVERY_FIELDS = ("index", "process", "incarnation", "position",
                   "zxid_epoch", "zxid_counter", "epoch")
# One row as the native bytes of its ``array('q')`` items: packing and
# appending the bytes is faster than ``array.extend`` with a tuple.
_BROADCAST_ROW = Struct("%dq" % len(BROADCAST_FIELDS)).pack
_DELIVERY_ROW = Struct("%dq" % len(DELIVERY_FIELDS)).pack


class BroadcastEvent(namedtuple(
        "BroadcastEvent", "index primary epoch zxid txn_id")):
    """Read-only view of one recorded broadcast."""

    __slots__ = ()

    def __repr__(self):
        return "Broadcast(#%d p%s e%d %r %s)" % self


class DeliveryEvent(namedtuple(
        "DeliveryEvent",
        "index process incarnation position zxid txn_id epoch")):
    """Read-only view of one recorded delivery."""

    __slots__ = ()

    def __repr__(self):
        return "Delivery(#%d p%s inc%d pos%d %r %s)" % self[:6]


#: An immutable copy of a trace's columns (see :meth:`Trace.__reduce__`).
TraceColumns = namedtuple("TraceColumns", (
    "broadcast_ints", "broadcast_txns", "delivery_ints", "delivery_txns"))


#: What ``Trace.save`` writes per event: its kind and fields, in order.
_SAVED = {
    BroadcastEvent: ("broadcast", ("primary", "epoch", "zxid", "txn_id")),
    DeliveryEvent: ("delivery", ("process", "incarnation", "position",
                                 "epoch", "zxid", "txn_id")),
}


class Trace:
    """Accumulates events from every process of one execution."""

    def __init__(self):
        self.broadcast_ints = array("q")
        self.broadcast_txns = []
        self.delivery_ints = array("q")
        self.delivery_txns = []
        self._next_index = 0
        self._observers = ()   # tuple: cheap to iterate when empty

    def add_observer(self, observer):
        """Stream every future event to *observer* as it is recorded.

        An observer exposes ``observe_broadcast(row, primary, epoch,
        zxid_epoch, zxid_counter, txn_id)`` and ``observe_delivery(row,
        process, incarnation, position, zxid_epoch, zxid_counter, epoch,
        txn_id)``, *row* counting the events of its kind — the
        incremental :class:`~repro.checker.incremental.CheckerState` is
        the intended consumer (use :meth:`CheckerState.attach` to also
        catch up on already-recorded events)."""
        self._observers = self._observers + (observer,)
        return observer

    def record_broadcast(self, primary, epoch, zxid, txn_id):
        zxid_epoch, zxid_counter = zxid
        index = self._next_index
        self._next_index = index + 1
        row = len(self.broadcast_txns)
        self.broadcast_ints.frombytes(_BROADCAST_ROW(
            index, primary, epoch, zxid_epoch, zxid_counter))
        self.broadcast_txns.append(txn_id)
        for observer in self._observers:
            observer.observe_broadcast(
                row, primary, epoch, zxid_epoch, zxid_counter, txn_id)

    def record_delivery(self, process, incarnation, position, zxid, txn_id,
                        epoch=None):
        zxid_epoch, zxid_counter = zxid
        if epoch is None:
            epoch = zxid_epoch
        index = self._next_index
        self._next_index = index + 1
        row = len(self.delivery_txns)
        self.delivery_ints.frombytes(_DELIVERY_ROW(
            index, process, incarnation, position, zxid_epoch, zxid_counter,
            epoch))
        self.delivery_txns.append(txn_id)
        for observer in self._observers:
            observer.observe_delivery(
                row, process, incarnation, position, zxid_epoch,
                zxid_counter, epoch, txn_id)

    def replay_to(self, observer):
        """Feed every recorded event to *observer* in index order, as
        the ``record_*`` calls did."""
        backlog = sorted(
            [(index, ~row) for row, index
             in enumerate(self.broadcast_column("index"))]
            + [(index, row) for row, index
               in enumerate(self.delivery_column("index"))]
        )
        for _index, ref in backlog:
            event = self.event(ref)
            if ref < 0:
                observer.observe_broadcast(
                    ~ref, event.primary, event.epoch, *event.zxid,
                    event.txn_id)
            else:
                observer.observe_delivery(
                    ref, event.process, event.incarnation, event.position,
                    *event.zxid, event.epoch, event.txn_id)

    # -- columns and views -----------------------------------------------

    def broadcast_column(self, field):
        """One integer field of every broadcast, by row: a strided
        ``memoryview``, not a copy.  Recording raises ``BufferError``
        while one is alive, so use it and let it go."""
        return memoryview(self.broadcast_ints)[
            BROADCAST_FIELDS.index(field)::len(BROADCAST_FIELDS)]

    def delivery_column(self, field):
        """One integer field of every delivery, by row (as above)."""
        return memoryview(self.delivery_ints)[
            DELIVERY_FIELDS.index(field)::len(DELIVERY_FIELDS)]

    def broadcast(self, row):
        """A read-only view of broadcast *row*."""
        stride = len(BROADCAST_FIELDS)
        index, primary, epoch, zxid_epoch, zxid_counter = \
            self.broadcast_ints[row * stride:(row + 1) * stride]
        return BroadcastEvent(index, primary, epoch,
                              Zxid(zxid_epoch, zxid_counter),
                              self.broadcast_txns[row])

    def delivery(self, row):
        """A read-only view of delivery *row*."""
        stride = len(DELIVERY_FIELDS)
        (index, process, incarnation, position, zxid_epoch, zxid_counter,
         epoch) = self.delivery_ints[row * stride:(row + 1) * stride]
        return DeliveryEvent(index, process, incarnation, position,
                             Zxid(zxid_epoch, zxid_counter),
                             self.delivery_txns[row], epoch)

    def event(self, ref):
        """The view of delivery row *ref*, or of broadcast row ``~ref``
        when *ref* is negative (how a :class:`Violation` names events)."""
        return self.delivery(ref) if ref >= 0 else self.broadcast(~ref)

    @property
    def broadcasts(self):
        """Every broadcast as a view, in order (a new list per call)."""
        return list(map(self.broadcast, range(len(self.broadcast_txns))))

    @property
    def deliveries(self):
        """Every delivery as a view, in order (a new list per call)."""
        return list(map(self.delivery, range(len(self.delivery_txns))))

    def deliveries_by_process(self):
        """Map process -> deliveries in event order (all incarnations)."""
        histories = {}
        for event in self.deliveries:
            histories.setdefault(event.process, []).append(event)
        return histories

    def broadcasts_by_epoch(self):
        """Map epoch -> broadcast events in event order."""
        by_epoch = {}
        for event in self.broadcasts:
            by_epoch.setdefault(event.epoch, []).append(event)
        return by_epoch

    def delivered_txn_ids(self):
        """Set of txn ids delivered by at least one process."""
        return set(self.delivery_txns)

    def stats(self):
        """Summary counts, handy in test failure messages."""
        return {
            "broadcasts": len(self.broadcast_txns),
            "deliveries": len(self.delivery_txns),
            "processes": len(set(self.delivery_column("process"))),
            "epochs": sorted(set(self.broadcast_column("epoch"))),
        }

    # -- persistence ------------------------------------------------------

    def __reduce__(self):
        # The columns go as one immutable snapshot, which an explorer
        # image shares instead of copying (see repro.mc.explorer).
        columns = TraceColumns(
            self.broadcast_ints.tobytes(), tuple(self.broadcast_txns),
            self.delivery_ints.tobytes(), tuple(self.delivery_txns),
        )
        return _restore, (columns,), {"_observers": self._observers}

    def save(self, path):
        """Write the trace as JSON lines (one event per line).

        Event order (the global index) is preserved, so a saved trace
        re-checks identically — useful for archiving a failing seed.
        """
        with open(path, "w") as f:
            for event in sorted(self.broadcasts + self.deliveries,
                                key=lambda event: event.index):
                kind, keys = _SAVED[type(event)]
                record = {"kind": kind}     # a zxid dumps as [e, c]
                record.update((key, getattr(event, key)) for key in keys)
                f.write(json.dumps(record) + "\n")

    @classmethod
    def load(cls, path):
        """Inverse of :meth:`save`."""
        trace = cls()
        with open(path) as f:
            for line in f:
                record = json.loads(line)
                zxid = Zxid(*record["zxid"])
                if record["kind"] == "broadcast":
                    trace.record_broadcast(
                        record["primary"], record["epoch"], zxid,
                        record["txn_id"],
                    )
                else:
                    trace.record_delivery(
                        record["process"], record["incarnation"],
                        record["position"], zxid, record["txn_id"],
                        epoch=record["epoch"],
                    )
        return trace


def _restore(columns):
    trace = Trace()
    trace.broadcast_ints.frombytes(columns.broadcast_ints)
    trace.broadcast_txns.extend(columns.broadcast_txns)
    trace.delivery_ints.frombytes(columns.delivery_ints)
    trace.delivery_txns.extend(columns.delivery_txns)
    trace._next_index = len(trace.broadcast_txns) + len(trace.delivery_txns)
    return trace
