"""Log record representation."""

import collections

# A single accepted proposal persisted in the transaction log.
#   zxid : the (epoch, counter) transaction id, totally ordered
#   txn  : the application-level idempotent state delta
#   size : wire/disk footprint in bytes, used by sync-cost accounting
LogRecord = collections.namedtuple("LogRecord", ["zxid", "txn", "size"])


class Torn:
    """What a crash mid-write leaves of a record's txn: not the txn proposed.

    It keeps the proposed body under an id nothing broadcast, with no
    client to answer, so a peer that replayed it instead of dropping it
    (:meth:`~repro.storage.txnlog.TxnLog.drop_torn_tail`) would deliver
    a txn the primary never broadcast.
    """

    __slots__ = ("body",)
    txn_id = "torn"
    origin = None

    def __init__(self, txn):
        self.body = getattr(txn, "body", txn)
