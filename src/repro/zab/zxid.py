"""Transaction identifiers.

A zxid is the pair ``(epoch, counter)``: *epoch* identifies the primary
instance that generated the transaction and *counter* its position within
that instance.  zxids are totally ordered lexicographically, which is the
order Zab delivers in.  ZooKeeper packs the pair into a 64-bit integer
(epoch in the high 32 bits); :meth:`Zxid.packed` mirrors that encoding.
"""

import collections


class Zxid(collections.namedtuple("Zxid", ("epoch", "counter"))):
    """An (epoch, counter) transaction id.

    A zxid *is* an immutable two-element tuple, so ordering, equality
    and hashing run in C: logs are bisected and windows keyed by zxid
    on every message of the broadcast path.  The consequence is that a
    zxid equals (and orders against) the plain tuple of its parts —
    ``Zxid(1, 2) == (1, 2)`` — while ordering against anything that is
    not a tuple still raises ``TypeError``.
    """

    __slots__ = ()

    def __new__(cls, epoch, counter):
        if epoch < 0 or counter < 0:
            raise ValueError("zxid parts must be non-negative")
        return tuple.__new__(cls, (epoch, counter))

    def next(self):
        """The next zxid of the same primary instance."""
        return Zxid(self.epoch, self.counter + 1)

    def packed(self):
        """64-bit packed form: epoch << 32 | counter."""
        epoch, counter = self
        if epoch >= 1 << 31 or counter >= 1 << 32:
            raise OverflowError("%r does not fit the 64-bit form" % (self,))
        return (epoch << 32) | counter

    @classmethod
    def unpack(cls, value):
        """Inverse of :meth:`packed`."""
        return cls(value >> 32, value & 0xFFFFFFFF)

    def as_tuple(self):
        return tuple(self)

    def __repr__(self):
        return "zxid(%d:%d)" % self

    def wire_size(self):
        return 8


#: The zxid of "no transaction yet": sorts before every real zxid.
ZXID_ZERO = Zxid(0, 0)


def max_zxid(a, b):
    """Maximum of two zxids, treating None as minus infinity."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a >= b else b
