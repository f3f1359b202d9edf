"""A replicated key-value store on the primary-backup contract.

The operation set is chosen to exercise the paper's motivation: ``incr``,
``append`` and ``cas`` are *state-dependent* operations that the primary
must resolve into absolute ``set`` deltas.  Re-ordering or skipping deltas
would corrupt the store — which is why the broadcast layer underneath must
provide primary order, and why the property tests replay histories through
this state machine to detect violations.

Operations (tuples):
    ("put", key, value)            -> delta ("set", key, value)
    ("incr", key, amount)          -> delta ("set", key, old + amount)
    ("append", key, suffix)        -> delta ("set", key, old + suffix)
    ("cas", key, expected, value)  -> delta ("set", ...) or ("noop",)
    ("del", key)                   -> delta ("del", key)
    ("get", key)                   read-only
    ("keys",)                      read-only
"""

from repro.app.statemachine import StateMachine

_READS = frozenset(["get", "keys", "len"])
_ABSENT = object()


class KVError(Exception):
    """Raised for malformed operations."""


class KVStateMachine(StateMachine):
    """Dictionary state with primary-side delta resolution."""

    def __init__(self):
        self._data = {}
        # Snapshot payload bytes of _data, kept in step by apply() so a
        # snapshot never walks the store to learn its own size.
        self._data_bytes = 0
        self.applied_count = 0

    # -- primary side ---------------------------------------------------

    def prepare(self, op):
        kind = op[0]
        if kind == "put":
            _, key, value = op
            return ("set", key, value)
        if kind == "incr":
            _, key, amount = op
            old = self._data.get(key, 0)
            if not isinstance(old, (int, float)):
                return ("fail", key, "not a number")
            return ("set", key, old + amount)
        if kind == "append":
            _, key, suffix = op
            old = self._data.get(key, "")
            if not isinstance(old, str):
                return ("fail", key, "not a string")
            return ("set", key, old + suffix)
        if kind == "cas":
            _, key, expected, value = op
            if self._data.get(key) == expected:
                return ("set", key, value)
            return ("fail", key, "cas mismatch")
        if kind == "del":
            _, key = op
            return ("del", key)
        raise KVError("unknown write op: %r" % (op,))

    # -- replica side ---------------------------------------------------

    def apply(self, body):
        kind = body[0]
        self.applied_count += 1
        if kind == "set":
            _, key, value = body
            size = self._value_size
            grown = len(value) if value.__class__ is str else size(value)
            old = self._data.get(key, _ABSENT)
            if old is _ABSENT:
                grown += len(key) if key.__class__ is str else size(key)
            else:
                grown -= len(old) if old.__class__ is str else size(old)
            self._data_bytes += grown
            self._data[key] = value
            return value
        if kind == "del":
            _, key = body
            size = self._value_size
            old = self._data.pop(key, _ABSENT)
            if old is not _ABSENT:
                self._data_bytes -= size(key) + size(old)
            return None
        if kind == "fail":
            _, key, reason = body
            return ("error", reason)
        if kind == "noop":
            return None
        raise KVError("unknown delta: %r" % (body,))

    # -- reads ------------------------------------------------------------

    def read(self, query):
        kind = query[0]
        if kind == "get":
            return self._data.get(query[1])
        if kind == "keys":
            return sorted(self._data)
        if kind == "len":
            return len(self._data)
        raise KVError("unknown read op: %r" % (query,))

    def is_read(self, op):
        return op[0] in _READS

    # -- snapshots ----------------------------------------------------------

    def serialize(self):
        blob = (dict(self._data), self.applied_count)
        return blob, 16 + self._data_bytes

    def restore(self, blob):
        data, applied = blob
        self._data = dict(data)
        size = self._value_size
        self._data_bytes = sum(
            size(key) + size(value) for key, value in data.items()
        )
        self.applied_count = applied

    def op_size(self, op):
        size = 8
        for part in op[1:]:
            size += (len(part) if part.__class__ is str
                     else self._value_size(part))
        return size

    @staticmethod
    def _value_size(value):
        if isinstance(value, str):
            return len(value)
        if isinstance(value, (bytes, bytearray)):
            return len(value)
        return 8

    # -- test/introspection helpers -----------------------------------------

    def as_dict(self):
        """Copy of the store contents (tests and examples)."""
        return dict(self._data)
