"""Message envelopes and wire-size accounting.

Payloads are ordinary Python objects.  For bandwidth modelling each payload
reports a *wire size* in bytes: protocol message classes define a
``wire_size()`` method; anything else is estimated structurally.  The sizes
feed the NIC serialisation model, so they only need to be proportionally
right (a 1 KiB write should cost ~1 KiB on the wire), not codec-exact.
"""

HEADER_BYTES = 64  # rough TCP/IP + framing overhead per message


class Envelope:
    """A payload in flight from *src* to *dst*.

    ``msg_id`` is the fabric-assigned monotone id that correlates the
    ``net.send`` and ``net.deliver``/``net.drop`` trace events of one
    message (the causality analysis joins on it).
    """

    __slots__ = ("src", "dst", "payload", "size", "send_time", "msg_id")

    def __init__(self, src, dst, payload, size, send_time, msg_id=None):
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size = size
        self.send_time = send_time
        self.msg_id = msg_id

    def __repr__(self):
        return "<Envelope %s->%s %s (%dB)>" % (
            self.src,
            self.dst,
            type(self.payload).__name__,
            self.size,
        )


def payload_size(payload):
    """Estimate the wire size of *payload* in bytes, including headers."""
    cls = payload.__class__
    sizer = _SIZERS.get(cls)
    if sizer is None:
        sizer = _SIZERS[cls] = _make_sizer(cls)
    return HEADER_BYTES + sizer(payload)


def _body_size(obj):
    cls = obj.__class__
    sizer = _SIZERS.get(cls)
    if sizer is None:
        sizer = _SIZERS[cls] = _make_sizer(cls)
    return sizer(obj)


def _str_size(obj):
    return len(obj.encode("utf-8"))


def _container_size(obj):
    return 8 + sum(_body_size(item) for item in obj)


def _dict_size(obj):
    return 8 + sum(
        _body_size(key) + _body_size(value) for key, value in obj.items()
    )


def _generic_size(obj):
    wire_size = getattr(obj, "wire_size", None)
    if callable(wire_size):
        return wire_size()
    slots = getattr(obj, "__slots__", None)
    if slots:
        return 8 + sum(
            _body_size(getattr(obj, slot, None)) for slot in slots
        )
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        return 8 + sum(_body_size(value) for value in attrs.values())
    return 16


def _make_sizer(cls):
    """Pick the sizing strategy for *cls* once; cached in ``_SIZERS``.

    Which branch of the estimator applies is a property of the class,
    not the instance, so the ``isinstance`` ladder runs once per payload
    type instead of once per message.  Sizes themselves stay
    per-instance (a 1 KiB write still costs more than an empty one).
    """
    if callable(getattr(cls, "wire_size", None)):
        # First: a payload class that is also a tuple (a zxid) must be
        # sized by its own declaration, not walked as a container.
        return cls.wire_size
    if cls is type(None) or issubclass(cls, bool):
        return lambda obj: 1
    if issubclass(cls, (int, float)):
        return lambda obj: 8
    if issubclass(cls, (bytes, bytearray)):
        return len
    if issubclass(cls, str):
        return _str_size
    if issubclass(cls, (list, tuple, set, frozenset)):
        return _container_size
    if issubclass(cls, dict):
        return _dict_size
    return _generic_size


_SIZERS = {}  # payload class -> body sizer (strategy resolved once)
