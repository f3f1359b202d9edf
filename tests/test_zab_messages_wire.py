"""Wire-size sanity for every protocol message type.

The bandwidth model only produces meaningful experiment shapes if
payload-bearing messages scale with their payload and control messages
stay small; this pins that contract for each message class.
"""

import importlib
import inspect
import pkgutil

import repro
from repro.app.statemachine import Txn
from repro.net.message import payload_size
from repro.storage import Snapshot
from repro.storage.records import LogRecord
from repro.zab import messages
from repro.zab.zxid import Zxid, ZXID_ZERO

Z = Zxid(1, 1)


def test_control_messages_are_small():
    small = [
        messages.FollowerInfo(1, Z),
        messages.NewEpoch(2),
        messages.AckEpoch(1, Z),
        messages.NewLeader(2, last_zxid=Z),
        messages.AckNewLeader(2, Z),
        messages.UpToDate(2),
        messages.Ack(Z),
        messages.Commit(Z),
        messages.Ping(Z),
        messages.Pong(Z),
        messages.HistoryRequest(),
        messages.SyncRequest(("peer", 1)),
        messages.SyncReply(("peer", 1), Z),
        messages.WatchEvent("/a", "changed"),
        messages.Notification(1, Z, 1, 1, messages.LOOKING),
    ]
    for message in small:
        assert payload_size(message) < 300, type(message).__name__


def test_payload_messages_scale_with_content():
    for cls in (messages.Propose, messages.Inform, messages.SyncTxn):
        small = payload_size(cls(Z, None, 100))
        large = payload_size(cls(Z, None, 100000))
        assert large - small == 99900, cls.__name__


def test_sync_start_carries_snapshot_weight():
    bare = payload_size(messages.SyncStart(messages.SYNC_DIFF))
    snapshot = Snapshot(Z, ("blob", 1), 50000)
    heavy = payload_size(
        messages.SyncStart(messages.SYNC_SNAP, snapshot=snapshot)
    )
    assert heavy - bare == 50000


def test_history_response_sums_records():
    records = [LogRecord(Zxid(1, i), None, 1000) for i in range(1, 6)]
    message = messages.HistoryResponse(1, records)
    assert payload_size(message) >= 5000


def test_client_messages():
    request = messages.ClientRequest("r1", "client:a", ("put", "k", "v"),
                                     size=500)
    assert payload_size(request) >= 500
    reply = messages.ClientReply("r1", True, result="v", zxid=Z)
    assert payload_size(reply) < 300
    forwarded = messages.ForwardedRequest("r1", "client:a", 2,
                                          ("put", "k", "v"), size=500)
    assert payload_size(forwarded) >= 500


def test_notification_vote_key_ordering():
    better = messages.Notification(2, Zxid(2, 1), 2, 1, messages.LOOKING)
    worse = messages.Notification(9, Zxid(1, 50), 1, 1, messages.LOOKING)
    assert better.vote() > worse.vote()
    assert worse.vote()[2] == 9


def test_zxid_zero_in_messages():
    message = messages.AckEpoch(0, ZXID_ZERO)
    assert payload_size(message) > 0


# ----------------------------------------------------------------------
# Every wire size, pinned
# ----------------------------------------------------------------------

TXN = Txn("t1.1", "r1", "client:a", 2, ("set", "k", "v"), 100)
SNAP = Snapshot(Z, ("blob", 1), 5000)
PUT = ("put", "k", "v")

#: payload_size() of one representative instance of every message class,
#: captured at PR 12 (the commit before the sizer was made per-class).
#: The sizes feed the NIC model, so a sizer change that moves one of
#: these moves every sim_* result; change a literal only on purpose.
WIRE_SIZES = [
    (Z, 72),
    (TXN, 196),
    (messages.Notification(1, Z, 1, 1, messages.LOOKING), 111),
    (messages.FollowerInfo(1, Z), 88),
    (messages.NewEpoch(2), 80),
    (messages.AckEpoch(1, Z), 88),
    (messages.HistoryRequest(), 80),
    (messages.HistoryResponse(1, [LogRecord(Z, TXN, 100)], snapshot=SNAP),
     5228),
    (messages.SyncStart(messages.SYNC_DIFF), 144),
    (messages.SyncStart(messages.SYNC_SNAP, snapshot=SNAP), 5144),
    (messages.SyncTxn(Z, TXN, 100), 236),
    (messages.NewLeader(2, last_zxid=Z), 88),
    (messages.AckNewLeader(2, Z), 88),
    (messages.UpToDate(2), 80),
    (messages.Propose(Z, TXN, 100), 236),
    (messages.Ack(Z), 80),
    (messages.Commit(Z), 80),
    (messages.Inform(Z, TXN, 100), 236),
    # A relayed PROPOSE over a two-level route, and a relayed COMMIT:
    # the wrapped COMMIT is charged a full header, not its 16-byte body.
    (messages.Relay(1, 1, messages.Propose(Z, TXN, 100),
                    ((2, ((3, ()),)),)), 268),
    (messages.Relay(1, 1, messages.Commit(Z), ((2, ()),)), 152),
    # A COMMIT riding with the next PROPOSE: one header for both, where
    # sent bare they cost 80 + 236.
    (messages.Frame([messages.Commit(Z), messages.Propose(Zxid(1, 2), TXN,
                                                          100)]), 252),
    (messages.Ping(Z), 82),
    (messages.Ping(Z, digest_position=100, digest="0123456789abcdef"), 104),
    (messages.Pong(Z), 80),
    (messages.SyncRequest((2, 1)), 96),
    (messages.SyncReply((2, 1), Z), 104),
    (messages.ClientRequest("r1", "client:a", PUT, size=100), 245),
    (messages.WatchEvent("/a", "changed"), 81),
    (messages.ForwardedRequest("r1", "client:a", 2, PUT, size=100), 252),
    (messages.ClientReply("r1", True, result="v", zxid=Z), 85),
    (messages.ClientReply("r1", False, leader_hint=3), 85),
]


def _message_classes():
    return [
        cls for _name, cls in inspect.getmembers(messages, inspect.isclass)
        if cls.__module__ == messages.__name__
    ]


def test_every_wire_size_is_pinned():
    for instance, expected in WIRE_SIZES:
        assert payload_size(instance) == expected, instance
    covered = {type(instance) for instance, _size in WIRE_SIZES}
    assert covered >= set(_message_classes())


def test_no_message_class_is_subclassed():
    # The role contexts dispatch on the exact class of a message.
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    for cls in _message_classes():
        assert cls.__subclasses__() == [], cls
