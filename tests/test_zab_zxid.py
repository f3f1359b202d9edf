"""Unit and property tests for transaction identifiers."""

import bisect
import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.net.message import payload_size
from repro.zab.zxid import Zxid, ZXID_ZERO, max_zxid

epochs = st.integers(min_value=0, max_value=2**31 - 1)
counters = st.integers(min_value=0, max_value=2**32 - 1)
zxids = st.builds(Zxid, epochs, counters)


def test_ordering_epoch_dominates():
    assert Zxid(1, 999) < Zxid(2, 0)


def test_ordering_counter_within_epoch():
    assert Zxid(3, 4) < Zxid(3, 5)


def test_equality_and_hash():
    assert Zxid(2, 7) == Zxid(2, 7)
    assert hash(Zxid(2, 7)) == hash(Zxid(2, 7))
    assert Zxid(2, 7) != Zxid(2, 8)
    assert len({Zxid(1, 1), Zxid(1, 1), Zxid(1, 2)}) == 2


def test_next_increments_counter_only():
    assert Zxid(4, 9).next() == Zxid(4, 10)


def test_zero_sorts_first():
    assert ZXID_ZERO < Zxid(1, 0)
    assert ZXID_ZERO <= Zxid(0, 0)


def test_negative_parts_rejected():
    with pytest.raises(ValueError):
        Zxid(-1, 0)
    with pytest.raises(ValueError):
        Zxid(0, -1)


def test_max_zxid_handles_none():
    assert max_zxid(None, Zxid(1, 1)) == Zxid(1, 1)
    assert max_zxid(Zxid(1, 1), None) == Zxid(1, 1)
    assert max_zxid(Zxid(1, 2), Zxid(1, 1)) == Zxid(1, 2)
    assert max_zxid(None, None) is None


def test_comparison_with_non_zxid_not_supported():
    assert Zxid(1, 1) != "zxid"
    with pytest.raises(TypeError):
        _ = Zxid(1, 1) < 5


@given(zxids)
def test_pack_unpack_roundtrip(zxid):
    assert Zxid.unpack(zxid.packed()) == zxid


@given(zxids, zxids)
def test_packed_order_matches_tuple_order(a, b):
    assert (a < b) == (a.packed() < b.packed())


@given(zxids, zxids)
def test_total_order(a, b):
    assert (a < b) + (b < a) + (a == b) == 1


@given(zxids, zxids, zxids)
def test_transitivity(a, b, c):
    if a < b and b < c:
        assert a < c


def test_packed_rejects_parts_that_overflow_the_64_bit_form():
    # The high counter bits used to be OR-ed into the epoch field:
    # Zxid.unpack(Zxid(1, 2**32 + 5).packed()) came back as zxid(1:5).
    with pytest.raises(OverflowError):
        Zxid(1, 2**32 + 5).packed()
    with pytest.raises(OverflowError):
        Zxid(2**31, 0).packed()
    top = Zxid(2**31 - 1, 2**32 - 1)
    assert Zxid.unpack(top.packed()) == top


@given(zxids, zxids)
def test_order_is_tuple_order_of_the_parts(a, b):
    assert (a < b) == ((a.epoch, a.counter) < (b.epoch, b.counter))
    assert (a == b) == (a.as_tuple() == b.as_tuple())
    assert (a <= b) == (not b < a)


def test_is_a_tuple_of_its_parts():
    # Documented consequence of comparing in C: a zxid equals the plain
    # tuple of its parts, and as_tuple() is that plain tuple.
    z = Zxid(3, 4)
    assert z == (3, 4) and z.as_tuple() == (3, 4)
    assert type(z.as_tuple()) is tuple
    assert (z.epoch, z.counter) == (3, 4)
    with pytest.raises(AttributeError):
        z.epoch = 5


def test_bisect_and_dict_key():
    log = [Zxid(1, 1), Zxid(1, 2), Zxid(2, 1), Zxid(2, 2)]
    assert bisect.bisect_right(log, Zxid(1, 2)) == 2
    assert bisect.bisect_left(log, Zxid(2, 1)) == 2
    assert bisect.bisect_right(log, Zxid(1, 7)) == 2
    window = {Zxid(1, 2): "a"}
    window[Zxid(1, 2)] = "b"     # an equal-valued instance is the same key
    assert window == {Zxid(1, 2): "b"}


def test_repr_and_formatting():
    z = Zxid(1, 2)
    assert repr(z) == str(z) == "zxid(1:2)"
    assert "%s" % (z,) == "zxid(1:2)"
    assert "%r after %r" % (z, None) == "zxid(1:2) after None"


def test_copy_and_pickle_roundtrip():
    z = Zxid(5, 6)
    for clone in (copy.copy(z), copy.deepcopy(z),
                  pickle.loads(pickle.dumps(z, pickle.HIGHEST_PROTOCOL)),
                  pickle.loads(pickle.dumps(z, 0))):
        assert type(clone) is Zxid and clone == z


def test_wire_size_is_declared_not_walked():
    # A zxid is a tuple, but it is sized by wire_size(), not as a
    # 24-byte container of two ints.
    assert Zxid(1, 2).wire_size() == 8
    assert payload_size(Zxid(1, 2)) == 72
