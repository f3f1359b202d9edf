"""Unit and property tests for the replicated KV state machine."""

from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.app import KVStateMachine
from repro.zab.peer import ZabPeer


def prepared_apply(sm, op):
    return sm.apply(sm.prepare(op))


def test_put_and_get():
    sm = KVStateMachine()
    prepared_apply(sm, ("put", "a", 1))
    assert sm.read(("get", "a")) == 1
    assert sm.read(("get", "missing")) is None


def test_incr_resolves_to_absolute_set():
    sm = KVStateMachine()
    prepared_apply(sm, ("put", "n", 10))
    delta = sm.prepare(("incr", "n", 5))
    assert delta == ("set", "n", 15)
    sm.apply(delta)
    assert sm.read(("get", "n")) == 15


def test_incr_from_absent_key_starts_at_zero():
    sm = KVStateMachine()
    assert sm.prepare(("incr", "n", 3)) == ("set", "n", 3)


def test_incr_non_number_fails():
    sm = KVStateMachine()
    prepared_apply(sm, ("put", "s", "text"))
    assert sm.prepare(("incr", "s", 1))[0] == "fail"


def test_append_resolves_to_absolute_set():
    sm = KVStateMachine()
    prepared_apply(sm, ("put", "s", "ab"))
    assert sm.prepare(("append", "s", "cd")) == ("set", "s", "abcd")


def test_cas_success_and_mismatch():
    sm = KVStateMachine()
    prepared_apply(sm, ("put", "k", "old"))
    assert sm.prepare(("cas", "k", "old", "new")) == ("set", "k", "new")
    assert sm.prepare(("cas", "k", "wrong", "x"))[0] == "fail"


def test_delete():
    sm = KVStateMachine()
    prepared_apply(sm, ("put", "k", 1))
    prepared_apply(sm, ("del", "k"))
    assert sm.read(("get", "k")) is None


def test_fail_delta_applies_as_error_without_mutation():
    sm = KVStateMachine()
    result = sm.apply(("fail", "k", "reason"))
    assert result == ("error", "reason")
    assert sm.read(("keys",)) == []


def test_reads_classified():
    sm = KVStateMachine()
    assert sm.is_read(("get", "a"))
    assert sm.is_read(("keys",))
    assert sm.is_read(("len",))
    assert not sm.is_read(("put", "a", 1))


def test_unknown_ops_rejected():
    sm = KVStateMachine()
    with pytest.raises(Exception):
        sm.prepare(("bogus",))
    with pytest.raises(Exception):
        sm.apply(("bogus",))
    with pytest.raises(Exception):
        sm.read(("bogus",))


def test_serialize_restore_roundtrip():
    sm = KVStateMachine()
    for i in range(10):
        prepared_apply(sm, ("put", "k%d" % i, i))
    blob, nbytes = sm.serialize()
    assert nbytes > 0
    other = KVStateMachine()
    other.restore(blob)
    assert other.as_dict() == sm.as_dict()
    assert other.applied_count == sm.applied_count
    # Restored copy is independent of the original.
    prepared_apply(other, ("put", "new", 1))
    assert "new" not in sm.as_dict()


def test_op_size_scales_with_payload():
    sm = KVStateMachine()
    small = sm.op_size(("put", "k", "v"))
    large = sm.op_size(("put", "k", "v" * 1000))
    assert large - small == 999


ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from("abc"),
                  st.integers(-100, 100)),
        st.tuples(st.just("incr"), st.sampled_from("abc"),
                  st.integers(-10, 10)),
        st.tuples(st.just("del"), st.sampled_from("abc")),
    ),
    max_size=30,
)


@given(ops)
def test_replaying_deltas_reproduces_state(op_list):
    """The property the whole paper leans on: a replica applying the
    primary's deltas in order reaches exactly the primary's state."""
    primary = KVStateMachine()
    deltas = []
    for op in op_list:
        delta = primary.prepare(op)
        primary.apply(delta)
        deltas.append(delta)
    replica = KVStateMachine()
    for delta in deltas:
        replica.apply(delta)
    assert replica.as_dict() == primary.as_dict()


@given(ops, st.integers(min_value=0, max_value=30))
def test_snapshot_mid_stream_equivalent_to_full_replay(op_list, cut):
    """Restoring a snapshot then replaying the suffix equals full replay."""
    cut = min(cut, len(op_list))
    primary = KVStateMachine()
    deltas = [primary.prepare(op) for op in op_list[:0]]  # none yet
    deltas = []
    for op in op_list:
        delta = primary.prepare(op)
        primary.apply(delta)
        deltas.append(delta)

    checkpointer = KVStateMachine()
    for delta in deltas[:cut]:
        checkpointer.apply(delta)
    blob, _ = checkpointer.serialize()

    restored = KVStateMachine()
    restored.restore(blob)
    for delta in deltas[cut:]:
        restored.apply(delta)
    assert restored.as_dict() == primary.as_dict()


# --- snapshot size is kept incrementally --------------------------------------

_keys = st.sampled_from(["a", "b", "long-key-name", b"raw", 7])
_values = st.one_of(
    st.text(max_size=20), st.binary(max_size=20), st.integers(-5, 5),
    st.floats(allow_nan=False), st.none(), st.tuples(st.integers(0, 3)),
)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _keys, _values),
        st.tuples(st.just("incr"), _keys, st.integers(-3, 3)),
        st.tuples(st.just("append"), _keys, st.text(max_size=5)),
        st.tuples(st.just("cas"), _keys, _values, _values),
        st.tuples(st.just("del"), _keys),
        st.just(("noop",)),
        st.just(("restore",)),
        st.just(("clone",)),
    ),
    max_size=40,
)


def _walked_size(sm):
    """The snapshot size as serialize() used to compute it: a full walk."""
    size = KVStateMachine._value_size
    return 16 + sum(
        size(key) + size(value) for key, value in sm.as_dict().items()
    )


@given(_steps)
def test_incremental_snapshot_size_equals_a_full_walk(steps):
    sm = KVStateMachine()
    assert sm.serialize()[1] == 16
    for step in steps:
        if step == ("noop",):
            sm.apply(step)
        elif step == ("restore",):
            restored = KVStateMachine()
            restored.restore(sm.serialize()[0])
            sm = restored
        elif step == ("clone",):
            # ZabPeer.clone_state_machine needs only these two attributes.
            sm = ZabPeer.clone_state_machine(
                SimpleNamespace(app_factory=KVStateMachine, sm=sm)
            )
        else:
            prepared_apply(sm, step)   # incl. "fail" deltas: no change
        assert sm.serialize()[1] == _walked_size(sm), step
