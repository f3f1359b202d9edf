"""Unit tests for splittable deterministic randomness."""

import hashlib
import io
import random

import pytest

from repro.mc.explorer import _ImagePickler, _load_image
from repro.sim import Simulator, SplitRandom


def test_same_seed_same_stream():
    a = SplitRandom(42).stream("x")
    b = SplitRandom(42).stream("x")
    assert [a.random() for _ in range(10)] == [
        b.random() for _ in range(10)
    ]


def test_different_labels_different_streams():
    root = SplitRandom(42)
    a = root.stream("alpha")
    b = root.stream("beta")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_stream_is_cached():
    root = SplitRandom(1)
    assert root.stream("x") is root.stream("x")


def test_split_children_independent():
    root = SplitRandom(7)
    child_a = root.split("a").stream("s")
    child_b = root.split("b").stream("s")
    assert child_a.random() != child_b.random()


def test_draw_order_in_one_stream_does_not_affect_another():
    root1 = SplitRandom(5)
    root2 = SplitRandom(5)
    # Interleave draws differently; per-label sequences must match.
    s1a, s1b = root1.stream("a"), root1.stream("b")
    seq1 = [s1a.random(), s1b.random(), s1a.random()]
    s2b, s2a = root2.stream("b"), root2.stream("a")
    _ = s2b.random()
    seq2 = [s2a.random(), None, s2a.random()]
    assert seq1[0] == seq2[0]
    assert seq1[2] == seq2[2]


def test_simulator_embeds_seeded_random():
    sim1 = Simulator(seed=9)
    sim2 = Simulator(seed=9)
    assert (
        sim1.random.stream("net").random()
        == sim2.random.stream("net").random()
    )


def _draws(stream):
    """A mixed sequence of the draws simulated components make."""
    items = list(range(10))
    stream.shuffle(items)
    return [
        stream.random(), stream.getrandbits(7), stream.getrandbits(64),
        stream.randrange(64), stream.randrange(3, 1000, 7),
        stream.expovariate(800.0), stream.gauss(0.0, 1.0), items,
    ]


def test_stream_draws_what_the_plain_random_stream_drew():
    # The stream a label derives is a plain random.Random seeded from
    # the label's digest.
    seed, label = 11, "net:jitter"
    digest = hashlib.sha256(("%s/%s" % (seed, label)).encode()).digest()
    plain = random.Random(int.from_bytes(digest[:8], "big"))
    stream = SplitRandom(seed).stream(label)
    assert type(stream) is random.Random
    assert [_draws(stream) for _ in range(50)] == [
        _draws(plain) for _ in range(50)
    ]


@pytest.mark.parametrize("gauss_pending", [False, True])
def test_a_pickled_stream_continues_like_the_original(gauss_pending):
    # An explored execution pickles its streams inside a step-boundary
    # image, each as its shared getstate() tuple.
    stream = SplitRandom(3).stream("x")
    for _ in range(700):    # past one full twist of the state
        stream.random()
    stream.gauss(0.0, 1.0)
    if not gauss_pending:
        stream.gauss(0.0, 1.0)
    assert (stream.gauss_next is not None) == gauss_pending
    blob = io.BytesIO()
    pickler = _ImagePickler(blob)
    pickler.dump([stream])
    assert pickler.shared == [stream.getstate()]
    copy, = _load_image((blob.getvalue(), tuple(pickler.shared)))
    assert type(copy) is random.Random and copy is not stream
    assert copy.gauss_next == stream.gauss_next
    assert [_draws(copy) for _ in range(50)] == [
        _draws(stream) for _ in range(50)
    ]
