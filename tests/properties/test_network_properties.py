"""Property tests for the network fabric's core guarantees."""

import collections

from hypothesis import given, settings, strategies as st

from repro.net import Network, NetworkConfig, payload_size
from repro.net.stats import NetworkStats
from repro.sim import Simulator


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 1000),
    jitter=st.floats(min_value=0.0, max_value=0.05),
    bandwidth=st.one_of(
        st.none(), st.floats(min_value=1e3, max_value=1e9)
    ),
    count=st.integers(min_value=1, max_value=40),
)
def test_fifo_per_pair_under_any_configuration(seed, jitter, bandwidth,
                                               count):
    """Per-(src,dst) FIFO holds for every latency/jitter/bandwidth mix."""
    sim = Simulator(seed=seed)
    net = Network(sim, NetworkConfig(
        bandwidth_bps=bandwidth, latency=0.001, jitter=jitter,
    ))
    received = []
    net.register(1, lambda s, p: None)
    net.register(2, lambda s, p: received.append(p))
    for index in range(count):
        net.send(1, 2, index)
    sim.run()
    assert received == list(range(count))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 1000),
    sizes=st.lists(st.integers(1, 10000), min_size=1, max_size=20),
)
def test_bandwidth_conservation(seed, sizes):
    """Total transfer time is at least total bytes / bandwidth — the NIC
    model never teleports data."""
    bandwidth = 1e5
    sim = Simulator(seed=seed)
    net = Network(sim, NetworkConfig(
        bandwidth_bps=bandwidth, latency=0.0, jitter=0.0,
    ))
    arrival = []
    net.register(1, lambda s, p: None)
    net.register(2, lambda s, p: arrival.append(sim.now))
    total = 0
    for size in sizes:
        payload = b"x" * size
        net.send(1, 2, payload)
        total += size + 64  # header
    sim.run()
    assert arrival[-1] >= total / bandwidth * 0.999


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_identical_seeds_identical_delivery_schedule(seed):
    def schedule():
        sim = Simulator(seed=seed)
        net = Network(sim, NetworkConfig(jitter=0.01))
        log = []
        net.register(1, lambda s, p: None)
        net.register(2, lambda s, p: log.append((sim.now, p)))
        for index in range(10):
            net.send(1, 2, index)
        sim.run()
        return log

    assert schedule() == schedule()


# ----------------------------------------------------------------------
# NetworkStats: counters derived from cells == counters written per send
# ----------------------------------------------------------------------

class _EightCounters:
    """Reference model: the accounting as it was before the counters
    became views — eight Counters written on every send and receive."""

    def __init__(self):
        self.bytes_sent = collections.Counter()
        self.bytes_received = collections.Counter()
        self.messages_sent = collections.Counter()
        self.messages_received = collections.Counter()
        self.by_type = collections.Counter()
        self.bytes_by_type = collections.Counter()
        self.bytes_by_pair = collections.Counter()
        self.messages_by_pair = collections.Counter()
        self.messages_dropped = 0
        self.drops_by_reason = collections.Counter()
        self.drops_by_node = collections.Counter()

    def record_send(self, node, size, payload_type=None, dst=None):
        self.bytes_sent[node] += size
        self.messages_sent[node] += 1
        if payload_type is not None:
            self.by_type[payload_type] += 1
            self.bytes_by_type[payload_type] += size
        if dst is not None:
            self.bytes_by_pair[(node, dst)] += size
            self.messages_by_pair[(node, dst)] += 1

    def record_receive(self, node, size):
        self.bytes_received[node] += size
        self.messages_received[node] += 1

    def record_drop(self, node=None, reason="unknown"):
        self.messages_dropped += 1
        self.drops_by_reason[reason] += 1
        if node is not None:
            self.drops_by_node[node] += 1


_VIEWS = ("bytes_sent", "bytes_received", "messages_sent",
          "messages_received", "by_type", "bytes_by_type", "bytes_by_pair",
          "messages_by_pair", "messages_dropped", "drops_by_reason",
          "drops_by_node")


def _assert_same_accounting(stats, model):
    for name in _VIEWS:
        assert getattr(stats, name) == getattr(model, name), name
    # Same keys in the same order (first use), not just equal mappings.
    snapshot = stats.snapshot()
    for name in _VIEWS[:6]:
        assert list(snapshot[name].items()) == list(
            getattr(model, name).items()), name
    for name in ("bytes_by_pair", "messages_by_pair"):
        assert list(snapshot[name].items()) == [
            ("%s->%s" % pair, count)
            for pair, count in getattr(model, name).items()
        ], name
    assert stats.total_bytes() == sum(model.bytes_sent.values())
    assert stats.total_messages() == sum(model.messages_sent.values())
    for node in (1, 2, 3, 99):
        assert stats.egress_bytes(node) == model.bytes_sent.get(node, 0)
    # Counter semantics: a key never written reads 0.
    assert stats.by_type["Nope"] == 0 and stats.bytes_by_pair[(9, 9)] == 0


_nodes = st.integers(1, 3)
_records = st.lists(
    st.one_of(
        st.tuples(st.just("send"), _nodes, st.integers(0, 5000),
                  st.sampled_from([None, "Propose", "Ack", "Commit"]),
                  st.one_of(st.none(), _nodes)),
        st.tuples(st.just("receive"), _nodes, st.integers(0, 5000)),
        st.tuples(st.just("drop"), st.one_of(st.none(), _nodes),
                  st.sampled_from(["loss", "dest-dead", "partitioned"])),
    ),
    max_size=60,
)


@given(_records)
def test_stats_views_equal_the_eight_counter_model(records):
    stats, model = NetworkStats(), _EightCounters()
    for kind, *args in records:
        for target in (stats, model):
            getattr(target, "record_" + kind)(*args)
    _assert_same_accounting(stats, model)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 1000),
    sends=st.lists(
        st.tuples(_nodes, st.integers(1, 4),
                  st.sampled_from(["text", b"bytes", 7, ("tu", "ple")]),
                  st.booleans()),
        max_size=40,
    ),
)
def test_fabric_accounting_equals_the_model(seed, sends):
    """Network writes its per-link cells directly; whatever it caches per
    link (and drops when a node restarts) must account like the model."""
    sim = Simulator(seed=seed)
    net = Network(sim, NetworkConfig(bandwidth_bps=1e6))
    model = _EightCounters()

    def handler(node):
        return lambda src, payload: model.record_receive(
            node, payload_size(payload))

    for node in (1, 2, 3):
        net.register(node, handler(node))
    for src, dst, payload, restart_dst in sends:
        net.send(src, dst, payload)        # dst 4 is never registered
        model.record_send(
            src, payload_size(payload), type(payload).__name__, dst)
        if dst == 4:
            model.record_drop(4, "unknown-dest")
        elif restart_dst:
            sim.run()
            net.register(dst, handler(dst))
    sim.run()
    _assert_same_accounting(net.stats, model)
