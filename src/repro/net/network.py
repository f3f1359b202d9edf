"""The simulated network fabric.

Guarantees offered to protocol code, mirroring the TCP assumptions in the
Zab paper (Section on system model):

- **Reliable FIFO per pair**: messages from *src* to *dst* arrive in send
  order and are not lost while both endpoints stay up and connected.
- **Crash = connection reset**: messages in flight to a node that crashes
  (or restarts) before delivery are dropped, like packets of a dead TCP
  connection.
- **Partitions** drop messages at send time.

Performance model, used by the benchmarks:

- Each node has an egress NIC of finite bandwidth; concurrent sends from the
  same node serialise.  This is what makes a Zab leader's throughput fall as
  ``B / (n - 1)`` in the saturated-throughput experiment.
- One-way propagation latency with optional uniform jitter.
"""

from repro.common.errors import ConfigError
from repro.net.message import Envelope, payload_size
from repro.net.partitions import PartitionManager
from repro.net.stats import NetworkStats
from repro.obs.trace import NULL_TRACER

# Minimum spacing enforced between two deliveries on the same (src, dst)
# pair, so jitter can never reorder a FIFO channel.
_FIFO_EPSILON = 1e-9


def _payload_zxid(payload):
    """The transaction id a commit-path message carries, as a JSON-safe
    tuple, or None for messages that are not about one transaction
    (duck-typed so the fabric stays protocol-agnostic)."""
    zxid = getattr(payload, "zxid", None)
    as_tuple = getattr(zxid, "as_tuple", None)
    return as_tuple() if as_tuple is not None else None


class NetworkConfig:
    """Tunable parameters of the network fabric.

    bandwidth_bps
        Egress NIC capacity per node, in bytes/second.  ``None`` disables
        the bandwidth model (messages only pay latency).
    latency
        Base one-way propagation delay, seconds.
    jitter
        Upper bound of uniform extra delay added per message, seconds.
    loss_rate
        Probability of silently dropping a message.  Zab assumes reliable
        channels, so this defaults to 0; tests use it to demonstrate that
        safety is preserved even when the transport misbehaves.
    """

    def __init__(self, bandwidth_bps=None, latency=0.0002, jitter=0.00005,
                 loss_rate=0.0):
        if latency < 0 or jitter < 0:
            raise ConfigError("latency and jitter must be non-negative")
        if not 0.0 <= loss_rate < 1.0:
            raise ConfigError("loss_rate must be in [0, 1)")
        if bandwidth_bps is not None and bandwidth_bps <= 0:
            raise ConfigError("bandwidth_bps must be positive or None")
        self.bandwidth_bps = bandwidth_bps
        self.latency = latency
        self.jitter = jitter
        self.loss_rate = loss_rate


class Network:
    """Routes messages between registered handlers over simulated links."""

    def __init__(self, sim, config=None, tracer=None):
        self.sim = sim
        self.config = config or NetworkConfig()
        self.partitions = PartitionManager()
        self.stats = NetworkStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._handlers = {}
        self._alive = {}
        self._incarnation = {}
        self._nic_free_at = {}
        self._last_arrival = {}
        self._link_latency = {}   # (src, dst) -> one-way latency override
        self._node_bandwidth = {}  # node -> egress bytes/s override
        self._rng = sim.random.stream("network")
        self._msg_seq = 0         # monotone id linking net.send -> net.deliver
        # (src, dst, payload class) -> (stats cell, type name, (src, dst)):
        # what _send would otherwise look up or build for every message.
        self._links = {}

    # ------------------------------------------------------------------
    # Endpoint lifecycle
    # ------------------------------------------------------------------

    def register(self, node_id, handler):
        """Attach *handler(src, payload)* as the endpoint for *node_id*.

        Re-registering (after a simulated restart) bumps the node's
        incarnation, which discards messages that were in flight to the
        previous incarnation — the moral equivalent of a TCP reset.  The
        reset also retires the node's per-pair FIFO floors and NIC
        bookkeeping: a fresh connection owes no ordering to packets of a
        dead one, and without the purge a long campaign of client
        restarts grows ``_last_arrival`` (and the per-link cache) without
        bound.
        """
        returning = node_id in self._handlers
        self._handlers[node_id] = handler
        self._alive[node_id] = True
        self._incarnation[node_id] = self._incarnation.get(node_id, 0) + 1
        if returning:
            for table in (self._last_arrival, self._links):
                for key in [key for key in table
                            if key[0] == node_id or key[1] == node_id]:
                    del table[key]
        self._nic_free_at[node_id] = 0.0

    def set_alive(self, node_id, alive):
        """Mark a node up or down without changing its handler."""
        if node_id not in self._handlers:
            raise ConfigError("unknown node: %r" % (node_id,))
        self._alive[node_id] = alive
        if alive:
            self._incarnation[node_id] += 1

    def is_alive(self, node_id):
        """True if the node is registered and currently up."""
        return self._alive.get(node_id, False)

    def set_link_latency(self, src, dst, latency, symmetric=True):
        """Override the one-way latency of a specific link.

        Used to model heterogeneous topologies (e.g. one replica in a
        remote datacenter).  Pass ``None`` to restore the default.
        """
        if latency is None:
            self._link_latency.pop((src, dst), None)
            if symmetric:
                self._link_latency.pop((dst, src), None)
            return
        if latency < 0:
            raise ConfigError("latency must be non-negative")
        self._link_latency[(src, dst)] = latency
        if symmetric:
            self._link_latency[(dst, src)] = latency

    def set_node_bandwidth(self, node, bandwidth_bps):
        """Override one node's egress NIC speed (bytes/second).

        Models heterogeneous clusters — e.g. one replica on an older
        machine.  Pass ``None`` to restore the config default.  Only
        effective when the bandwidth model is enabled.
        """
        if bandwidth_bps is None:
            self._node_bandwidth.pop(node, None)
            return
        if bandwidth_bps <= 0:
            raise ConfigError("bandwidth must be positive")
        self._node_bandwidth[node] = bandwidth_bps

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(self, src, dst, payload):
        """Queue *payload* for delivery; returns the in-flight envelope.

        Messages to unknown, dead, or partitioned destinations are dropped
        silently (counted in stats), matching a connect failure.
        """
        return self._send(src, dst, payload, payload_size(payload))

    def broadcast(self, src, dsts, payload):
        """Send the same payload to every node in *dsts* (serialised on
        the source NIC, in iteration order).

        The wire size is computed once for the whole fan-out — on the
        leader commit path this is one structural walk per proposal
        instead of one per follower.
        """
        size = payload_size(payload)
        send = self._send
        for dst in dsts:
            send(src, dst, payload, size)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _send(self, src, dst, payload, size):
        """The per-message fast path; *size* is precomputed by callers."""
        cls = payload.__class__
        link = self._links.get((src, dst, cls))
        if link is None:
            link = self._links[(src, dst, cls)] = (
                self.stats.send_cell(src, cls.__name__, dst), cls.__name__,
                (src, dst),
            )
        cell, type_name, pair = link
        cell[0] += 1
        cell[1] += size
        msg_id = self._msg_seq + 1
        self._msg_seq = msg_id
        sim = self.sim
        now = sim.now
        envelope = Envelope(src, dst, payload, size, now, msg_id)

        if not self._alive.get(src, False):
            self._drop(envelope, src, "src-dead")
            return envelope
        if dst not in self._handlers:
            self._drop(envelope, dst, "unknown-dest")
            return envelope
        # Nothing partitioned or cut is the common case: skip the call.
        partitions = self.partitions
        if ((partitions._groups is not None or partitions._cut_links)
                and not partitions.connected(src, dst)):
            self._drop(envelope, dst, "partitioned")
            return envelope
        config = self.config
        if config.loss_rate and self._rng.random() < config.loss_rate:
            self._drop(envelope, dst, "loss")
            return envelope

        tracer = self.tracer
        if tracer.active:
            tracer.emit(
                "net.send", node=src, dst=dst,
                type=type_name, size=size,
                msg_id=msg_id, zxid=_payload_zxid(payload),
            )

        # Arrival time, inlined (this runs once per message): NIC
        # serialisation, link latency, jitter, then the per-pair FIFO
        # floor.  The RNG is consulted in exactly the same order as the
        # checks above, so seeded runs stay bit-identical.
        if config.bandwidth_bps is not None:
            bandwidth = self._node_bandwidth.get(src, config.bandwidth_bps)
            free_at = self._nic_free_at.get(src, 0.0)
            tx_done = (now if now > free_at else free_at) + size / bandwidth
            self._nic_free_at[src] = tx_done
        else:
            tx_done = now
        if self._link_latency:
            arrival = tx_done + self._link_latency.get(pair, config.latency)
        else:
            arrival = tx_done + config.latency
        if config.jitter:
            # uniform(0.0, jitter), bit for bit: 0.0 + (j - 0.0) * random()
            arrival += config.jitter * self._rng.random()
        # Enforce FIFO per directed pair despite jitter.
        last_arrival = self._last_arrival
        floor = last_arrival.get(pair, 0.0) + _FIFO_EPSILON
        if arrival < floor:
            arrival = floor
        last_arrival[pair] = arrival

        sim.schedule_at(
            arrival, self._deliver, envelope, self._incarnation[dst]
        )
        return envelope

    def _drop(self, envelope, node, reason):
        """Account one dropped message (stats + optional trace event)."""
        self.stats.record_drop(node, reason)
        tracer = self.tracer
        if tracer.active:
            tracer.emit(
                "net.drop", node=node, reason=reason,
                src=envelope.src, dst=envelope.dst,
                type=type(envelope.payload).__name__,
                msg_id=envelope.msg_id,
            )

    def _deliver(self, envelope, target_incarnation):
        dst = envelope.dst
        if not self._alive.get(dst, False):
            self._drop(envelope, dst, "dest-dead")
            return
        if self._incarnation.get(dst) != target_incarnation:
            self._drop(envelope, dst, "stale-incarnation")
            return
        self.stats.record_receive(dst, envelope.size)
        tracer = self.tracer
        if tracer.active:
            tracer.emit(
                "net.deliver", node=dst, src=envelope.src,
                type=type(envelope.payload).__name__, size=envelope.size,
                latency=self.sim.now - envelope.send_time,
                msg_id=envelope.msg_id,
                zxid=_payload_zxid(envelope.payload),
            )
        self._handlers[dst](envelope.src, envelope.payload)
