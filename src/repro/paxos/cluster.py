"""Harness for the Paxos baseline, mirroring :class:`repro.harness.Cluster`."""

from repro.app.kvstore import KVStateMachine
from repro.checker import check_all, Trace
from repro.common.errors import ConfigError
from repro.net import Network, NetworkConfig
from repro.paxos.replica import PaxosConfig, PaxosReplica
from repro.sim import Simulator


class PaxosCluster:
    """An n-replica Paxos ensemble on a simulated network."""

    def __init__(self, n_replicas, seed=0, net_config=None,
                 app_factory=KVStateMachine, trace=None, **config_overrides):
        if n_replicas < 1:
            raise ConfigError("need at least one replica")
        self.sim = Simulator(seed=seed)
        self.network = Network(self.sim, net_config or NetworkConfig())
        self.trace = trace if trace is not None else Trace()
        peers = tuple(range(1, n_replicas + 1))
        self.config = PaxosConfig(peers, **config_overrides)
        self.replicas = {
            peer: PaxosReplica(
                self.sim, self.network, peer, self.config,
                app_factory=app_factory, trace=self.trace,
            )
            for peer in peers
        }

    def start(self):
        for replica in self.replicas.values():
            replica.start()
        return self

    def run(self, duration):
        return self.sim.run_for(duration)

    def run_until(self, predicate, timeout=30.0, step=0.01):
        deadline = self.sim.now + timeout
        while self.sim.now < deadline:
            if predicate():
                return True
            self.sim.run(until=min(self.sim.now + step, deadline))
        return bool(predicate())

    def leader(self):
        """The unique leading replica, or None."""
        leaders = [
            replica
            for replica in self.replicas.values()
            if not replica.crashed and replica.is_leading
        ]
        return leaders[0] if len(leaders) == 1 else None

    def run_until_leader(self, timeout=30.0):
        ok = self.run_until(lambda: self.leader() is not None,
                            timeout=timeout)
        if not ok:
            raise TimeoutError("no Paxos leader after %.1fs" % timeout)
        return self.leader()

    def submit_and_wait(self, op, timeout=10.0):
        """Submit at the leader and run until the op is delivered there."""
        outcome = {}
        leader = self.leader()
        if leader is None:
            raise ConfigError("no leader")
        leader.propose_op(op, callback=lambda result, zxid: outcome.update(
            result=result
        ))
        if not self.run_until(lambda: "result" in outcome, timeout=timeout):
            raise TimeoutError("operation %r not delivered" % (op,))
        return outcome["result"]

    def crash(self, replica_id):
        self.replicas[replica_id].crash()

    def partition(self, *groups):
        self.network.partitions.partition(groups)

    def heal(self):
        self.network.partitions.heal()

    def states(self):
        return {
            replica_id: replica.sm.as_dict()
            for replica_id, replica in self.replicas.items()
            if not replica.crashed and hasattr(replica.sm, "as_dict")
        }

    def check_properties(self):
        """Run the PO broadcast checker over this execution's trace."""
        return check_all(self.trace)
