"""Randomized fault-injection runs checked against the PO properties.

Each scenario runs a cluster under continuous client load while a
seeded adversary crashes, recovers, and partitions peers at random.  At
the end, every execution must satisfy all six broadcast properties and
all surviving replicas must converge to identical state.

These are the closest thing to a model-checking pass in this repo: a
seed that fails here is a reproducible protocol bug.
"""

import pytest

from repro.harness import Cluster, ClusterConfig


class Adversary:
    """Seeded random crash/recover/partition injector."""

    def __init__(self, cluster, max_concurrent_crashes):
        self.cluster = cluster
        self.max_crashes = max_concurrent_crashes
        self.rng = cluster.sim.random.stream("adversary")
        self.actions = []

    def step(self):
        crashed = [
            peer_id for peer_id, peer in self.cluster.peers.items()
            if peer.crashed
        ]
        live = [
            peer_id for peer_id, peer in self.cluster.peers.items()
            if not peer.crashed
        ]
        choice = self.rng.random()
        now = self.cluster.sim.now
        if crashed and (choice < 0.4 or len(crashed) >= self.max_crashes):
            victim = self.rng.choice(crashed)
            self.actions.append((now, "recover", victim))
            self.cluster.recover(victim)
        elif choice < 0.8 and live:
            victim = self.rng.choice(live)
            self.actions.append((now, "crash", victim))
            self.cluster.crash(victim)
        elif choice < 0.9 and len(live) > 2:
            split = self.rng.sample(live, 1)
            self.actions.append((now, "partition", split))
            self.cluster.partition(set(split))
        else:
            self.actions.append((now, "heal", None))
            self.cluster.heal()


class LoadGenerator:
    """Best-effort writer that keeps submitting through leader changes."""

    def __init__(self, cluster, interval=0.02):
        self.cluster = cluster
        self.interval = interval
        self.sent = 0
        self.committed = []
        self._arm()

    def _arm(self):
        self.cluster.sim.schedule(self.interval, self._tick)

    def _tick(self):
        leader = self.cluster.leader()
        if leader is not None:
            try:
                self.sent += 1
                leader.propose_op(
                    ("incr", "counter", 1),
                    callback=lambda r, z: self.committed.append(r),
                )
            except Exception:
                pass
        self._arm()


def run_scenario(seed, n_voters, steps, step_interval=0.6,
                 max_concurrent_crashes=None):
    if max_concurrent_crashes is None:
        max_concurrent_crashes = (n_voters - 1) // 2
    cluster = Cluster(ClusterConfig(n_voters=n_voters, seed=seed)).start()
    cluster.run_until_stable(timeout=60)
    load = LoadGenerator(cluster)
    adversary = Adversary(cluster, max_concurrent_crashes)
    for _ in range(steps):
        cluster.run(step_interval)
        adversary.step()
    # Quiesce: recover everyone, heal, let the dust settle.
    cluster.heal()
    for peer_id, peer in cluster.peers.items():
        if peer.crashed:
            cluster.recover(peer_id)
    cluster.run_until_stable(timeout=60)
    cluster.run(2.0)
    return cluster, load, adversary


@pytest.mark.parametrize("seed", range(6))
def test_three_node_random_faults(seed):
    cluster, load, adversary = run_scenario(
        seed=100 + seed, n_voters=3, steps=12
    )
    report = cluster.check_properties()
    assert report.ok, (report.violations[:5], adversary.actions)
    states = set(
        tuple(sorted(state.items()))
        for state in cluster.states().values()
    )
    assert len(states) == 1, cluster.states()


@pytest.mark.parametrize("seed", range(4))
def test_five_node_random_faults(seed):
    cluster, load, adversary = run_scenario(
        seed=200 + seed, n_voters=5, steps=10
    )
    report = cluster.check_properties()
    assert report.ok, (report.violations[:5], adversary.actions)
    states = set(
        tuple(sorted(state.items()))
        for state in cluster.states().values()
    )
    assert len(states) == 1, cluster.states()


def test_load_actually_commits_under_faults():
    cluster, load, adversary = run_scenario(
        seed=300, n_voters=5, steps=8
    )
    assert len(load.committed) > 0
    final = cluster.leader().sm.read(("get", "counter"))
    # The counter equals the number of committed incrs (each commit
    # callback corresponds to exactly one applied delta).
    assert final >= len(load.committed) > 0


def test_repeated_leader_assassination():
    """Kill every leader as soon as it stabilises, five times over."""
    cluster = Cluster(ClusterConfig(n_voters=5, seed=400)).start()
    for round_index in range(5):
        leader = cluster.run_until_stable(timeout=60)
        cluster.submit_and_wait(("incr", "kills", 1))
        if round_index < 4:
            cluster.crash(leader.peer_id)
            # Recover the previous victim so a quorum always exists.
            for peer_id, peer in list(cluster.peers.items()):
                if peer.crashed and peer_id != leader.peer_id:
                    cluster.recover(peer_id)
    for peer_id, peer in list(cluster.peers.items()):
        if peer.crashed:
            cluster.recover(peer_id)
    cluster.run_until_stable(timeout=60)
    cluster.run(2.0)
    report = cluster.check_properties()
    assert report.ok, report.violations[:5]
    for state in cluster.states().values():
        assert state["kills"] == 5
