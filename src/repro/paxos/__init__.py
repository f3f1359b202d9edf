"""Multi-instance Paxos atomic broadcast — the paper's baseline.

The paper motivates Zab by showing that running a primary-backup scheme
over plain (multi-)Paxos with **multiple outstanding proposals** can
violate the ordering the primary depends on: after a sequence of primary
changes, a consensus sequence may commit a newer primary's transaction at
a lower instance than an older primary's transaction, breaking the causal
chain of incremental state deltas.

This package implements that baseline faithfully enough to *measure*:
ballots, phase-1 promise/recovery over instance ranges, phase-2
accept/accepted, gap filling with no-ops, in-order delivery, leader
heartbeats and scouting.  It runs on the Zab harness —
``Cluster(ClusterConfig(protocol="paxos"))`` — so replay, the shrinker
and the flight recorder drive it unchanged.  Experiment E4 reproduces the
paper's counter-example run and shows the PO checker flagging it;
experiment E10 compares its throughput against Zab's under identical
conditions.
"""

from repro.paxos.replica import PaxosReplica

__all__ = ["PaxosReplica"]
