"""Primary-backup application layer.

ZooKeeper's defining trait — the one that forces primary-order broadcast —
is that the primary does not replicate *operations* but **idempotent,
incremental state deltas** computed against its current (speculative)
state.  ``incr x`` becomes ``set x = 5``; a sequential-node create becomes
a create of the concrete path ``/q/n0000000042``.  Delta *n* is only
meaningful after deltas *1..n-1*, which is exactly the dependency Zab's
primary-order properties protect.

This package provides the :class:`StateMachine` contract plus two
substrates: a replicated key-value store and a ZooKeeper-style data tree
with sessions, ephemerals, sequentials, and watches.
"""

from repro.app.datatree import DataTreeStateMachine, ZNode
from repro.app.kvstore import KVStateMachine
from repro.app.statemachine import StateMachine, Txn
from repro.app.watches import WatchManager

__all__ = [
    "StateMachine",
    "Txn",
    "KVStateMachine",
    "DataTreeStateMachine",
    "ZNode",
    "WatchManager",
]
