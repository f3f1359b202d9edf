"""Experiment harness: clusters, fault schedules, replay, shrinking."""

from repro.harness.cluster import Cluster
from repro.harness.config import ClusterConfig
from repro.harness.opscenarios import OPS_SCENARIOS, stable_leader_id
from repro.harness.replay import (
    ReplayResult,
    committed_txn_loss,
    replay_schedule,
    violation_signature,
)
from repro.harness.schedule import Action, ActionSchedule, apply_action
from repro.harness.shrink import (
    ShrinkResult,
    ddmin,
    make_reproducer,
    shrink_schedule,
)

__all__ = [
    "Cluster",
    "ClusterConfig",
    "Action",
    "ActionSchedule",
    "apply_action",
    "ReplayResult",
    "replay_schedule",
    "violation_signature",
    "OPS_SCENARIOS",
    "committed_txn_loss",
    "stable_leader_id",
    "ShrinkResult",
    "ddmin",
    "make_reproducer",
    "shrink_schedule",
]
