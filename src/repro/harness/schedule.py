"""Declarative, serializable fault schedules.

An :class:`ActionSchedule` is a list of ``(virtual_time, action, target)``
records — the reified form of what the adversarial campaign used to do
live with a random stream.  Times are *relative to cluster stability*
(the moment ``run_until_stable`` first returns), which is itself
deterministic for a given cluster seed, so replaying a schedule against
a fresh cluster reproduces the original execution bit for bit.

Separating *generation* (a pure function of the adversary seed) from
*execution* (:func:`repro.harness.replay.replay_schedule`) is what makes
failing campaign seeds replayable, serializable to JSON, shrinkable with
:mod:`repro.harness.shrink`, and archivable under ``tests/corpus/``.

Action kinds and their targets:

==================== ===================================================
``crash``            target = peer id
``torn_write``       target = peer id (crash mid-flush: the last record
                     of the flush in flight lands torn)
``recover``          target = peer id
``crash_leader``     target = None (whoever leads when the action fires)
``crash_follower``   target = None (first live non-leader voter)
``recover_all``      target = None
``partition``        target = list of groups (lists of peer ids)
``heal``             target = None
``submit``           target = number of writes to burst-submit
``slow_disk``        target = peer id (gray failure: 20× fsync latency)
``restore_disk``     target = peer id
``snapshot``         target = peer id, or None for every live peer
``compact_log``      target = snapshots to retain (default 2)
``partition_oneway`` target = ``[src, dst]`` (src can no longer reach dst)
``restore_links``    target = None (undo every one-way cut)
``clock_skew``       target = ``[peer id, factor]`` (election timers ×factor)
==================== ===================================================

``slow_disk`` / ``restore_disk`` require a cluster built with
``disk="model"``; on clusters without per-peer disk models they are
tolerated as no-ops, so shrunk or replayed schedules stay applicable
everywhere.  Every action is an instant: none advances virtual time,
so the replay loop alone moves the clock and each action fires exactly
at its scheduled time.
"""

import json

from repro.common.errors import ConfigError
from repro.common.util import atomic_write
from repro.sim.random import SplitRandom

KINDS = frozenset([
    "crash", "torn_write", "recover", "crash_leader", "crash_follower",
    "recover_all", "partition", "heal", "submit",
    "slow_disk", "restore_disk",
    "snapshot", "compact_log", "partition_oneway", "restore_links",
    "clock_skew",
])

#: Multiplier ``slow_disk`` applies to the victim's fsync latency.
SLOW_DISK_FACTOR = 20.0

#: Adversary stream label; shared with the legacy campaign so schedules
#: generated from seed N replay the exact runs the campaign used to do.
ADVERSARY_STREAM = "campaign-adversary"

#: Operational adversary stream label.  Distinct from ADVERSARY_STREAM
#: so :meth:`ActionSchedule.generate` keeps producing the exact decision
#: sequences the campaign corpus has pinned since PR 2.
OPS_ADVERSARY_STREAM = "campaign-ops-adversary"

#: Partition adversary stream label: the stream E4b's live adversary
#: drew from, so :meth:`ActionSchedule.generate_partitions` redraws the
#: exact partitions behind every E4b verdict.
PARTITION_ADVERSARY_STREAM = "partition-adversary"


class Action:
    """One scheduled fault-injection step."""

    __slots__ = ("time", "kind", "target")

    def __init__(self, time, kind, target=None):
        if kind not in KINDS:
            raise ConfigError("unknown action kind: %r" % (kind,))
        if kind == "partition":
            target = [sorted(group) for group in (target or ())]
            if not target:
                raise ConfigError("partition action needs groups")
        elif kind == "partition_oneway":
            if not isinstance(target, (list, tuple)) or len(target) != 2:
                raise ConfigError("partition_oneway needs [src, dst]")
            target = [int(target[0]), int(target[1])]
        elif kind == "clock_skew":
            if not isinstance(target, (list, tuple)) or len(target) != 2:
                raise ConfigError("clock_skew needs [peer_id, factor]")
            if not float(target[1]) > 0:
                raise ConfigError("clock skew factor must be > 0")
            target = [int(target[0]), float(target[1])]
        self.time = float(time)
        self.kind = kind
        self.target = target

    def peers(self):
        """The peer ids this action names (none for cluster-wide kinds)."""
        if self.kind == "partition":
            return [peer for group in self.target for peer in group]
        if self.kind == "partition_oneway":
            return list(self.target)
        if self.kind == "clock_skew":
            return self.target[:1]
        if self.target is not None and self.kind in (
                "crash", "torn_write", "recover", "slow_disk",
                "restore_disk", "snapshot"):
            return [self.target]
        return []

    def __eq__(self, other):
        return (
            isinstance(other, Action)
            and self.time == other.time
            and self.kind == other.kind
            and self.target == other.target
        )

    def __hash__(self):
        return hash((
            self.time, self.kind,
            json.dumps(self.target, sort_keys=True),
        ))

    def __repr__(self):
        if self.target is None:
            return "Action(%.3f, %s)" % (self.time, self.kind)
        return "Action(%.3f, %s, %r)" % (self.time, self.kind, self.target)

    def to_json(self):
        record = {"t": self.time, "action": self.kind}
        if self.target is not None:
            record["target"] = self.target
        return record

    @classmethod
    def from_json(cls, record):
        return cls(record["t"], record["action"], record.get("target"))


class ActionSchedule:
    """An ordered list of :class:`Action` records plus provenance."""

    def __init__(self, actions=(), meta=None):
        self.actions = sorted(actions, key=lambda action: action.time)
        self.meta = dict(meta or {})

    # -- building ------------------------------------------------------

    def add(self, time, kind, target=None):
        """Append one action (kept sorted by time); chains."""
        self.actions.append(Action(time, kind, target))
        self.actions.sort(key=lambda action: action.time)
        return self

    def replace_actions(self, actions):
        """A copy of this schedule with a different action list."""
        return ActionSchedule(list(actions), meta=self.meta)

    # -- sequence protocol ---------------------------------------------

    def __len__(self):
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)

    def __getitem__(self, index):
        return self.actions[index]

    def __eq__(self, other):
        return (
            isinstance(other, ActionSchedule)
            and self.actions == other.actions
        )

    def __repr__(self):
        return "ActionSchedule(%d actions%s)" % (
            len(self.actions),
            ", seed=%r" % self.meta["seed"] if "seed" in self.meta else "",
        )

    # -- serialization -------------------------------------------------

    def to_json(self):
        return {
            "version": 1,
            "meta": self.meta,
            "actions": [action.to_json() for action in self.actions],
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            [Action.from_json(record) for record in obj["actions"]],
            meta=obj.get("meta"),
        )

    def dumps(self, indent=None):
        return json.dumps(self.to_json(), indent=indent)

    @classmethod
    def loads(cls, text):
        return cls.from_json(json.loads(text))

    def save(self, path):
        with atomic_write(path) as f:
            f.write(self.dumps(indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path):
        """Read a schedule file; ``ValueError`` naming *path* if it is
        not one (bad JSON, wrong shape, unknown kind, bad target)."""
        with open(path, encoding="utf-8") as f:
            text = f.read()
        try:
            return cls.loads(text)
        except (ValueError, KeyError, TypeError, ConfigError) as exc:
            raise ValueError(
                "%s: not an action schedule (%s: %s)"
                % (path, type(exc).__name__, exc)
            ) from exc

    # -- event-driven execution ----------------------------------------

    def install(self, cluster, start=0.0):
        """Arm every action on *cluster*'s simulator; returns the fault log.

        The event-driven sibling of
        :func:`~repro.harness.replay.replay_schedule`, for scripts that
        drive the cluster themselves: each action fires through
        :func:`apply_action` at sim time ``start + action.time`` (pass
        the stability timestamp as *start*) and appends ``(time,
        description)`` to the returned list unless it was a no-op.
        """
        log = []

        def fire(action):
            happened = apply_action(cluster, action)
            if happened is not None:
                log.append((cluster.sim.now, happened))

        for action in self.actions:
            cluster.sim.schedule_at(start + action.time, fire, action)
        return log

    # -- generation ----------------------------------------------------

    @classmethod
    def generate(cls, seed, n_voters=3, steps=10, step_interval=0.5,
                 op_interval=0.02):
        """The campaign adversary as a pure function of *seed*.

        Reproduces the exact decision sequence the live adversary used
        to make: the same PRNG stream (root seed + stream label, see
        :class:`~repro.sim.random.SplitRandom`) and the same live/crashed
        bookkeeping, tracked symbolically instead of read off a running
        cluster.  This is valid because peers only ever crash or recover
        through the adversary's own actions.
        """
        rng = SplitRandom(seed).stream(ADVERSARY_STREAM)
        members = list(range(1, n_voters + 1))
        crashed = set()
        max_down = (n_voters - 1) // 2
        schedule = cls(meta={
            "seed": seed,
            "n_voters": n_voters,
            "steps": steps,
            "step_interval": step_interval,
            "op_interval": op_interval,
        })
        for step in range(steps):
            time = (step + 1) * step_interval
            crashed_list = [p for p in members if p in crashed]
            live = [p for p in members if p not in crashed]
            roll = rng.random()
            if crashed_list and (roll < 0.4 or len(crashed_list) >= max_down):
                victim = rng.choice(crashed_list)
                crashed.discard(victim)
                schedule.add(time, "recover", victim)
            elif roll < 0.8:
                victim = rng.choice(live)
                crashed.add(victim)
                schedule.add(time, "crash", victim)
            elif roll < 0.9 and len(live) > 2:
                victim = rng.choice(live)
                schedule.add(time, "partition", [[victim]])
            else:
                schedule.add(time, "heal")
        return schedule

    @classmethod
    def generate_ops(cls, seed, n_voters=3, steps=10, step_interval=0.5,
                     op_interval=0.02, retain_snapshots=2):
        """An operational adversary as a pure function of *seed*.

        Mixes the operator's day-to-day moves — fuzzy snapshots, log
        compaction, one-way link cuts, clock skew — in with crashes and
        recoveries.  Draws from :data:`OPS_ADVERSARY_STREAM`, never the
        legacy stream, so :meth:`generate` keeps reproducing the exact
        campaign runs the corpus pins.  Same symbolic live/crashed
        bookkeeping as :meth:`generate`; skew toggles between an
        extreme factor and back to 1.0 per victim.
        """
        rng = SplitRandom(seed).stream(OPS_ADVERSARY_STREAM)
        members = list(range(1, n_voters + 1))
        crashed = set()
        skewed = set()
        max_down = (n_voters - 1) // 2
        schedule = cls(meta={
            "seed": seed,
            "n_voters": n_voters,
            "steps": steps,
            "step_interval": step_interval,
            "op_interval": op_interval,
            "profile": "ops",
            "retain_snapshots": retain_snapshots,
        })
        for step in range(steps):
            time = (step + 1) * step_interval
            crashed_list = [p for p in members if p in crashed]
            live = [p for p in members if p not in crashed]
            roll = rng.random()
            if crashed_list and (roll < 0.2 or len(crashed_list) >= max_down):
                victim = rng.choice(crashed_list)
                crashed.discard(victim)
                schedule.add(time, "recover", victim)
            elif roll < 0.35:
                victim = rng.choice(live)
                crashed.add(victim)
                schedule.add(time, "crash", victim)
            elif roll < 0.5:
                schedule.add(time, "snapshot")
            elif roll < 0.6:
                schedule.add(time, "compact_log", retain_snapshots)
            elif roll < 0.7 and len(live) >= 2:
                src = rng.choice(live)
                dst = rng.choice([p for p in live if p != src])
                schedule.add(time, "partition_oneway", [src, dst])
            elif roll < 0.8:
                schedule.add(time, "restore_links")
            elif roll < 0.9:
                victim = rng.choice(members)
                if victim in skewed:
                    skewed.discard(victim)
                    schedule.add(time, "clock_skew", [victim, 1.0])
                else:
                    skewed.add(victim)
                    factor = rng.choice([0.25, 4.0])
                    schedule.add(time, "clock_skew", [victim, factor])
            else:
                schedule.add(time, "heal")
        return schedule

    @classmethod
    def generate_partitions(cls, seed, n_voters=3, steps=10,
                            step_interval=0.4, op_interval=0.01):
        """A partition-only adversary as a pure function of *seed*.

        Each step dwells one *step_interval*; then, with 60 % odds, one
        random voter is partitioned away for one more interval and
        healed, else the cluster is healed.  No crashes, so leaders
        change only because a partition trips the failure detector —
        the unscripted E4b run that convicts pipelined Paxos.
        """
        rng = SplitRandom(seed).stream(PARTITION_ADVERSARY_STREAM)
        members = list(range(1, n_voters + 1))
        schedule = cls(meta={
            "seed": seed,
            "n_voters": n_voters,
            "steps": steps,
            "step_interval": step_interval,
            "op_interval": op_interval,
            "profile": "partition",
        })
        time = 0.0
        for _step in range(steps):
            time += step_interval
            if rng.random() < 0.6 and n_voters > 2:
                schedule.add(time, "partition", [[rng.choice(members)]])
                time += step_interval
            schedule.add(time, "heal")
        return schedule


#: Campaign adversary profile -> schedule generator, each called as
#: ``generate(seed, n_voters=, steps=, step_interval=, op_interval=)``.
PROFILES = {
    "default": ActionSchedule.generate,
    "ops": ActionSchedule.generate_ops,
    "partition": ActionSchedule.generate_partitions,
}


def apply_action(cluster, action):
    """Execute one :class:`Action` against a live cluster, now.

    Tolerant of redundant operations (crashing a crashed peer,
    recovering a live one): shrinking drops actions from a schedule, so
    the survivors must stay individually applicable.  Returns a short
    human-readable description of what actually happened, or ``None``
    if the action was a no-op.
    """
    if action.kind == "crash":
        if not cluster.peers[action.target].crashed:
            cluster.crash(action.target)
            return "crash peer %d" % action.target
    elif action.kind == "torn_write":
        if not cluster.peers[action.target].crashed:
            cluster.crash(action.target, torn=True)
            return "torn write crashes peer %d" % action.target
    elif action.kind == "recover":
        if cluster.peers[action.target].crashed:
            cluster.recover(action.target)
            return "recover peer %d" % action.target
    elif action.kind == "crash_leader":
        leader = cluster.leader()
        if leader is not None:
            cluster.crash(leader.peer_id)
            return "crash leader peer %d" % leader.peer_id
    elif action.kind == "crash_follower":
        for peer in cluster.peers.values():
            if peer.is_active_voting_follower:
                cluster.crash(peer.peer_id)
                return "crash follower peer %d" % peer.peer_id
    elif action.kind == "recover_all":
        recovered = [
            peer_id for peer_id, peer in cluster.peers.items()
            if peer.crashed
        ]
        for peer_id in recovered:
            cluster.recover(peer_id)
        if recovered:
            return "recover peers %s" % recovered
    elif action.kind == "partition":
        cluster.partition(*[set(group) for group in action.target])
        return "partition %r" % (action.target,)
    elif action.kind == "heal":
        cluster.heal()
        return "heal"
    elif action.kind == "slow_disk":
        if cluster.disks.get(action.target) is not None:
            cluster.slow_disk(action.target, SLOW_DISK_FACTOR)
            return "slow disk on peer %d" % action.target
    elif action.kind == "restore_disk":
        if cluster.disks.get(action.target) is not None:
            cluster.restore_disk(action.target)
            return "restore disk on peer %d" % action.target
    elif action.kind == "submit":
        leader = cluster.leader()
        if leader is not None:
            for i in range(action.target or 1):
                try:
                    leader.propose_op(("incr", "burst", 1))
                except Exception:
                    break
            return "submit burst of %d" % (action.target or 1)
    elif action.kind == "snapshot":
        taken = cluster.snapshot_now(action.target)
        if taken:
            return "snapshot on peers %s" % sorted(taken)
    elif action.kind == "compact_log":
        retain = action.target if action.target is not None else 2
        reports = cluster.compact_logs(retain_snapshots=retain)
        changed = sorted(
            pid for pid, report in reports.items() if report.changed
        )
        if changed:
            return "compact logs (retain %d) on peers %s" % (
                retain, changed,
            )
    elif action.kind == "partition_oneway":
        src, dst = action.target
        cluster.partition_oneway(src, dst)
        return "cut link %d->%d" % (src, dst)
    elif action.kind == "restore_links":
        if cluster.restore_links():
            return "restore cut links"
    elif action.kind == "clock_skew":
        peer_id, factor = action.target
        cluster.set_clock_skew(peer_id, factor)
        return "clock skew %.2fx on peer %d" % (factor, peer_id)
    return None
