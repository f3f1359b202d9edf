"""Bounded exhaustive exploration of fault schedules.

The explorer walks *every* sequence of fault-injection decisions up to a
depth bound, instead of sampling them the way the random campaign does.
One node of the search tree is a full deterministic execution: boot a
fresh cluster, apply the decision prefix, take index-0 defaults beyond
it, quiesce, and run the PO property checker over the whole history.
Untaken alternatives recorded along the way become new prefixes on a
depth-first frontier.

An execution does not re-run what a parent already ran.  At each
step boundary where its choice is unscripted, after running to the
step's time, it pickles itself (cluster, incremental checker, chooser,
schedule).  A new prefix resumes from the deepest such image on its own
path (an ``interleave`` tie falls inside a step, so the nearest earlier
boundary runs forward), and an image lives while a waiting prefix needs
it.  Pickle refuses a closure where ``copy.deepcopy`` would share it
with the original cluster; an execution that holds something pickle
cannot rebuild makes the search boot every later run instead, with the
same result.  An image copies only what the execution can still
change: records nothing assigns to after ``__init__`` (``_WRITE_ONCE``)
are shared by reference, so a resumed execution holds the very records
its parent recorded; the lists and dicts that hold them are copied.
The checker trace's columns go as one shared snapshot per image, and
each PRNG stream as its shared ``getstate()`` tuple.

Crucially, an execution here runs *the same recipe* as
:func:`repro.harness.replay.replay_schedule` — the boot-under-load and
quiesce-and-judge halves are the very functions replay calls, and the
action timing matches.  That is what lets a violating
run be emitted as a plain :class:`~repro.harness.schedule.ActionSchedule`
that the existing ``repro shrink`` ddmin machinery and replay engine
consume with zero new plumbing, and it is why every reported violation
is re-verified through an actual ``replay_schedule`` call before the
explorer vouches for it.

Budgets are explicit and loud: when the run stops on ``max_schedules``
or ``max_states`` the result says so and reports how many frontier
prefixes were left unexplored — no silent caps.

The search runs in one process.  Each execution writes the visited
map as it goes, so the first run to reach a state owns it, and a later
run, or a later step of the same run, that reaches it again at the same
or a shallower remaining depth stops there.
"""

import collections
import gc
import io
import os
import pickle
import random
import time

from repro.app.statemachine import Txn
from repro.checker import CheckerState
from repro.checker.trace import TraceColumns
from repro.harness.cluster import Cluster
from repro.harness.config import ClusterConfig
from repro.harness.replay import (
    quiesce_and_judge,
    replay_schedule,
    signature_json,
    stabilise_under_load,
)
from repro.harness.schedule import Action, ActionSchedule, apply_action
from repro.mc.choices import Chooser, DfsFrontier
from repro.mc.fingerprint import cluster_fingerprint
from repro.mc.policy import InterleavingPolicy
from repro.net import NetworkConfig
from repro.obs.trace import TraceEvent
from repro.storage.records import LogRecord
from repro.zab.messages import Ack, Commit, Frame, Ping, Pong, Propose
from repro.zab.zxid import Zxid

#: Decision-point option meaning "inject nothing this step".
NOOP = ("noop", None)


class ExplorerConfig:
    """Knobs of one exploration run: everything that decides *what* is
    searched.

    peers / seed / op_interval / step_interval / settle / timeout
        Mirror :func:`~repro.harness.replay.replay_schedule` so every
        emitted schedule replays bit-identically with no extra args.
        Each execution is judged at quiescence; *settle* caps the wait.
    depth
        Number of fault decision points per execution.
    max_schedules / max_states
        Hard budgets on executions run and distinct abstract states
        fingerprinted.  Exceeding either stops the search (reported,
        never silent).
    max_violations
        Stop after this many distinct confirmed violation signatures
        (0 = never stop early; keep searching to the budget).
    interleave
        Also branch over same-timestamp message-delivery orderings via
        the kernel :class:`~repro.sim.kernel.SchedulePolicy` seam.
        Interleaving decisions are not expressible in an ActionSchedule,
        so violations found *only* under a non-default interleaving are
        reported as unconfirmed unless plain replay reproduces them.
        Interleave mode also runs a zero-jitter fabric: with jitter on,
        two messages essentially never share a timestamp and the
        delivery-order seam has nothing to branch on.  The verification
        replay uses the same fabric, and the emitted schedule's ``meta``
        records ``jitter: 0.0`` so a reproducer knows to match it.
    leader_factory
        Forwarded to the cluster — plant seeded bugs from
        :mod:`repro.harness.buggy` to point the explorer at known prey.
    dissemination
        Propagation topology for every explored execution (one of
        ``repro.DISSEMINATION_TOPOLOGIES``).  Recorded in each emitted
        schedule's ``meta`` so replays and shrinks run the same
        topology.
    recorder_dir
        Directory for flight-recorder dumps.  When set, every distinct
        violation ships its black box — the violating execution's
        recent events — as ``violation-<n>.flight.jsonl`` next to the
        violation record (``None`` disables dumping; the recorder
        itself always rides along).
    ops_actions
        Also branch over operator actions — ``snapshot`` (when the
        cluster is serving) and ``compact_log`` with retain=1 (once any
        live peer holds a snapshot) — so the DFS interleaves fuzzy
        snapshots and log compaction with commits and crashes.  The
        revisit fingerprint widens to cover per-peer snapshot/purge
        state; off (the default) both menu and fingerprint are exactly
        the legacy ones.
    """

    def __init__(self, peers=3, depth=8, seed=0, step_interval=0.25,
                 op_interval=0.02, settle=2.0, timeout=60.0,
                 max_schedules=256, max_states=4096, max_violations=1,
                 interleave=False, leader_factory=None,
                 dissemination="leader-direct", recorder_dir=None,
                 ops_actions=False):
        self.peers = peers
        self.depth = depth
        self.seed = seed
        self.step_interval = step_interval
        self.op_interval = op_interval
        self.settle = settle
        self.timeout = timeout
        self.max_schedules = max_schedules
        self.max_states = max_states
        self.max_violations = max_violations
        self.interleave = interleave
        self.leader_factory = leader_factory
        self.dissemination = dissemination
        self.recorder_dir = recorder_dir
        self.ops_actions = ops_actions

    def cluster_config(self):
        """The ClusterConfig every explored execution and replay runs."""
        net = NetworkConfig(jitter=0.0) if self.interleave else None
        return ClusterConfig(
            n_voters=self.peers, seed=self.seed, net=net,
            leader_factory=self.leader_factory,
            dissemination=self.dissemination,
        )


class Violation:
    """One distinct way the explored system broke."""

    __slots__ = ("schedule", "signature", "confirmed", "replay_signature",
                 "prefix", "flight_path")

    def __init__(self, schedule, signature, confirmed, replay_signature,
                 prefix, flight_path=None):
        self.schedule = schedule
        self.signature = signature
        self.confirmed = confirmed
        self.replay_signature = replay_signature
        self.prefix = prefix
        self.flight_path = flight_path

    def to_json(self):
        return {
            "signature": signature_json(self.signature),
            "confirmed": self.confirmed,
            "replay_signature": None if self.replay_signature is None
            else signature_json(self.replay_signature),
            "prefix": list(self.prefix),
            "flight_path": self.flight_path,
            "schedule": self.schedule.to_json(),
        }


class ExplorationResult:
    """Everything one exploration did, found, and left on the table."""

    def __init__(self, config):
        self.config = config
        self.runs = 0
        self.choice_points = 0
        self.states_visited = 0
        self.states_pruned = 0
        self.por_skipped = 0
        self.violations = []
        self.errors = []              # (prefix, error-string) pairs
        self.stopped_reason = "exhausted"
        self.frontier_left = 0
        # Wall-clock seconds and executions resumed from an image, both
        # deliberately absent from to_json(): the canonical summary
        # must stay byte-identical across machines and image support.
        self.elapsed = None
        self.resumed = 0

    @property
    def exhausted(self):
        return self.stopped_reason == "exhausted"

    @property
    def ok(self):
        return not self.violations and not self.errors

    def to_json(self):
        return {
            "peers": self.config.peers,
            "depth": self.config.depth,
            "seed": self.config.seed,
            "interleave": self.config.interleave,
            "runs": self.runs,
            "choice_points": self.choice_points,
            "states_visited": self.states_visited,
            "states_pruned": self.states_pruned,
            "por_skipped": self.por_skipped,
            "violations": [violation.to_json()
                           for violation in self.violations],
            "errors": [
                {"prefix": list(prefix), "error": error}
                for prefix, error in self.errors
            ],
            "stopped_reason": self.stopped_reason,
            "exhausted": self.exhausted,
            "frontier_truncated": self.frontier_left,
            "budget": {
                "max_schedules": self.config.max_schedules,
                "max_states": self.config.max_states,
                "max_violations": self.config.max_violations,
            },
        }

    def __repr__(self):
        return (
            "<ExplorationResult %d runs, %d states, %d violations, %s>"
            % (self.runs, self.states_visited, len(self.violations),
               self.stopped_reason)
        )


class _CheckerMismatch(Exception):
    """The incremental and post-hoc checkers disagreed on one history."""


class _Run:
    """What one execution of a decision prefix did: a plain record.

    ``taken``/``arities`` are the chooser's; ``pruned`` says the run
    stopped at a state the search had already reached.
    """

    __slots__ = ("taken", "arities", "pruned", "steps", "por", "error",
                 "signature", "schedule", "recorder", "images")

    def __init__(self, chooser):
        self.taken = chooser.taken
        self.arities = chooser.arities
        self.pruned = False
        self.steps = 0
        self.por = {"choice_points": 0, "por_skipped": 0}
        self.error = None
        self.signature = ()
        self.schedule = None
        self.recorder = None
        # tuple(taken) at each unscripted step boundary -> its image
        self.images = {}


class Explorer:
    """Depth-first bounded search over fault-decision sequences."""

    def __init__(self, config=None, metrics=None, progress=None):
        self.config = config or ExplorerConfig()
        self.metrics = metrics
        self.progress = progress      # callable(ExplorationResult), per run
        # fingerprint -> shallowest decision step at which it was seen
        self._visited = {}
        self._signatures = set()
        self._imaging = True      # False once an execution fails to pickle

    # ------------------------------------------------------------------
    # Search driver
    # ------------------------------------------------------------------

    def run(self):
        """Explore until the frontier drains or a budget trips."""
        started = time.perf_counter()
        config = self.config
        result = ExplorationResult(config)
        frontier = DfsFrontier()
        images = {}     # boundary key -> image a waiting prefix resumes from
        users = collections.Counter()   # boundary key -> waiting prefixes
        while len(frontier):
            if result.runs >= config.max_schedules:
                result.stopped_reason = "max_schedules"
                break
            if len(self._visited) >= config.max_states:
                result.stopped_reason = "max_states"
                break
            prefix = frontier.pop()
            key = _resume_key(prefix, images)
            image = images.get(key)
            if image is not None:
                result.resumed += 1
                users[key] -= 1
                if not users[key]:
                    del images[key]
            run = self._execute(prefix, image)
            if self._settle(prefix, run, result):
                result.stopped_reason = "max_violations"
                break
            added = frontier.expand(prefix, run)
            images.update(run.images)
            for sibling in frontier.peek(added) if added else ():
                users[_resume_key(sibling, images)] += 1
            for key in run.images:
                if not users[key]:
                    del images[key]
            self._note_progress(result, frontier)
        result.states_visited = len(self._visited)
        result.frontier_left = len(frontier)
        result.elapsed = time.perf_counter() - started
        self._publish_metrics(result)
        return result

    def _settle(self, prefix, run, result):
        """Book one run's share of the counters, and its error or
        violation.  Returns True once ``max_violations`` is reached."""
        result.runs += 1
        result.choice_points += run.steps + run.por["choice_points"]
        result.por_skipped += run.por["por_skipped"]
        if run.pruned:
            result.states_pruned += 1
        elif run.error is not None:
            result.errors.append((tuple(prefix), run.error))
        elif run.signature:
            self._record_violation(prefix, run, result)
            limit = self.config.max_violations
            return bool(limit) and len(result.violations) >= limit
        return False

    def _record_violation(self, prefix, run, result):
        """Re-verify a violating run through the stock replay engine.

        A violation only counts once per signature; `confirmed` means a
        fresh ``replay_schedule`` of the emitted ActionSchedule (default
        FIFO kernel, no explorer in the loop) reproduced the exact same
        signature — the bit-identical-replay guarantee the shrinker
        needs.
        """
        if run.signature in self._signatures:
            return
        self._signatures.add(run.signature)
        replayed = replay_schedule(
            run.schedule, self.config.cluster_config(),
            settle=self.config.settle, timeout=self.config.timeout,
        )
        result.violations.append(Violation(
            schedule=run.schedule,
            signature=run.signature,
            confirmed=(replayed.signature == run.signature),
            replay_signature=replayed.signature,
            prefix=tuple(prefix),
            flight_path=self._dump_flight(run, len(result.violations)),
        ))

    def _dump_flight(self, run, index):
        """Ship the violating execution's black box, if configured.

        The dump is the *explored* run's recorder (not the verification
        replay's), so its tail shows the exact execution whose
        signature was recorded — even when replay fails to confirm.
        """
        recorder_dir = self.config.recorder_dir
        if recorder_dir is None:
            return None
        os.makedirs(recorder_dir, exist_ok=True)
        path = os.path.join(
            recorder_dir, "violation-%d.flight.jsonl" % index
        )
        run.recorder.dump(
            path, reason="explorer_violation",
            signature=signature_json(run.signature),
        )
        return path

    def _note_progress(self, result, frontier):
        result.states_visited = len(self._visited)
        result.frontier_left = len(frontier)
        if self.progress is not None:
            self.progress(result)

    def _publish_metrics(self, result):
        if self.metrics is None:
            return
        self.metrics.counter("mc.runs").inc(result.runs)
        self.metrics.counter("mc.states_visited").inc(result.states_visited)
        self.metrics.counter("mc.states_pruned").inc(result.states_pruned)
        self.metrics.counter("mc.por_skipped").inc(result.por_skipped)
        self.metrics.counter("mc.violations").inc(len(result.violations))
        self.metrics.counter("mc.resumed").inc(result.resumed)

    # ------------------------------------------------------------------
    # One execution
    # ------------------------------------------------------------------

    def _execute(self, prefix, image=None):
        """Run one decision prefix to its verdict; return its :class:`_Run`.

        With *image* (a step boundary on *prefix*'s own path, from
        :meth:`_take_image`) the execution resumes there; without, it
        boots.  Boot and quiesce are
        :func:`~repro.harness.replay.replay_schedule`'s own halves and
        each action lands on a step boundary, so the ActionSchedule
        assembled from the choices replays to the same execution bit
        for bit.  At each revisit check the run either stops, marked
        ``pruned``, on a fingerprint the search (this run included)
        reached at the same step or shallower, or records the
        fingerprint at this step in the visited map.
        """
        config = self.config
        if image is None:
            chooser = Chooser(prefix)
            run = _Run(chooser)
            cluster = Cluster(self.config.cluster_config()).start()
            # Incremental checker rides along with the execution, so
            # the terminal verdict is O(1) instead of a full check_all
            # re-read of the history at every explored state.
            checker_state = CheckerState.attach(cluster.trace)
            if config.interleave:
                cluster.sim.set_policy(InterleavingPolicy(
                    chooser, cluster.network._deliver, run.por
                ))
            meta = {
                "seed": config.seed,
                "n_voters": config.peers,
                "op_interval": config.op_interval,
                "explored_prefix": list(prefix),
            }
            if config.dissemination != "leader-direct":
                meta["dissemination"] = config.dissemination
            if config.interleave:
                meta["jitter"] = 0.0
            run.schedule = schedule = ActionSchedule(meta=meta)
            try:
                t0 = stabilise_under_load(
                    cluster, config.timeout, config.op_interval
                )
            except TimeoutError as exc:
                run.error = "never stable: %s" % exc
                return run
            first = 0
        else:
            (cluster, checker_state, chooser, por, schedule, t0,
             first) = _load_image(image)
            chooser.prefix = list(prefix)
            schedule.meta["explored_prefix"] = list(prefix)
            run = _Run(chooser)
            run.por, run.schedule = por, schedule

        for step in range(first, config.depth):
            # A resumed image already stands at its step's target time.
            if image is None or step > first:
                target = t0 + (step + 1) * config.step_interval
                if target > cluster.sim.now:
                    cluster.run(target - cluster.sim.now)
                if len(chooser.taken) >= len(chooser.prefix):
                    self._take_image(run, (
                        cluster, checker_state, chooser, run.por,
                        schedule, t0, step,
                    ))
            options = self._step_options(cluster)
            pick = options[chooser.next(len(options), label="step%d" % step)]
            run.steps = step + 1
            if pick is not NOOP:
                action = Action(
                    (step + 1) * config.step_interval, pick[0], pick[1]
                )
                schedule.add(action.time, action.kind, action.target)
                apply_action(cluster, action)
            # Prune only at or beyond this run's divergence point: while
            # the chooser is still replaying its scripted prefix, the
            # states necessarily match the parent run's — flagging them
            # as "revisited" would kill the exact branch the frontier
            # scheduled this run to explore.
            if len(chooser.taken) >= len(chooser.prefix):
                # The first visitor of a fingerprint explores its whole
                # remaining subtree; a later arrival with the same or
                # less remaining depth can only rediscover a subset, so
                # it stops.  (Heuristic, not exact: the fingerprint
                # abstracts away RNG-stream positions.  See
                # docs/TESTING.md.)
                fingerprint = cluster_fingerprint(
                    cluster, storage_state=config.ops_actions
                )
                seen_at = self._visited.get(fingerprint)
                if seen_at is not None and seen_at <= step:
                    run.pruned = True
                    return run
                self._visited[fingerprint] = step

        def check():
            report = checker_state.report()
            if report.ok:
                return report
            # Cross-validate: the stock post-hoc checker stays the
            # authoritative oracle on anything the incremental state
            # flags.  A disagreement is a checker bug, reported loudly.
            posthoc = cluster.check_properties()
            if (posthoc.violated_properties()
                    != report.violated_properties()):
                raise _CheckerMismatch(
                    "incremental/post-hoc checker mismatch: %s != %s"
                    % (sorted(report.violated_properties()),
                       sorted(posthoc.violated_properties()))
                )
            return posthoc

        try:
            _report, _converged, run.signature = quiesce_and_judge(
                cluster, config.settle, config.timeout, check=check
            )
        except TimeoutError as exc:
            run.error = "never re-stabilised: %s" % exc
        except _CheckerMismatch as exc:
            run.error = str(exc)
        else:
            run.recorder = cluster.recorder
        return run

    def _take_image(self, run, execution):
        """Image *execution* into *run*, keyed by the choices so far:
        ``(blob, shared)``, a pickle that refers to each write-once
        record it reaches by its index in the *shared* tuple.
        Once one fails to pickle, this explorer takes no more images."""
        if not self._imaging:
            return
        blob = io.BytesIO()
        pickler = _ImagePickler(blob)
        try:
            pickler.dump(execution)
        except (pickle.PicklingError, TypeError, AttributeError,
                RecursionError):
            self._imaging = False
            return
        run.images[tuple(run.taken)] = blob.getvalue(), tuple(pickler.shared)

    def _step_options(self, cluster):
        """The fault menu at this decision point, gated by cluster state.

        Deterministic given the execution so far (the same prefix always
        sees the same menu — required for sound sibling expansion).
        Faults come first so the DFS default descent is the most
        adversarial path; ``noop`` is always present and always last.
        """
        config = self.config
        peers = cluster.peers
        down = sum(1 for peer in peers.values() if peer.crashed)
        max_down = (config.peers - 1) // 2
        leader = cluster.leader()
        partitioned = cluster.network.partitions.active()
        options = []
        if down < max_down:
            if leader is not None:
                options.append(("crash_leader", None))
            if any(
                peer.is_active_voting_follower for peer in peers.values()
            ):
                options.append(("crash_follower", None))
        if leader is not None and not partitioned:
            options.append(("partition", [[leader.peer_id]]))
        if partitioned:
            options.append(("heal", None))
        if down:
            options.append(("recover_all", None))
        if config.ops_actions:
            # Operator moves: snapshot whenever the cluster is serving,
            # compact (retain=1, the most aggressive legal purge) once
            # anything exists to compact.  Both gates read only
            # deterministic cluster state, like the fault gates above.
            if leader is not None:
                options.append(("snapshot", None))
            if any(
                not peer.crashed and len(peer.storage.snapshots)
                for peer in peers.values()
            ):
                options.append(("compact_log", 1))
        options.append(NOOP)
        return options


#: Classes nothing assigns to after ``__init__``, whose instances an
#: image shares instead of copying: check that before adding one.
#: (``TraceColumns`` is the immutable copy a ``Trace`` pickles as.)
_WRITE_ONCE = frozenset((
    TraceColumns, TraceEvent, Txn, Zxid, LogRecord, Propose, Commit, Ack,
    Ping, Pong, Frame,
))


class _ImagePickler(pickle.Pickler):
    """Pickles each write-once record, and each PRNG stream's state, as
    a reference into ``shared``."""

    def __init__(self, file):
        super().__init__(file)
        self.shared = []

    def reducer_override(self, obj):
        cls = type(obj)
        if cls in _WRITE_ONCE:
            shared = self.shared
            shared.append(obj)
            return _shared_record, (len(shared) - 1,)
        if cls is random.Random:
            shared = self.shared
            shared.append(obj.getstate())   # an immutable tuple
            return _shared_stream, (len(shared) - 1,)
        return NotImplemented


def _shared_record(index):
    """``shared[index]`` in a blob; :class:`_ImageUnpickler` resolves it."""
    raise RuntimeError("an image blob loads only through _load_image")


def _shared_stream(index):
    """A stream in state ``shared[index]``; resolved like the above."""
    raise RuntimeError("an image blob loads only through _load_image")


class _ImageUnpickler(pickle.Unpickler):
    def __init__(self, image):
        blob, self._shared = image
        super().__init__(io.BytesIO(blob))

    def find_class(self, module, name):
        if module == __name__ and name == "_shared_record":
            return self._shared.__getitem__     # a C call per record
        if module == __name__ and name == "_shared_stream":
            return self._stream
        return super().find_class(module, name)

    def _stream(self, index):
        stream = random.Random.__new__(random.Random)
        stream.setstate(self._shared[index])
        return stream


def _load_image(image):
    """The execution in *image*, loaded with the cyclic GC paused: every
    object being built is reachable, so a collection would free none."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _ImageUnpickler(image).load()
    finally:
        if enabled:
            gc.enable()


def _resume_key(prefix, images):
    """The key of the deepest image on *prefix*'s own path, or None."""
    for cut in range(len(prefix) - 1, -1, -1):
        if tuple(prefix[:cut]) in images:
            return tuple(prefix[:cut])
    return None


def explore_schedules(peers=3, depth=8, seed=0, leader_factory=None,
                      metrics=None, progress=None, **config_kwargs):
    """One-call convenience wrapper: build config, run, return the result."""
    config = ExplorerConfig(
        peers=peers, depth=depth, seed=seed,
        leader_factory=leader_factory, **config_kwargs
    )
    return Explorer(config, metrics=metrics, progress=progress).run()
