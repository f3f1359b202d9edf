"""Rolling cluster health: detectors and SLOs over virtual time.

The trace and span layers (``repro.obs.trace``, ``repro.obs.spans``)
explain *how* a run went.  This module answers the operational
question — *was the cluster healthy at each moment, and if not, which
node and why?* — window by window in virtual time, and therefore
bit-deterministically.

A :class:`HealthMonitor` reads a finished structured event stream
(:meth:`HealthMonitor.feed`), folds it into per-node samples, one per
window, and runs four detectors.  The two leader detectors are read
off the trace's epochs (:func:`~repro.obs.spans.phase_spans`); the
monitor keeps no leader state of its own:

``leader_unavailable``
    The cluster has no established leader (cluster-scoped).  Opens at
    the first election before any epoch (``reason`` ``"election"``)
    or when an epoch is lost (``"crash"``/``"deposed"``), clears when
    the next epoch is established.
``recovery_dip``
    The paper's availability dip: commits were flowing, the leader was
    lost, and service is not considered restored until a *newer* epoch
    delivers its first transaction (cluster-scoped).
``straggler``
    Gray failure: one follower's ACK lag (``leader.ack`` ``lag``) is a
    multiple of the quorum's median while the quorum itself is fine
    (node-scoped, windowed, with onset/clear hysteresis).
``disk_stall``
    Gray failure at the log: one peer's fsync wait (``log.durable``
    ``wait``) dwarfs everyone else's (node-scoped, windowed,
    hysteresis).

Windowed detectors judge each window *bad*, *good*, or *no data*; a
firing opens after :data:`FIRE_AFTER` consecutive bad windows (onset
backdated to the first bad window) and clears after :data:`CLEAR_AFTER`
consecutive good ones.  No-data windows freeze the streaks, so an idle
cluster neither fires nor spuriously clears anything.

Two SLOs are tracked over virtual time with error budgets and burn
rates: windowed p99 commit latency, and leader availability (the
complement of ``leader_unavailable`` time).

Everything is a pure function of the (virtual-time-ordered) event
stream plus the window width: two runs of the same seed render
byte-identical ``health.json``, which CI asserts.
"""

from repro.common.errors import ConfigError
from repro.obs.spans import phase_spans

#: Schema identifier embedded in every health report.
HEALTH_SCHEMA = "repro-health/v1"
HEALTH_SCHEMA_VERSION = 1

#: Detector names, in severity order (most severe first).
DETECTORS = (
    "leader_unavailable", "recovery_dip", "disk_stall", "straggler",
)

#: A node's per-window median ACK lag must exceed *both*
#: ``STRAGGLER_RATIO x (median of the other nodes' medians)`` and the
#: absolute ``STRAGGLER_FLOOR`` (seconds) to count as a bad window.
STRAGGLER_RATIO = 4.0
STRAGGLER_FLOOR = 0.002

#: The same thresholds for the fsync-wait (``log.durable``) detector.
STALL_RATIO = 4.0
STALL_FLOOR = 0.005

#: Hysteresis: consecutive bad windows before a firing opens, and
#: consecutive good windows before it clears.
FIRE_AFTER = 2
CLEAR_AFTER = 2

#: Per-window p99 commit-latency target (seconds) and its tolerated
#: bad-window fraction.
SLO_COMMIT_P99 = 0.05
SLO_COMMIT_BUDGET = 0.10

#: Leader-availability target as a fraction of the run.
SLO_AVAILABILITY = 0.99


def nearest_rank(values, fraction):
    """Nearest-rank *fraction*-percentile (0..1) of a non-empty list."""
    ordered = sorted(values)
    return ordered[int(round(fraction * (len(ordered) - 1)))]


def _median(values):
    """Exact median (mean of middle pair for even counts)."""
    ordered = sorted(values)
    n = len(ordered)
    middle = n // 2
    if n % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


class Slo:
    """A windowed objective with an error budget over virtual time.

    Each closed window is judged OK or bad; *budget* is the tolerated
    bad-window fraction.  ``burn_rate`` is the fraction of the budget
    consumed so far, normalised so 1.0 means "exactly on budget" — a
    burn rate above 1.0 is an SLO breach.
    """

    __slots__ = ("name", "target", "budget", "good", "bad")

    def __init__(self, name, target, budget):
        if not 0.0 < budget < 1.0:
            raise ConfigError("budget must be in (0, 1): %r" % (budget,))
        self.name = name
        self.target = target
        self.budget = budget
        self.good = 0
        self.bad = 0

    def record(self, ok):
        """Account one closed window."""
        if ok:
            self.good += 1
        else:
            self.bad += 1

    @property
    def windows(self):
        return self.good + self.bad

    def summary(self):
        windows = self.windows
        bad_fraction = (self.bad / windows) if windows else 0.0
        burn_rate = bad_fraction / self.budget
        return {
            "target": self.target,
            "budget": self.budget,
            "windows": windows,
            "bad_windows": self.bad,
            "bad_fraction": bad_fraction,
            "burn_rate": burn_rate,
            "ok": bad_fraction <= self.budget,
        }


class HealthMonitor:
    """Detector engine over the structured event stream.

    :meth:`feed` a finished trace, call :meth:`finish` once, then
    :meth:`report` / :func:`render_health`.  Window 0 starts at the
    first event.

    *window* is the width of each judgement window in virtual seconds;
    the thresholds, hysteresis and SLO targets are the module
    constants above.  After :meth:`finish`, :attr:`spans` holds the
    trace's :func:`~repro.obs.spans.phase_spans`, which the leader
    detectors were read from.
    """

    def __init__(self, window=0.25):
        if window <= 0:
            raise ConfigError("window must be > 0: %r" % (window,))
        self.window = float(window)
        self.slo_commit = Slo("commit_p99", SLO_COMMIT_P99,
                              SLO_COMMIT_BUDGET)
        self.firings = []            # every firing ever, in onset order
        self.spans = []              # phase_spans of the trace, at finish
        self._events = []            # the trace, for phase_spans
        # windowing
        self._t0 = None              # origin of window 0
        self._index = 0              # next window to close
        self._win_commits = {}       # node -> commits this window
        self._win_acks = {}          # node -> [ack lag] this window
        self._win_waits = {}         # node -> [fsync wait] this window
        self._win_latency = []       # commit latencies this window
        self._series = {}            # (name, node) -> [sample per window]
        # event-driven state
        self._nodes = set()
        self._commits_total = 0
        self._propose_t = {}         # zxid tuple -> propose time
        self._streaks = {"straggler": {}, "disk_stall": {}}
        self._down_spans = {}        # node -> [[down_t, up_t|None], ...]
        self._last_t = None
        self._t_end = None
        self._finished = False

    def feed(self, events):
        """Fold *events* (a finished trace, in time order) through
        :meth:`observe`."""
        for event in events:
            self.observe(event)
        return self

    def _origin(self, t):
        if self._t0 is None:
            self._t0 = t

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------

    def observe(self, event):
        """Fold one :class:`~repro.obs.trace.TraceEvent` into the
        monitor."""
        if self._finished:
            return
        self._events.append(event)
        t = event.t
        self._origin(t)
        self._advance(t)
        if self._last_t is None or t > self._last_t:
            self._last_t = t
        node = event.node
        if node is not None:
            self._nodes.add(node)
        kind = event.kind
        fields = event.fields
        if kind == "peer.commit":
            self._commits_total += 1
            if node is not None:
                counts = self._win_commits
                counts[node] = counts.get(node, 0) + 1
        elif kind == "leader.ack":
            lag = fields.get("lag")
            if lag is not None:
                src = fields.get("src", node)
                self._nodes.add(src)
                self._win_acks.setdefault(src, []).append(lag)
        elif kind == "log.durable":
            wait = fields.get("wait")
            if wait is not None and node is not None:
                self._win_waits.setdefault(node, []).append(wait)
        elif kind == "leader.propose":
            self._propose_t[tuple(fields["zxid"])] = t
        elif kind == "leader.commit":
            proposed = self._propose_t.pop(tuple(fields["zxid"]), None)
            if proposed is not None:
                self._win_latency.append(t - proposed)
        elif kind == "fault.crash":
            self._on_crash(t, node)
        elif kind == "fault.recover":
            spans = self._down_spans.get(node)
            if spans and spans[-1][1] is None:
                spans[-1][1] = t

    def _on_crash(self, t, node):
        self._down_spans.setdefault(node, []).append([t, None])
        # A hard failure supersedes any gray-failure firing on the node.
        for detector, streaks in sorted(self._streaks.items()):
            state = streaks.get(node)
            if state is not None:
                if state["firing"] is not None:
                    state["firing"]["clear"] = t
                    state["firing"]["cleared_by"] = "crash"
                del streaks[node]

    # ------------------------------------------------------------------
    # Leader availability and the recovery dip, from the phase spans
    # ------------------------------------------------------------------

    def _leader_firings(self):
        """``leader_unavailable`` and ``recovery_dip`` firings, read off
        :attr:`spans`: no leader from the first election to the first
        establishment, and from each lost epoch to the next one; a dip
        from each loss after commits began until a newer epoch's first
        delivery."""
        spans = self.spans
        firings = []

        def unavailable(onset, clear, reason):
            firings.append({
                "detector": "leader_unavailable", "node": None,
                "onset": onset, "clear": clear, "reason": reason,
            })

        if spans:
            if spans[0]["election_start"] is not None:
                unavailable(spans[0]["election_start"],
                            spans[0]["established_at"], "election")
        else:
            started = [e.t for e in self._events
                       if e.kind == "election.start"]
            if started:
                unavailable(started[0], None, "election")
        delivered = [s["first_commit_at"] for s in spans
                     if s["first_commit_at"] is not None]
        first_delivery = min(delivered) if delivered else None
        dip = None
        for k, span in enumerate(spans):
            if span["lost"] is None:
                continue
            onset = span["end"]
            later = spans[k + 1:]
            unavailable(
                onset, later[0]["established_at"] if later else None,
                span["lost"],
            )
            if dip is not None and (
                dip["clear"] is None or dip["clear"] > onset
            ):
                continue                 # still dipping from an older loss
            flowing = first_delivery is not None and first_delivery <= onset
            if span["epoch"] is None or not flowing:
                continue
            dip = {
                "detector": "recovery_dip", "node": None,
                "onset": onset, "clear": None, "epoch_lost": span["epoch"],
            }
            restored = [
                s for s in later
                if s["first_commit_at"] is not None
                and s["epoch"] is not None and s["epoch"] > span["epoch"]
            ]
            if restored:
                first = min(restored, key=lambda s: s["first_commit_at"])
                dip["clear"] = first["first_commit_at"]
                dip["epoch_cleared"] = first["epoch"]
            firings.append(dip)
        return firings

    def _leader_present(self, k):
        """1.0 if an established leader held at the end of window *k*."""
        end = self._t0 + (k + 1) * self.window
        latest = None
        for span in self.spans:
            if span["established_at"] >= end:
                break
            latest = span
        if latest is None or (latest["lost"] and latest["end"] < end):
            return 0.0
        return 1.0

    # ------------------------------------------------------------------
    # Window machinery
    # ------------------------------------------------------------------

    def _window_end(self):
        return self._t0 + (self._index + 1) * self.window

    def _advance(self, t):
        """Close every window whose end lies at or before *t*."""
        while self._t0 is not None and t >= self._window_end():
            self._close_window()

    def _sample(self, name, node, value):
        """Record *value* as window ``_index``'s sample of a series."""
        samples = self._series.setdefault((name, node), [])
        samples.extend([None] * (self._index - len(samples)))
        samples.append(value)

    def _close_window(self):
        start = self._t0 + self._index * self.window
        end = self._window_end()
        commits = self._win_commits
        self._sample("commit_rate", None,
                     sum(commits.values()) / self.window)
        for node in sorted(self._nodes):
            self._sample("commit_rate", node,
                         commits.get(node, 0) / self.window)
        self._judge_windowed(
            "straggler", self._win_acks, "ack_lag_p50",
            STRAGGLER_RATIO, STRAGGLER_FLOOR, start, end,
        )
        self._judge_windowed(
            "disk_stall", self._win_waits, "fsync_wait_p50",
            STALL_RATIO, STALL_FLOOR, start, end,
        )
        if self._win_latency:
            p99 = nearest_rank(self._win_latency, 0.99)
            self._sample("commit_p99", None, p99)
            self.slo_commit.record(p99 <= self.slo_commit.target)
        self._win_commits = {}
        self._win_acks = {}
        self._win_waits = {}
        self._win_latency = []
        self._index += 1

    def _judge_windowed(self, detector, samples, series_name,
                        ratio, floor, start, end):
        """Per-node median-vs-quorum judgement for one closed window."""
        medians = {
            node: _median(values)
            for node, values in samples.items()
        }
        for node in sorted(medians):
            self._sample(series_name, node, medians[node])
        enough = len(medians) >= 3
        for node in sorted(self._nodes):
            if not enough or node not in medians:
                self._streak(detector, node, None, start, end, None)
                continue
            others = [
                value for peer, value in medians.items() if peer != node
            ]
            cluster = _median(others)
            threshold = max(ratio * cluster, floor)
            extra = {
                "value": medians[node],
                "cluster": cluster,
                "threshold": threshold,
            }
            self._streak(
                detector, node, medians[node] > threshold,
                start, end, extra,
            )

    def _streak(self, detector, node, verdict, start, end, extra):
        """Hysteresis bookkeeping for one (detector, node, window)."""
        states = self._streaks[detector]
        state = states.get(node)
        if state is None:
            state = states[node] = {
                "bad": 0, "good": 0, "since": None, "firing": None,
            }
        if verdict is None:
            return                      # no data: streaks freeze
        if verdict:
            state["good"] = 0
            if state["bad"] == 0:
                state["since"] = start
            state["bad"] += 1
            if state["firing"] is None and state["bad"] >= FIRE_AFTER:
                firing = {
                    "detector": detector, "node": node,
                    "onset": state["since"], "clear": None,
                }
                firing.update(extra)
                state["firing"] = firing
                self.firings.append(firing)
        else:
            state["bad"] = 0
            state["since"] = None
            state["good"] += 1
            if state["firing"] is not None and state["good"] >= CLEAR_AFTER:
                state["firing"]["clear"] = end
                state["firing"] = None
                state["good"] = 0

    # ------------------------------------------------------------------
    # Finishing and reporting
    # ------------------------------------------------------------------

    def finish(self, t_end=None):
        """Close complete windows, judge leadership from the trace's
        :func:`~repro.obs.spans.phase_spans`, and freeze the monitor at
        *t_end* (defaults to the last event time seen)."""
        if self._finished:
            return self
        if t_end is None:
            t_end = self._last_t if self._last_t is not None else self._t0
        if t_end is not None:
            self._origin(t_end)
            self._advance(t_end)
        self._t_end = t_end if t_end is not None else 0.0
        self.spans = phase_spans(self._events)
        if self._index:
            self._series[("leader_present", None)] = [
                self._leader_present(k) for k in range(self._index)
            ]
        # Leader firings first, so they precede a windowed firing with
        # the same onset.
        self.firings = sorted(
            self._leader_firings() + self.firings,
            key=lambda f: f["onset"],
        )
        self._finished = True
        return self

    def active(self):
        """Firings still open, sorted by (detector, node)."""
        open_firings = [f for f in self.firings if f["clear"] is None]
        return sorted(
            open_firings,
            key=lambda f: (f["detector"], str(f["node"])),
        )

    @property
    def healthy(self):
        """True when no detector is still firing."""
        return not self.active()

    def _availability(self):
        t0 = self._t0 if self._t0 is not None else 0.0
        t_end = self._t_end if self._t_end is not None else t0
        duration = max(t_end - t0, 0.0)
        unavailable = 0.0
        for firing in self.firings:
            if firing["detector"] != "leader_unavailable":
                continue
            clear = firing["clear"]
            unavailable += (clear if clear is not None else t_end)
            unavailable -= firing["onset"]
        unavailable = min(max(unavailable, 0.0), duration)
        target = SLO_AVAILABILITY
        budget = (1.0 - target) * duration
        availability = (
            (duration - unavailable) / duration if duration else 1.0
        )
        return {
            "target": target,
            "duration_s": duration,
            "unavailable_s": unavailable,
            "availability": availability,
            "budget_s": budget,
            "burn_rate": (unavailable / budget) if budget else 0.0,
            "ok": availability >= target,
        }

    def _series_digest(self):
        """``{name: {node-or-"cluster": digest}}`` of every per-window
        series, names and (stringified) nodes in sorted order."""
        data = {}
        for (name, node), samples in sorted(
            self._series.items(),
            key=lambda item: (item[0][0], str(item[0][1])),
        ):
            values = [value for value in samples if value is not None]
            data.setdefault(name, {})[
                "cluster" if node is None else str(node)
            ] = {
                "count": len(values),
                "total": len(values),
                "mean": sum(values) / len(values),
                "min": min(values),
                "max": max(values),
                "last": values[-1],
                "last_t": self._t0 + len(samples) * self.window,
            }
        return data

    def report(self, params=None):
        """The machine-readable health verdict (``health.json`` body).

        Deterministic for a given event stream: serialise with
        ``json.dump(..., sort_keys=True)`` for byte-stable artifacts.
        """
        firings = sorted(
            (dict(firing) for firing in self.firings),
            key=lambda f: (f["onset"], f["detector"], str(f["node"])),
        )
        last = self.spans[-1] if self.spans else None
        return {
            "schema": HEALTH_SCHEMA,
            "schema_version": HEALTH_SCHEMA_VERSION,
            "params": dict(params) if params else {},
            "window_s": self.window,
            "t0": self._t0 if self._t0 is not None else 0.0,
            "t_end": self._t_end if self._t_end is not None else 0.0,
            "windows": self._index,
            "nodes": sorted(self._nodes),
            "voters": sorted(self._nodes),
            "leader": (
                last["leader"] if last and last["lost"] is None else None
            ),
            "epoch": last["epoch"] if last else None,
            "commits": self._commits_total,
            "firings": firings,
            "active": [
                {"detector": f["detector"], "node": f["node"]}
                for f in self.active()
            ],
            "slos": {
                "commit_p99": self.slo_commit.summary(),
                "availability": self._availability(),
            },
            "series": self._series_digest(),
            "verdict": "healthy" if self.healthy else "degraded",
        }

    def summary(self):
        """Compact digest for embedding in bench/campaign artifacts."""
        counts = {}
        for firing in self.firings:
            name = firing["detector"]
            counts[name] = counts.get(name, 0) + 1
        slos = self.report_slos()
        return {
            "verdict": "healthy" if self.healthy else "degraded",
            "firings": {name: counts[name] for name in sorted(counts)},
            "active": [
                {"detector": f["detector"], "node": f["node"]}
                for f in self.active()
            ],
            "slos": {
                name: {"ok": slo["ok"], "burn_rate": slo["burn_rate"]}
                for name, slo in sorted(slos.items())
            },
        }

    def report_slos(self):
        return {
            "commit_p99": self.slo_commit.summary(),
            "availability": self._availability(),
        }


# ---------------------------------------------------------------------------
# ASCII rendering
# ---------------------------------------------------------------------------

def _overlaps(firing, start, end, t_end):
    clear = firing["clear"]
    if clear is None:
        clear = t_end
    return firing["onset"] < end and clear > start


def render_health(monitor, max_windows=160):
    """Per-node ASCII timelines plus firing and SLO summaries.

    One character per window and per lane.  Cluster lane: ``!`` no
    leader, ``v`` recovery dip, ``#`` commits flowed, ``.`` idle.
    Node lanes: ``x`` down, ``D`` disk stall, ``S`` straggler, ``#``
    committing, ``.`` idle.
    """
    t0 = monitor._t0 if monitor._t0 is not None else 0.0
    t_end = monitor._t_end if monitor._t_end is not None else t0
    width = monitor.window
    total = monitor._index
    first = max(0, total - max_windows)
    lines = [
        "health over t=[%.2f, %.2f]s  window=%.3fs  windows=%d%s"
        % (t0, t_end, width, total,
           "  (showing last %d)" % (total - first) if first else ""),
        "legend: '#' commits  '.' idle  'x' down  'S' straggler"
        "  'D' disk-stall  '!' no leader  'v' recovery dip",
        "",
    ]

    by_detector = {}
    for firing in monitor.firings:
        by_detector.setdefault(firing["detector"], []).append(firing)

    def lane(node):
        chars = []
        rate = monitor._series.get(("commit_rate", node), ())
        for k in range(first, total):
            start = t0 + k * width
            end = t0 + (k + 1) * width
            char = "."
            if k < len(rate) and rate[k]:
                char = "#"
            if node is None:
                if any(
                    _overlaps(f, start, end, t_end)
                    for f in by_detector.get("recovery_dip", ())
                ):
                    char = "v"
                if any(
                    _overlaps(f, start, end, t_end)
                    for f in by_detector.get("leader_unavailable", ())
                ):
                    char = "!"
            else:
                for detector, mark in (
                    ("straggler", "S"), ("disk_stall", "D"),
                ):
                    if any(
                        f["node"] == node
                        and _overlaps(f, start, end, t_end)
                        for f in by_detector.get(detector, ())
                    ):
                        char = mark
                for span in monitor._down_spans.get(node, ()):
                    up = span[1] if span[1] is not None else t_end
                    if span[0] < end and up > start:
                        char = "x"
            chars.append(char)
        return "".join(chars)

    label_width = max(
        [len("cluster")]
        + [len("node %s" % node) for node in sorted(monitor._nodes)]
    )
    lines.append("%-*s %s" % (label_width, "cluster", lane(None)))
    for node in sorted(monitor._nodes):
        lines.append(
            "%-*s %s" % (label_width, "node %s" % node, lane(node))
        )
    lines.append("")

    if monitor.firings:
        lines.append("firings:")
        for firing in sorted(
            monitor.firings,
            key=lambda f: (f["onset"], f["detector"], str(f["node"])),
        ):
            where = (
                "cluster" if firing["node"] is None
                else "node %s" % firing["node"]
            )
            clear = firing["clear"]
            lines.append(
                "  %-18s %-8s onset=%.3fs  %s"
                % (
                    firing["detector"], where, firing["onset"],
                    "clear=%.3fs" % clear if clear is not None
                    else "STILL FIRING",
                )
            )
    else:
        lines.append("firings: none")
    lines.append("")

    lines.append("SLOs:")
    for name, slo in sorted(monitor.report_slos().items()):
        lines.append(
            "  %-14s %-4s burn_rate=%.2f"
            % (name, "ok" if slo["ok"] else "MISS", slo["burn_rate"])
        )
    lines.append("")
    lines.append(
        "verdict: %s" % ("healthy" if monitor.healthy else "degraded")
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# One-call entry point (CLI, tests, CI)
# ---------------------------------------------------------------------------

def run_health_check(scenario, config, rate=2000.0, duration=8.0,
                     window=0.25):
    """Run a drill on a cluster built from *config*, then judge its
    trace; returns the finished :class:`HealthMonitor` (*window*
    seconds wide, over ``[first event, final simulated time]``).

    Both drills are an open-loop
    :func:`~repro.bench.runner.run_broadcast_bench` run with no warm-up.
    ``"crash-recovery"`` installs the follower-crash / leader-crash /
    recover-all schedule
    (:func:`~repro.harness.scenarios.crash_recovery_schedule`).
    ``"slow-fsync"`` is the gray failure: on per-peer disk models, the
    lowest-id follower of the stable leader runs ``slow_disk`` (20x
    fsync latency) from t=2 s to t=6 s.  No
    checker property trips — commits keep flowing through the healthy
    quorum — but the victim's ACK lag and fsync wait balloon, which
    the straggler and disk-stall detectors must pin on the victim
    alone.  A config without a tracer gets one with per-message
    ``net.*`` events disabled (the detectors never need them).
    """
    from repro.bench.runner import run_broadcast_bench
    from repro.harness.opscenarios import stable_leader_id
    from repro.harness.scenarios import crash_recovery_schedule
    from repro.harness.schedule import ActionSchedule
    from repro.obs.trace import Tracer

    if scenario == "crash-recovery":
        schedule = crash_recovery_schedule()
    elif scenario == "slow-fsync":
        config = config.replace(disk="model")
        leader = stable_leader_id(config.replace(tracer=None, metrics=None))
        victim = min(p for p in config.voter_ids() if p != leader)
        schedule = (
            ActionSchedule()
            .add(2.0, "slow_disk", victim)
            .add(6.0, "restore_disk", victim)
        )
    else:
        raise ConfigError(
            "unknown health scenario: %r (expected 'crash-recovery' "
            "or 'slow-fsync')" % (scenario,)
        )
    if config.tracer is None:
        tracer = Tracer()
        tracer.disable("net.")
        config = config.replace(tracer=tracer)
    result = run_broadcast_bench(
        config, duration=duration, warmup=0,
        rate=rate, schedule=schedule,
    )
    return HealthMonitor(window).feed(config.tracer.events).finish(
        result.metrics["gauges"]["sim.now"]
    )
