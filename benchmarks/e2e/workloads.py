"""The four workloads: what each builds, drives, measures and checks.

One call of a ``run_*`` function is one *repetition*: build the system,
bring it to the start of the measured window (that host time is
``setup_s``), run the window with the host clock on, drain, then check
the outputs.  Sizes are fixed in simulated seconds and op counts, never
derived from wall time, so every simulated result repeats bit for bit
for a given seed; only the host timings differ between repetitions.

Injected model on every cluster workload: one-way link latency 0.2 ms
with up to 0.05 ms uniform jitter, a 25 MB/s egress NIC per node, and a
per-peer disk that takes 0.5 ms per fsync plus bytes / 200 MB/s with
group commit on.  ``disk="model"`` also means a crash discards every
append whose fsync had not completed, which is what makes the
"no acknowledged write lost" check on ``failover-n5`` meaningful.
"""

import bisect
import gc
import random
import time

from repro import Cluster, ClusterConfig, check_all, explore_schedules
from repro.net import NetworkConfig

import loadgen
import stats

_perf = time.perf_counter

NETWORK = {"bandwidth_bps": 25e6, "latency": 0.0002, "jitter": 0.00005}
DISK = {"disk": "model", "fsync_latency": 0.0005, "disk_bandwidth": 200e6,
        "group_commit": True}

#: Write-latency limit of the rate ladder, milliseconds at p99.
SLO_MS = 5.0
#: The traced pass keeps full span records for this many ops / executions.
RECORD_OPS = 1000
RECORD_EXECUTIONS = 20
#: Benchmark timer that samples follower lag, simulated seconds.
LAG_PERIOD_S = 0.010

FULL = {
    "saturated-n3": {"keys": 10000, "outstanding": 64, "value_bytes": 1010,
                     "warmup_s": 0.25, "window_s": 1.5, "drain_s": 0.5},
    "mixed-n5obs2": {"keys": 2000, "value_bytes": 114,
                     "rates": (20000, 40000, 60000, 80000),
                     "headline_rate": 40000, "read_share": 0.70,
                     "sync_share": 0.10, "warmup_s": 0.05,
                     "window_s": 0.275, "drain_s": 0.3},
    # Fault times are relative to the start of the measured window.
    "failover-n5": {"rate": 2000, "value_bytes": 114, "warmup_s": 0.5,
                    "duration_s": 5.5, "drain_s": 1.0,
                    "crash_follower_at": 0.5, "crash_leader_at": 1.5,
                    "recover_both_at": 2.5, "crash_second_leader_at": 3.5,
                    "recover_second_at": 4.5, "snapshot_every": 2000,
                    "snap_sync_threshold": 500},
    "explore-d5": {"peers": 3, "depth": 5, "warmup_depth": 2},
}
# --smoke: a tenth of the work.  The crash schedule cannot shrink (the
# protocol's timeouts do not), so failover-n5 sends a tenth of the rate.
SMOKE = {
    "saturated-n3": dict(FULL["saturated-n3"], keys=1000, warmup_s=0.05,
                         window_s=0.15),
    "mixed-n5obs2": dict(FULL["mixed-n5obs2"], keys=200, warmup_s=0.01,
                         window_s=0.03),
    "failover-n5": dict(FULL["failover-n5"], rate=200, snapshot_every=200,
                        snap_sync_threshold=50),
    "explore-d5": dict(FULL["explore-d5"], depth=3, warmup_depth=1),
}


def sizes_of(name, smoke):
    return (SMOKE if smoke else FULL)[name]


class WorkloadError(Exception):
    """The workload could not be driven as specified (not a wrong output)."""


def build_cluster(n_voters, n_observers, seed, **zab):
    return Cluster(ClusterConfig(
        n_voters=n_voters, n_observers=n_observers, seed=seed,
        net=NetworkConfig(**NETWORK), zab=zab, **DISK
    )).start()


def _measure(tracer, fn, *args):
    """Host seconds of ``fn(*args)``; the traced pass also records spans."""
    if tracer is not None:
        return tracer.measure(fn, *args)
    started = _perf()
    fn(*args)
    return _perf() - started


def _latency_ms(samples_s, q):
    return stats.percentile(samples_s, q) * 1000.0 if samples_s else None


def preload(cluster, leader, n_keys):
    """Write every key once; returns the acknowledged ``(zxid, key, value)``."""
    acked = []
    for index in range(n_keys):
        key = loadgen.key_name(index)
        leader.propose_op(
            ("put", key, "init"),
            callback=lambda _r, zxid, key=key: acked.append(
                (zxid, key, "init")),
        )
    if not cluster.run_until(lambda: len(acked) == n_keys, timeout=60.0):
        raise WorkloadError(
            "preload stalled at %d of %d keys" % (len(acked), n_keys)
        )
    return acked


def model_state(acked):
    """The state a correct store holds after *acked* puts, in zxid order."""
    state = {}
    for _zxid, key, value in sorted(acked, key=lambda entry: entry[0]):
        state[key] = value
    return state


class LagSampler:
    """Leader position minus each live follower's, on a benchmark timer.

    ``position`` is the peer's global delivery index, so the difference
    is the follower's lag in transactions whatever was replayed or
    snapshotted on the way.
    """

    def __init__(self, cluster):
        self.cluster = cluster
        self.window = None        # (start, end) in simulated time
        self.samples = []

    def sample(self):
        window = self.window
        now = self.cluster.sim.now
        if window is None or not window[0] <= now < window[1]:
            return
        leader = self.cluster.leader()
        if leader is None:
            return
        for peer in self.cluster.peers.values():
            if (peer is not leader and not peer.crashed
                    and not peer.is_observer and peer.is_active_follower):
                self.samples.append(leader.position - peer.position)

    def detail(self):
        samples = self.samples
        return {
            "follower_lag_txns_p50":
                stats.percentile(samples, 50) if samples else None,
            "follower_lag_txns_p99":
                stats.percentile(samples, 99) if samples else None,
            "follower_lag_txns_max": max(samples) if samples else None,
        }


def _stop_records_after(tracer, generator, limit):
    """Traced pass: keep full span records for the first *limit* answers."""
    if tracer is None:
        return
    state = {"answers": 0}

    def on_answer():
        if tracer.enabled:
            state["answers"] += 1
            if state["answers"] >= limit:
                tracer.stop_recording()
                generator.on_answer = None

    generator.on_answer = on_answer


def _check_cluster(cluster, problems):
    """The checks every cluster workload shares; returns (states, seconds)."""
    started = _perf()
    report = check_all(cluster.trace)
    check_s = _perf() - started
    if not report.ok:
        problems.append(
            "PO broadcast properties violated: %s"
            % sorted(report.violated_properties())
        )
    states = cluster.states()
    if len({tuple(sorted(state.items())) for state in states.values()}) > 1:
        problems.append("live replicas disagree after the drain")
    return states, check_s


def check_against_model(states, acked, problems):
    """Fault-free workloads: the final state is exactly the model's."""
    expected = model_state(acked)
    for peer_id, state in sorted(states.items()):
        if state != expected:
            wrong = [key for key in expected
                     if state.get(key) != expected[key]]
            extra = [key for key in state if key not in expected]
            problems.append(
                "replica %s differs from the model: %d wrong or missing "
                "keys (first %r), %d unexpected keys"
                % (peer_id, len(wrong), wrong[:1], len(extra))
            )


def check_acked_present(states, acked, problems):
    """Crash workload: no acknowledged write is lost at any live replica."""
    for peer_id, state in sorted(states.items()):
        lost = [key for _zxid, key, value in acked if state.get(key) != value]
        if lost:
            problems.append(
                "replica %s lost %d acknowledged writes (first %r)"
                % (peer_id, len(lost), lost[0])
            )


def _require_p99(name, count, smoke, problems):
    """A full-size window must hold enough samples to support its p99."""
    if not smoke and not stats.supports_percentile(count, 99):
        problems.append(
            "%s has %d samples, too few beyond the p99 to report it"
            % (name, count)
        )


# ----------------------------------------------------------------------
# saturated-n3
# ----------------------------------------------------------------------

def run_saturated(seed, sizes, tracer=None, n_voters=3, smoke=False):
    """Closed loop of 1 KiB puts against *n_voters* voters."""
    rep_started = _perf()
    rng = random.Random(seed)
    cluster = build_cluster(n_voters, 0, seed)
    leader = cluster.run_until_stable()
    acked = preload(cluster, leader, sizes["keys"])
    sim = cluster.sim
    start = sim.now + sizes["warmup_s"]
    end = start + sizes["window_s"]
    # 25 000 draws per simulated second is 2.5x what the 25 MB/s leader
    # NIC lets through at 1 KiB; running out is reported, not wrapped.
    draws = int(25000 * (sizes["warmup_s"] + sizes["window_s"]))
    key_indices = [
        rng.randrange(sizes["keys"])
        for _ in range(draws + sizes["outstanding"])
    ]
    generator = loadgen.ClosedLoop(
        cluster, leader, key_indices, sizes["value_bytes"],
        sizes["outstanding"], stop_at=end, first_index=sizes["keys"],
    )
    tally = generator.tally = loadgen.Tally(start, end)
    _stop_records_after(tracer, generator, RECORD_OPS)
    lag = LagSampler(cluster)
    lag.window = (start, end)
    ticker = loadgen.Ticker(sim, LAG_PERIOD_S, lag.sample).start()
    generator.start()
    cluster.run(start - sim.now)
    gc.collect()
    setup_s = _perf() - rep_started

    window_host_s = _measure(tracer, cluster.run, end - sim.now)
    cluster.run(sizes["drain_s"])
    ticker.stop()

    problems = []
    states, check_s = _check_cluster(cluster, problems)
    check_against_model(states, acked + generator.acked, problems)
    _require_p99("commit latency", len(tally.commit_s), smoke, problems)
    failed = generator.unanswered() + generator.errored
    detail = {"commit_samples": len(tally.commit_s), "rejected": 0,
              "retried": 0, "unanswered": generator.unanswered()}
    detail.update(lag.detail())
    return {
        "host": {"setup_s": setup_s, "window_s": window_host_s,
                 "check_s": check_s},
        "work": tally.completed(),
        "sim": {
            "sim_throughput_ops_s":
                len(tally.commit_s) / sizes["window_s"],
            "sim_commit_p50_ms": _latency_ms(tally.commit_s, 50),
            "sim_commit_p99_ms": _latency_ms(tally.commit_s, 99),
            "failed_op_share": failed / generator.issued,
        },
        "detail": detail,
        "attempted": generator.issued,
        "failed": failed,
        "problems": problems,
    }


# ----------------------------------------------------------------------
# mixed-n5obs2
# ----------------------------------------------------------------------

def run_mixed(seed, sizes, tracer=None, smoke=False):
    """Open-loop rate ladder: local reads, sync reads and small puts."""
    rep_started = _perf()
    rng = random.Random(seed)
    cluster = build_cluster(5, 2, seed)
    leader = cluster.run_until_stable()
    acked = preload(cluster, leader, sizes["keys"])
    sim = cluster.sim
    replicas = sorted(cluster.peers)
    sync_replicas = sorted(
        peer_id for peer_id, peer in cluster.peers.items()
        if peer is not leader and not peer.is_observer
    )
    lag = LagSampler(cluster)
    ticker = loadgen.Ticker(sim, LAG_PERIOD_S, lag.sample).start()

    setup_s = None
    window_host_s = 0.0
    completed = 0
    next_index = sizes["keys"]
    generators = []
    steps = []
    for rate in sizes["rates"]:
        first_due = sim.now + 0.001
        times = loadgen.poisson_times(
            rng, rate, first_due, sizes["warmup_s"] + sizes["window_s"]
        )
        arrivals = loadgen.mixed_arrivals(
            rng, times, sizes["keys"], replicas, sync_replicas,
            sizes["value_bytes"], next_index,
            read_share=sizes["read_share"], sync_share=sizes["sync_share"],
        )
        next_index += len(arrivals)
        generator = loadgen.OpenLoop(cluster, arrivals)
        start = first_due + sizes["warmup_s"]
        end = start + sizes["window_s"]
        tally = generator.tally = loadgen.Tally(start, end)
        lag.window = (start, end)
        if not generators:
            _stop_records_after(tracer, generator, RECORD_OPS)
        generators.append(generator)
        generator.start()
        cluster.run(start - sim.now)
        if setup_s is None:
            gc.collect()
            setup_s = _perf() - rep_started
        window_host_s += _measure(tracer, cluster.run, end - sim.now)
        cluster.run(sizes["drain_s"])
        completed += tally.completed()
        steps.append({
            "rate": rate,
            "write_p50_ms": _latency_ms(tally.commit_s, 50),
            "write_p99_ms": _latency_ms(tally.commit_s, 99),
            "sync_read_p99_ms": _latency_ms(tally.sync_read_s, 99),
            "commit_samples": len(tally.commit_s),
            "sync_read_samples": len(tally.sync_read_s),
            "unanswered": generator.unanswered(),
        })
    ticker.stop()
    # A step past the knee may still owe answers; give them time before
    # judging the final state (they already failed that step's SLO).
    cluster.run_until(
        lambda: not any(gen.unanswered() for gen in generators), timeout=5.0
    )

    problems = []
    states, check_s = _check_cluster(cluster, problems)
    for generator in generators:
        acked = acked + generator.acked
    check_against_model(states, acked, problems)
    headline = next(
        step for step in steps if step["rate"] == sizes["headline_rate"]
    )
    _require_p99("commit latency at the headline rate",
                 headline["commit_samples"], smoke, problems)
    _require_p99("sync_read latency at the headline rate",
                 headline["sync_read_samples"], smoke, problems)
    issued = sum(gen.issued for gen in generators)
    failed = sum(gen.unanswered() + gen.errored for gen in generators)
    detail = {
        "commit_samples": headline["commit_samples"],
        "sync_read_samples": headline["sync_read_samples"],
        "rejected": sum(gen.rejected for gen in generators),
        "retried": 0,
        "unanswered": sum(step["unanswered"] for step in steps),
    }
    for step in steps:
        detail["write_p99_ms_at_%dk" % (step["rate"] // 1000)] = (
            step["write_p99_ms"]
        )
    detail.update(lag.detail())
    return {
        "host": {"setup_s": setup_s, "window_s": window_host_s,
                 "check_s": check_s},
        "work": completed,
        "sim": {
            "sim_commit_p50_ms": headline["write_p50_ms"],
            "sim_commit_p99_ms": headline["write_p99_ms"],
            "sim_sync_read_p99_ms": headline["sync_read_p99_ms"],
            "sim_max_rate_in_slo_ops_s": stats.max_rate_in_slo(
                [(step["rate"], step["write_p99_ms"], step["unanswered"])
                 for step in steps], SLO_MS),
            "failed_op_share": failed / issued,
        },
        "detail": detail,
        "attempted": issued,
        "failed": failed,
        "problems": problems,
    }


# ----------------------------------------------------------------------
# failover-n5
# ----------------------------------------------------------------------

def run_failover(seed, sizes, tracer=None, smoke=False):
    """Fixed-rate unique puts through a follower crash and two leader crashes."""
    rep_started = _perf()
    rng = random.Random(seed)
    cluster = build_cluster(
        5, 0, seed, snapshot_every=sizes["snapshot_every"],
        snap_sync_threshold=sizes["snap_sync_threshold"],
    )
    first_leader = cluster.run_until_stable()
    sim = cluster.sim
    first_due = sim.now + 0.01
    start = first_due + sizes["warmup_s"]
    end = start + sizes["duration_s"]
    arrivals = loadgen.unique_put_arrivals(
        loadgen.fixed_times(
            sizes["rate"], first_due,
            sizes["warmup_s"] + sizes["duration_s"],
        ),
        sizes["value_bytes"],
    )
    generator = loadgen.OpenLoop(cluster, arrivals, retry=True)
    tally = generator.tally = loadgen.Tally(start, end)
    _stop_records_after(tracer, generator, RECORD_OPS)
    lag = LagSampler(cluster)
    lag.window = (start, end)

    leader_crashes = []           # simulated time of each leader crash
    catching_up = {}              # peer id -> simulated time of recover()
    catchups = []                 # seconds from recover() to serving
    down = []

    def crash(peer):
        cluster.crash(peer.peer_id)
        down.append(peer.peer_id)

    def crash_follower():
        followers = sorted(
            peer_id for peer_id, peer in cluster.peers.items()
            if peer is not first_leader and not peer.crashed
        )
        crash(cluster.peers[rng.choice(followers)])

    def crash_leader():
        leader = cluster.leader()
        if leader is None:
            raise WorkloadError("no leader to crash at t=%.3f" % sim.now)
        leader_crashes.append(sim.now)
        crash(leader)

    def recover_all():
        while down:
            peer_id = down.pop()
            cluster.recover(peer_id)
            catching_up[peer_id] = sim.now

    def poll():
        generator.resubmit_after_leader_change()
        if catching_up:
            leader = cluster.leader()
            if leader is not None:
                epoch = leader.current_epoch()
                for peer_id in sorted(catching_up):
                    peer = cluster.peers[peer_id]
                    if (peer.is_active_follower
                            and peer.current_epoch() == epoch):
                        catchups.append(sim.now - catching_up.pop(peer_id))

    for offset, action in (
        (sizes["crash_follower_at"], crash_follower),
        (sizes["crash_leader_at"], crash_leader),
        (sizes["recover_both_at"], recover_all),
        (sizes["crash_second_leader_at"], crash_leader),
        (sizes["recover_second_at"], recover_all),
    ):
        sim.schedule_at(start + offset, action)
    # 1 ms: the client notices a new leader, and the benchmark a peer
    # that caught up, with that resolution.
    poller = loadgen.Ticker(sim, 0.001, poll).start()
    sampler = loadgen.Ticker(sim, LAG_PERIOD_S, lag.sample).start()
    generator.start()
    cluster.run(start - sim.now)
    gc.collect()
    setup_s = _perf() - rep_started

    window_host_s = _measure(tracer, cluster.run, end - sim.now)
    cluster.run(sizes["drain_s"])
    poller.stop()
    sampler.stop()

    problems = []
    states, check_s = _check_cluster(cluster, problems)
    check_acked_present(states, generator.acked, problems)
    if len(states) != len(cluster.peers):
        problems.append("only %d of %d peers serve after the drain"
                        % (len(states), len(cluster.peers)))
    _require_p99("commit latency", len(tally.commit_s), smoke, problems)
    outages = []
    for crashed_at in leader_crashes:
        index = bisect.bisect_right(generator.commit_times, crashed_at)
        if index < len(generator.commit_times):
            outages.append(generator.commit_times[index] - crashed_at)
    if len(outages) != 2 or len(catchups) != 3 or catching_up:
        problems.append(
            "fault schedule incomplete: %d outages, %d catch-ups, %d peers "
            "still catching up" % (len(outages), len(catchups),
                                   len(catching_up))
        )
    failed = generator.unanswered() + generator.errored
    detail = {"commit_samples": len(tally.commit_s),
              "rejected": generator.rejected, "retried": generator.retried,
              "unanswered": generator.unanswered()}
    detail.update(lag.detail())
    return {
        "host": {"setup_s": setup_s, "window_s": window_host_s,
                 "check_s": check_s},
        "work": tally.completed(),
        "sim": {
            "sim_commit_p50_ms": _latency_ms(tally.commit_s, 50),
            "sim_commit_p99_ms": _latency_ms(tally.commit_s, 99),
            "sim_outage_s": sum(outages) / len(outages) if outages else None,
            "sim_catchup_s": max(catchups) if catchups else None,
            "failed_op_share": failed / generator.issued,
        },
        "detail": detail,
        "attempted": generator.issued,
        "failed": failed,
        "problems": problems,
    }


# ----------------------------------------------------------------------
# explore-d5
# ----------------------------------------------------------------------

def _explore(peers, depth, seed):
    # Budgets lifted so the search exhausts: a truncated search measures
    # the budget, not the explorer.
    return explore_schedules(
        peers=peers, depth=depth, seed=seed, max_violations=0,
        max_schedules=10 ** 9, max_states=10 ** 9,
    )


def run_explore(seed, sizes, tracer=None, smoke=False):
    """Exhaustive bounded exploration of fault schedules."""
    rep_started = _perf()
    # Set-up is a shallow exploration with the same seed: it fills the
    # interpreter's caches on the paths the measured search takes.
    _explore(sizes["peers"], sizes["warmup_depth"], seed)
    gc.collect()
    setup_s = _perf() - rep_started

    outcome = []
    if tracer is not None:
        tracer.record_clusters = RECORD_EXECUTIONS
    window_host_s = _measure(
        tracer,
        lambda: outcome.append(_explore(sizes["peers"], sizes["depth"], seed)),
    )
    result = outcome[0]

    problems = []
    if not result.exhausted:
        problems.append("search stopped on %s with %d prefixes left"
                        % (result.stopped_reason, result.frontier_left))
    if result.violations:
        problems.append("%d violations found" % len(result.violations))
    if result.errors:
        problems.append("%d executions errored (first: %s)"
                        % (len(result.errors), result.errors[0][1]))
    return {
        "host": {"setup_s": setup_s, "window_s": window_host_s,
                 "check_s": 0.0},
        "work": result.states_visited,
        "sim": {},
        "detail": {"mc_runs": result.runs,
                   "mc_states_visited": result.states_visited,
                   "mc_states_pruned": result.states_pruned,
                   "mc_choice_points": result.choice_points},
        "attempted": result.runs,
        "failed": len(result.errors),
        "problems": problems,
    }


WORKLOADS = {
    "saturated-n3": run_saturated,
    "mixed-n5obs2": run_mixed,
    "failover-n5": run_failover,
    "explore-d5": run_explore,
}


def run_rep(name, seed, smoke=False, tracer=None):
    """One repetition of workload *name*."""
    return WORKLOADS[name](
        seed, sizes_of(name, smoke), tracer=tracer, smoke=smoke)
