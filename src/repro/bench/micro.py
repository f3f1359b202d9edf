"""Wall-clock microbenchmarks of the three simulation hot paths.

Unlike everything else in :mod:`repro.bench` — which measures *simulated*
time — this module measures **wall-clock** throughput of the Python
machinery itself: how many kernel events, fabric messages, and checker
events per real second the toolkit can push.  Those rates bound every
experiment and every ``repro explore`` campaign, so they are tracked as
first-class, regression-gated metrics (``BENCH_micro.json`` against the
``micro`` entry of ``benchmarks/baseline.json``).

Four probes, one per hot layer:

- **kernel** — steady-state event-loop throughput: timer chains that
  reschedule themselves plus a cancel-churn component (every tick arms a
  timeout and cancels it on the next, the dominant pattern protocol
  timers produce).  Reported as ``kernel.events_per_s``.
- **fabric** — per-message overhead of :class:`repro.net.Network`:
  a leader-shaped node broadcasting fixed-size payloads to *n* followers
  through the full send/arrival/deliver path.  Reported as
  ``fabric.messages_per_s``.
- **checker** — PO-property checking throughput over a synthetic
  many-epoch trace: the post-hoc :func:`repro.checker.check_all` pass
  (``checker.check_all_events_per_s``) and, when available, the
  incremental :class:`repro.checker.CheckerState` consuming the same
  events one at a time (``checker.events_per_s``).
- **explore** — end-to-end states/second of a small exhaustive
  ``repro explore`` run, the metric the DFS campaign actually buys with
  the three layers above.  Reported as ``explore.states_per_s`` and
  ``explore.runs_per_s``.
- **dissemination** — a committed-write loop through the whole peer
  stack, once per propagation topology (leader-direct, chain, tree,
  ring).  Reports wall-clock ``dissemination.<name>.messages_per_s``
  plus the *deterministic* ``.leader_egress_bytes_per_txn`` that
  separates the topologies (∝ n-1 for leader-direct, ~flat for
  chain/ring, ∝ fan-out for tree).
- **campaign** — end-to-end adversarial-campaign throughput through
  :func:`repro.bench.parallel.run_parallel_campaign`:
  ``campaign.runs_per_s`` plus the deterministic ``campaign.runs``
  count.
- **parallel explore** — the partitioned subtree driver
  (:func:`repro.bench.parallel.parallel_explore`) on the same small
  search as the serial explore probe, with a process pool:
  ``explore.parallel.states_per_s`` plus deterministic
  ``explore.parallel.units`` / ``explore.parallel.runs`` pins (the
  decomposition itself must never drift).
- **workload** — aggregate session-class load vs per-client drivers at
  the same offered rate: ``workload.sim_clients_per_s`` (simulated
  client-seconds per wall second with one
  :class:`~repro.bench.workloads.SessionClass` standing in for a
  million clients), ``workload.perclient_sim_clients_per_s`` (the same
  measure with one ``OpenLoopDriver`` per client), their ratio
  ``workload.aggregate_speedup``, and the deterministic
  ``workload.committed`` count.
- **tracing** — the observability overhead probe: the same committed-
  write loop under four instrumentation postures — tracer off,
  flight-recorder-only (the always-on black box), deterministic
  sampling, and full tracing.  ``tracing.<mode>.relative_throughput``
  normalises each mode against tracer-off, immune to runner-speed
  differences, and the gated ``tracing.recorder.overhead`` pins the
  black box's hot-path cost at ≤5%; the deterministic ``tracing.
  sampled.events`` / ``tracing.full.events`` counts double as a
  cross-platform sampling-determinism check.

Workloads are deterministic (fixed seeds, fixed op counts); only the
clock is real, so run-to-run noise is scheduler jitter plus CPU-speed
differences between machines.  The committed baseline therefore carries
*generous* tolerances — the gate is meant to catch order-of-magnitude
hot-path regressions, not 10% wobble.
"""

import gc
import statistics
import time

from repro.bench.report import make_report, write_report

#: Benchmarked op counts, chosen so the whole suite runs in a few
#: seconds on a developer laptop while each probe still measures at
#: least ~10^5 operations.
KERNEL_EVENTS = 200_000
FABRIC_MESSAGES = 60_000
CHECKER_EVENTS = 60_000
EXPLORE_DEPTH = 3
DISSEMINATION_OPS = 400
TRACING_OPS = 5000
TRACING_SAMPLE_RATE = 8
CAMPAIGN_SEEDS = 6
CAMPAIGN_STEPS = 4
PARALLEL_WORKERS = 4
WORKLOAD_SESSIONS = 1_000_000
WORKLOAD_CLIENTS = 128
WORKLOAD_RATE = 400.0          # total offered ops/s, both load shapes
WORKLOAD_DURATION = 1.0        # simulated seconds per measurement


def _best_of(fn, repeat):
    """Run *fn* (returns ops) *repeat* times; return the best ops/sec.

    Best-of is the standard microbench estimator: the minimum elapsed
    time is the run least disturbed by the OS, and wall-clock noise is
    strictly additive.
    """
    best = 0.0
    for _ in range(repeat):
        t0 = time.perf_counter()
        ops = fn()
        elapsed = time.perf_counter() - t0
        if elapsed > 0:
            best = max(best, ops / elapsed)
    return best


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------

def bench_kernel(events=KERNEL_EVENTS, chains=32, repeat=3):
    """Steady-state event-loop throughput, in events/second.

    *chains* self-rescheduling timers keep the heap at a realistic
    depth; every firing also arms a pseudo-timeout that the next firing
    cancels, so the bench exercises schedule, fire, *and* cancel — the
    full per-event life cycle the protocol layer generates.
    """
    from repro.sim import Simulator

    def run_once():
        sim = Simulator(seed=1)

        def _noop():
            pass

        def make_tick(period):
            armed = [None]

            def tick():
                stale = armed[0]
                if stale is not None:
                    stale.cancel()
                armed[0] = sim.schedule(period * 10, _noop)
                sim.schedule(period, tick)

            return tick

        for chain in range(chains):
            # Coprime-ish periods so firings interleave instead of
            # arriving in lockstep bursts.
            sim.schedule(0.0, make_tick(0.001 + chain * 1e-5))
        try:
            sim.run(max_events=events)
        except Exception:
            pass  # SimulationLimitError is the expected exit
        return sim.events_fired

    rate = _best_of(run_once, repeat)
    return {
        "kernel.events_per_s": rate,
        "kernel.events": float(events),
    }


# ---------------------------------------------------------------------------
# Fabric
# ---------------------------------------------------------------------------

class _MicroPayload:
    """A Zab-proposal-shaped payload: carries a zxid and a wire size."""

    __slots__ = ("zxid", "body")

    def __init__(self, body):
        self.zxid = None
        self.body = body

    def wire_size(self):
        return 64 + len(self.body)


def bench_fabric(messages=FABRIC_MESSAGES, followers=4, repeat=3):
    """Per-message fabric overhead, in delivered messages/second.

    One leader-shaped sender broadcasts to *followers* receivers in
    rounds, with the bandwidth model on — the exact shape of the Zab
    commit path that saturates experiment E1.
    """
    from repro.net import Network, NetworkConfig
    from repro.sim import Simulator

    rounds = max(1, messages // followers)

    def run_once():
        sim = Simulator(seed=1)
        net = Network(sim, NetworkConfig(bandwidth_bps=1e9))
        received = {"n": 0}

        def handler(src, payload):
            received["n"] += 1

        net.register(0, handler)
        dsts = list(range(1, followers + 1))
        for dst in dsts:
            net.register(dst, handler)
        payload = _MicroPayload(b"x" * 512)

        def pump(left):
            net.broadcast(0, dsts, payload)
            if left > 1:
                sim.schedule(0.0005, pump, left - 1)

        sim.schedule(0.0, pump, rounds)
        sim.run()
        return received["n"]

    rate = _best_of(run_once, repeat)
    return {
        "fabric.messages_per_s": rate,
        "fabric.messages": float(rounds * followers),
    }


# ---------------------------------------------------------------------------
# Checker
# ---------------------------------------------------------------------------

def _synthetic_trace(events, processes=5, epochs=4):
    """A clean multi-epoch trace: every process delivers every txn."""
    from repro.checker import Trace
    from repro.zab.zxid import Zxid

    trace = Trace()
    # One delivery per (txn, process) plus one broadcast per txn.
    txns = max(1, events // (processes + 1))
    per_epoch = max(1, txns // epochs)
    position = 0
    for txn in range(txns):
        epoch = min(1 + txn // per_epoch, epochs)
        zxid = Zxid(epoch, txn + 1)
        txn_id = "t%d" % txn
        trace.record_broadcast(1, epoch, zxid, txn_id)
        position += 1
        for process in range(1, processes + 1):
            trace.record_delivery(
                process, 1, position, zxid, txn_id, epoch=epoch
            )
    return trace


def bench_checker(events=CHECKER_EVENTS, processes=5, repeat=3):
    """Property-checking throughput, in trace events/second.

    Measures the post-hoc ``check_all`` pass always, and the
    incremental ``CheckerState`` (one ``observe`` call per event plus a
    final verdict) when the current tree provides it.
    """
    trace = _synthetic_trace(events, processes=processes)
    total = len(trace.broadcasts) + len(trace.deliveries)

    from repro.checker import check_all

    def posthoc_once():
        report = check_all(trace)
        assert report.ok
        return total

    metrics = {
        "checker.check_all_events_per_s": _best_of(posthoc_once, repeat),
        "checker.events": float(total),
    }

    try:
        from repro.checker import CheckerState
    except ImportError:
        return metrics

    def incremental_once():
        state = CheckerState()
        observe_broadcast = state.observe_broadcast
        observe_delivery = state.observe_delivery
        broadcasts = iter(trace.broadcasts)
        deliveries = iter(trace.deliveries)
        next_b = next(broadcasts, None)
        next_d = next(deliveries, None)
        while next_b is not None or next_d is not None:
            if next_d is None or (
                next_b is not None and next_b.index < next_d.index
            ):
                observe_broadcast(next_b)
                next_b = next(broadcasts, None)
            else:
                observe_delivery(next_d)
                next_d = next(deliveries, None)
        assert state.ok
        return total

    metrics["checker.events_per_s"] = _best_of(incremental_once, repeat)
    return metrics


# ---------------------------------------------------------------------------
# Explore
# ---------------------------------------------------------------------------

def bench_explore(depth=EXPLORE_DEPTH, peers=3, repeat=3):
    """End-to-end explorer throughput on a small exhaustive search.

    states/second is the composite number the three layers above buy:
    each explored state is one full boot-run-quiesce-check execution.
    """
    from repro.mc import explore_schedules

    stats = {}

    def run_once():
        result = explore_schedules(
            peers=peers, depth=depth, seed=0,
            max_schedules=512, max_states=4096, max_violations=0,
        )
        stats["states"] = result.states_visited
        stats["runs"] = result.runs
        return result.states_visited

    rate = _best_of(run_once, repeat)
    runs_rate = rate * stats["runs"] / max(1, stats["states"])
    return {
        "explore.states_per_s": rate,
        "explore.runs_per_s": runs_rate,
        "explore.states": float(stats["states"]),
        "explore.runs": float(stats["runs"]),
    }


# ---------------------------------------------------------------------------
# Campaign and parallel explore
# ---------------------------------------------------------------------------

def bench_campaign(seeds=CAMPAIGN_SEEDS, steps=CAMPAIGN_STEPS, repeat=2):
    """Adversarial-campaign throughput, in full seeded runs/second.

    Drives the same :func:`run_parallel_campaign` path the CLI uses
    (in-process, one worker): each run is a generate + replay + quiesce
    + check cycle, so this is the end-to-end cost of one campaign seed.
    """
    from repro.bench.parallel import run_parallel_campaign

    def run_once():
        outcomes = run_parallel_campaign(
            range(seeds), workers=1, steps=steps,
        )
        assert len(outcomes) == seeds
        return len(outcomes)

    return {
        "campaign.runs_per_s": _best_of(run_once, repeat),
        "campaign.runs": float(seeds),
    }


def bench_parallel_explore(depth=EXPLORE_DEPTH, peers=3,
                           workers=PARALLEL_WORKERS, repeat=1):
    """Partitioned-explorer throughput across a process pool.

    Same small search as :func:`bench_explore`, driven through
    :func:`repro.bench.parallel.parallel_explore` with *workers*
    processes.  The rate scales with cores (each subtree unit is an
    independent process); the ``units`` / ``runs`` counts are
    simulation-deterministic and pinned tightly — the subtree
    decomposition itself must never drift.
    """
    from repro.bench.parallel import parallel_explore
    from repro.mc.explorer import ExplorerConfig

    stats = {}

    def run_once():
        result = parallel_explore(ExplorerConfig(
            peers=peers, depth=depth, seed=0,
            max_schedules=512, max_states=4096, max_violations=0,
        ), workers=workers)
        stats["states"] = result.states_visited
        stats["runs"] = result.runs
        stats["units"] = len(result.unit_results)
        return result.states_visited

    rate = _best_of(run_once, repeat)
    return {
        "explore.parallel.states_per_s": rate,
        "explore.parallel.states": float(stats["states"]),
        "explore.parallel.runs": float(stats["runs"]),
        "explore.parallel.units": float(stats["units"]),
    }


# ---------------------------------------------------------------------------
# Aggregate workload
# ---------------------------------------------------------------------------

def bench_workload(sessions=WORKLOAD_SESSIONS, clients=WORKLOAD_CLIENTS,
                   rate=WORKLOAD_RATE, duration=WORKLOAD_DURATION,
                   repeat=2):
    """Simulated-clients-per-wall-second: aggregate vs per-client load.

    Both measurements drive the *same* cluster shape with the same
    total offered rate for the same simulated duration; the only
    difference is the load model.  The aggregate side models *sessions*
    clients as one :class:`SessionClass` (cost independent of the
    population size); the per-client side boots one ``OpenLoopDriver``
    per client, which is why it stops at ``clients`` — a million
    driver objects would never finish.  ``sim_clients_per_s`` is
    simulated client-seconds delivered per wall-clock second, the
    capacity number the ROADMAP's planetary-scale goal needs.
    ``workload.committed`` is simulation-deterministic and pinned.
    """
    from repro.bench.workloads import (
        AggregateOpenLoopDriver, OpenLoopDriver, SessionClass,
    )
    from repro.harness.cluster import Cluster
    from repro.harness.config import ClusterConfig

    committed = {}

    def aggregate_once():
        cluster = Cluster(ClusterConfig(n_voters=3, seed=1)).start()
        cluster.run_until_stable(timeout=60.0)
        driver = AggregateOpenLoopDriver(cluster, [SessionClass(
            "micro", sessions=sessions, rate_per_session=rate / sessions,
            read_fraction=0.5, op_size=64,
        )]).start()
        cluster.run(duration)
        driver.stop()
        committed["aggregate"] = float(driver.committed)
        return sessions * duration

    def perclient_once():
        cluster = Cluster(ClusterConfig(n_voters=3, seed=1)).start()
        cluster.run_until_stable(timeout=60.0)
        payload = "v" * 64
        drivers = [
            OpenLoopDriver(
                cluster, rate / clients,
                lambda index, c=client: ("put", "key-%d" % c, payload),
                64,
            ).start()
            for client in range(clients)
        ]
        cluster.run(duration)
        for driver in drivers:
            driver.stop()
        return clients * duration

    aggregate_rate = _best_of(aggregate_once, repeat)
    perclient_rate = _best_of(perclient_once, repeat)
    return {
        "workload.sim_clients_per_s": aggregate_rate,
        "workload.perclient_sim_clients_per_s": perclient_rate,
        "workload.aggregate_speedup": (
            aggregate_rate / perclient_rate if perclient_rate else 0.0
        ),
        "workload.committed": committed["aggregate"],
    }


# ---------------------------------------------------------------------------
# Dissemination topologies
# ---------------------------------------------------------------------------

def bench_dissemination(ops=DISSEMINATION_OPS, n_voters=5, repeat=1,
                        topologies=None):
    """Per-topology dissemination cost through the full peer stack.

    For each propagation topology: boot an *n_voters* cluster, commit
    *ops* writes, and report wall-clock delivered messages/second plus
    the deterministic leader-egress bytes per committed transaction.
    The byte metric is the topology's signature (simulation-exact, no
    wall-clock noise), so the baseline pins it tightly; the rate metric
    rides the usual generous tolerance.
    """
    from repro.harness.cluster import Cluster
    from repro.harness.config import ClusterConfig
    from repro.zab.dissemination import DISSEMINATION_TOPOLOGIES

    if topologies is None:
        topologies = DISSEMINATION_TOPOLOGIES
    metrics = {}
    for topology in topologies:
        def run_once(topology=topology):
            cluster = Cluster(ClusterConfig(
                n_voters=n_voters, seed=1, dissemination=topology,
            )).start()
            cluster.run_until_stable(timeout=60.0)
            stats = cluster.network.stats
            leader = cluster.leader()
            base_received = sum(stats.messages_received.values())
            base_egress = stats.egress_bytes(leader.peer_id)
            done = []
            for index in range(ops):
                cluster.submit(("put", "k%d" % (index % 16), index),
                               callback=lambda r, z: done.append(None))
            cluster.run_until(lambda: len(done) >= ops, timeout=60.0)
            assert len(done) >= ops, (topology, len(done))
            metrics["dissemination.%s.leader_egress_bytes_per_txn"
                    % topology] = (
                (stats.egress_bytes(leader.peer_id) - base_egress)
                / float(ops)
            )
            return sum(stats.messages_received.values()) - base_received
        metrics["dissemination.%s.messages_per_s" % topology] = (
            _best_of(run_once, repeat)
        )
    return metrics


# ---------------------------------------------------------------------------
# Tracing overhead
# ---------------------------------------------------------------------------

def bench_tracing(ops=TRACING_OPS, n_voters=3, repeat=5):
    """Observability cost of each instrumentation posture.

    Runs the same committed-write loop through the full peer stack
    four ways -- ``off`` (bare ``NULL_TRACER``), ``recorder`` (the
    default always-on :class:`~repro.obs.FlightRecorder` black box),
    ``sampled`` (a :class:`~repro.obs.Tracer` with deterministic
    1-in-``TRACING_SAMPLE_RATE`` sampling on the per-message kinds),
    and ``full`` (record everything) -- and reports wall-clock
    committed ops/second per mode plus each mode's throughput relative
    to ``off``.  The ``sampled``/``full`` sections run ``ops // 4``
    writes: they are 2x slower per op and their ratios carry loose
    tolerances, so shorter sections keep the probe's wall time down
    without touching the gated measurement.

    The gated number is ``tracing.recorder.overhead`` =
    ``max(0, 1 - relative_throughput)``: pinned near zero in the
    baseline it enforces "the black box costs at most a few percent"
    on any runner, and clamping at zero means a lucky
    faster-than-off reading can never trip the symmetric gate.

    Because the true recorder cost is a single attribute check per hot
    event, the measurement's enemy is scheduler noise, not signal.
    Three defences keep it honest: the modes run in *interleaved*
    round-robin rounds (off, recorder, sampled, full, off, ...) so a
    slow episode lands on every mode rather than whichever one it
    happened to overlap; the GC is collected, then disabled, around
    each timed section so collection pauses don't land in one mode's
    account; and each relative_throughput is the more favourable of
    two estimators -- best-of/best-of across rounds, and the median of
    per-round (adjacent-in-time) ratios -- each of which survives the
    noise shapes that contaminate the other (a long throttle window
    spanning several rounds, respectively a burst inside one round).
    The event *counts* are simulation-deterministic and double as a
    sampling-determinism check.
    """
    from repro.harness.cluster import Cluster
    from repro.harness.config import ClusterConfig
    from repro.obs import FlightRecorder, Tracer

    counts = {}

    def run_once(mode, mode_ops):
        kwargs = {"recorder": False}
        if mode == "recorder":
            kwargs["recorder"] = FlightRecorder()
        elif mode == "sampled":
            tracer = Tracer()
            tracer.sample(
                TRACING_SAMPLE_RATE,
                "net.", "log.", "leader.", "follower.", "peer.",
            )
            kwargs["tracer"] = tracer
        elif mode == "full":
            kwargs["tracer"] = Tracer()
        cluster = Cluster(ClusterConfig(
            n_voters=n_voters, seed=1, **kwargs
        )).start()
        cluster.run_until_stable(timeout=60.0)
        done = []
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for index in range(mode_ops):
                cluster.submit(("put", "k%d" % (index % 16), index),
                               callback=lambda r, z: done.append(None))
            cluster.run_until(lambda: len(done) >= mode_ops, timeout=60.0)
            elapsed = time.perf_counter() - t0
        finally:
            gc.enable()
        assert len(done) >= mode_ops, (mode, len(done))
        if mode == "recorder":
            counts["tracing.recorder.events"] = float(
                cluster.recorder.recorded
            )
        elif mode in ("sampled", "full"):
            counts["tracing.%s.events" % mode] = float(
                len(cluster.tracer.events)
            )
        return mode_ops / elapsed if elapsed > 0 else 0.0

    mode_ops = {
        "off": ops, "recorder": ops,
        "sampled": max(1, ops // 4), "full": max(1, ops // 4),
    }
    modes = ("off", "recorder", "sampled", "full")
    best = dict.fromkeys(modes, 0.0)
    pair_ratios = {mode: [] for mode in modes[1:]}
    for _ in range(repeat):
        rates = {mode: run_once(mode, mode_ops[mode]) for mode in modes}
        for mode in modes:
            best[mode] = max(best[mode], rates[mode])
        if rates["off"] > 0:
            for mode in modes[1:]:
                pair_ratios[mode].append(rates[mode] / rates["off"])
    metrics = {"tracing.off.ops_per_s": best["off"]}
    for mode in modes[1:]:
        estimates = []
        if best["off"] > 0:
            estimates.append(best[mode] / best["off"])
        if pair_ratios[mode]:
            estimates.append(statistics.median(pair_ratios[mode]))
        ratio = max(estimates) if estimates else 0.0
        metrics["tracing.%s.ops_per_s" % mode] = best[mode]
        metrics["tracing.%s.relative_throughput" % mode] = ratio
    metrics["tracing.recorder.overhead"] = max(
        0.0, 1.0 - metrics["tracing.recorder.relative_throughput"]
    )
    metrics.update(counts)
    return metrics


# ---------------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------------

def run_micro_suite(quick=False, progress=None):
    """Run every probe; returns the flat metrics dict.

    ``quick=True`` shrinks op counts ~10x for smoke tests and CI
    runners where absolute rates do not matter.
    """
    scale = 10 if quick else 1
    probes = (
        ("kernel", lambda: bench_kernel(
            events=KERNEL_EVENTS // scale,
            repeat=1 if quick else 3,
        )),
        ("fabric", lambda: bench_fabric(
            messages=FABRIC_MESSAGES // scale,
            repeat=1 if quick else 3,
        )),
        ("checker", lambda: bench_checker(
            events=CHECKER_EVENTS // scale,
            repeat=1 if quick else 3,
        )),
        ("explore", lambda: bench_explore(
            depth=2 if quick else EXPLORE_DEPTH,
            repeat=1 if quick else 3,
        )),
        ("campaign", lambda: bench_campaign(
            seeds=2 if quick else CAMPAIGN_SEEDS,
            repeat=1 if quick else 2,
        )),
        ("parallel explore", lambda: bench_parallel_explore(
            depth=2 if quick else EXPLORE_DEPTH,
            workers=2 if quick else PARALLEL_WORKERS,
            repeat=1,
        )),
        ("workload", lambda: bench_workload(
            clients=WORKLOAD_CLIENTS // scale,
            repeat=1 if quick else 2,
        )),
        ("dissemination", lambda: bench_dissemination(
            ops=DISSEMINATION_OPS // scale,
            repeat=1,
        )),
        # Quick mode shrinks the tracing probe like the others; only
        # the full-size run (perf CI, baseline refresh) produces the
        # gated overhead ratio with its stability guarantees.
        ("tracing", lambda: bench_tracing(
            ops=TRACING_OPS // scale,
            repeat=1 if quick else 5,
        )),
    )
    metrics = {}
    for name, probe in probes:
        if progress is not None:
            progress(name)
        metrics.update(probe())
    return metrics


def write_micro_report(metrics, name="micro", path=None, params=None):
    """Emit ``BENCH_micro.json`` in the standard repro-bench/v1 schema."""
    report = make_report(name, metrics, params=params)
    return write_report(report, path or "BENCH_%s.json" % name)


def render_micro(metrics):
    """A human-readable table of the suite's rates."""
    rows = [
        ("kernel", "kernel.events_per_s", "events/s"),
        ("fabric", "fabric.messages_per_s", "messages/s"),
        ("checker (incremental)", "checker.events_per_s", "events/s"),
        ("checker (check_all)", "checker.check_all_events_per_s",
         "events/s"),
        ("explore", "explore.states_per_s", "states/s"),
        ("explore (parallel)", "explore.parallel.states_per_s",
         "states/s"),
        ("campaign", "campaign.runs_per_s", "runs/s"),
        ("workload (aggregate)", "workload.sim_clients_per_s",
         "client-s/s"),
        ("workload (per-client)", "workload.perclient_sim_clients_per_s",
         "client-s/s"),
    ]
    for key in sorted(metrics):
        prefix = "dissemination."
        if key.startswith(prefix) and key.endswith(".messages_per_s"):
            topology = key[len(prefix):-len(".messages_per_s")]
            rows.append(("dissemination (%s)" % topology, key,
                         "messages/s"))
    for mode in ("off", "recorder", "sampled", "full"):
        key = "tracing.%s.ops_per_s" % mode
        if key in metrics:
            relative = metrics.get(
                "tracing.%s.relative_throughput" % mode
            )
            unit = "ops/s" if relative is None else (
                "ops/s (%.0f%% of off)" % (relative * 100)
            )
            rows.append(("tracing (%s)" % mode, key, unit))
    lines = ["%-22s %14s %s" % ("hot path", "rate", "unit")]
    for label, key, unit in rows:
        value = metrics.get(key)
        if value is None:
            continue
        lines.append("%-22s %14s %s" % (label, "{:,.0f}".format(value),
                                        unit))
    return "\n".join(lines)
