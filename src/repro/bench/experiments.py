"""The paper's evaluation, reconstructed: the registry of experiments.

``EXPERIMENTS`` maps each id (``e1`` ... ``a3``) to an
:class:`Experiment` carrying its title, the paper artefact it
reconstructs, its table columns (declared once: row key -> header) and
the function that measures it on the simulator, whose keyword defaults
are the parameters of record.  ``EXPERIMENTS[id].run()`` returns
``(rows, table_text, extras)``: structured data points, the printable
artefact, and experiment-specific material (timelines, property reports).

``python -m repro experiments [ID ...]`` is the only producer of the
recorded tables (``benchmarks/results/<id>.txt`` and that id's fenced
block of EXPERIMENTS.md).  The paper-shape assertion of every id, and
the byte-equality of a fresh run with the committed table, live in
``tests/test_experiments.py``; DESIGN.md holds the index.
"""

import inspect

from repro.app.statemachine import Txn
from repro.bench.campaign import run_adversarial_campaign
from repro.bench.formats import render_series, render_table
from repro.bench.runner import (
    EVAL_LINK,
    default_op_factory,
    require_properties,
    run_broadcast_bench,
)
from repro.bench.workloads import ClosedLoopDriver
from repro.harness import ActionSchedule, Cluster, ClusterConfig
from repro.harness.scenarios import measure_recovery_gap
from repro.zab.dissemination import DISSEMINATION_TOPOLOGIES
from repro.storage import Snapshot, TxnLog
from repro.zab.sync import make_sync_plan
from repro.zab.zxid import Zxid

# Shared small-scale defaults: big enough for stable measurements, small
# enough that the whole evaluation regenerates in minutes of wall time.
_BANDWIDTH = EVAL_LINK.bandwidth_bps   # bytes/s (a 200 Mb/s link)
_OP_SIZE = 1024            # the paper's 1K operations
_DURATION = 1.0
_WARMUP = 0.3
#: Every measured ensemble: the evaluation's link, ``replace``d per run.
_EVAL = ClusterConfig(net=EVAL_LINK)

#: id -> :class:`Experiment`, in the order EXPERIMENTS.md presents them.
EXPERIMENTS = {}


class Experiment:
    """One entry of the evaluation registry.

    *columns* maps each table column's row key to its header, or to
    ``(header, show)`` when the cell shows ``show(value)``.  *title* may
    name parameters (``"... at {rate} ops/s"``).  A timeline experiment
    returns its ``series`` in *extras*; the table ends with its sparkline.
    """

    def __init__(self, eid, title, artefact, columns, measure):
        self.id = eid
        self.title = "%s: %s" % (eid.capitalize(), title)
        self.artefact = artefact
        self.columns = {
            key: spec if isinstance(spec, tuple) else (spec, None)
            for key, spec in columns.items()
        }
        self.measure = measure

    @property
    def params(self):
        """The parameters of record: *measure*'s keyword defaults."""
        return {
            name: parameter.default for name, parameter
            in inspect.signature(self.measure).parameters.items()
        }

    def run(self, **overrides):
        """Measure (at the parameters of record unless overridden) and
        render; returns ``(rows, table_text, extras)``."""
        params = dict(self.params, **overrides)
        rows, extras = self.measure(**params)
        table = render_table(
            [header for header, _show in self.columns.values()],
            [
                [show(row[key]) if show else row[key]
                 for key, (_header, show) in self.columns.items()]
                for row in rows
            ],
            title=self.title.format(**params),
        )
        if "series" in extras:
            table += "\n" + render_series(extras["series"])
        return rows, table, extras


def experiment(eid, title, artefact, columns):
    """Register the decorated ``measure(**params) -> (rows, extras)``."""
    def register(measure):
        EXPERIMENTS[eid] = Experiment(eid, title, artefact, columns, measure)
        return measure
    return register


def _bench(config, duration, op_size=_OP_SIZE, **load):
    """``run_broadcast_bench`` at the evaluation's warm-up and operation
    size (it raises unless the history passes the checker)."""
    return run_broadcast_bench(
        config, op_size=op_size, duration=duration, warmup=_WARMUP, **load
    )


def _listed(values):
    return ", ".join(str(value) for value in values) or "-"


@experiment(
    "e1", "saturated 1KiB-write throughput vs. ensemble size",
    'Fig. "Saturated broadcast throughput vs. ensemble size"',
    {"servers": "servers", "throughput": "ops/s",
     "ideal_net_bound": "net-bound ops/s", "efficiency": "efficiency",
     "p50_latency_ms": "p50 (ms)"},
)
def e1_throughput_vs_servers(sizes=(3, 5, 7, 9, 11, 13), duration=_DURATION,
                             seed=1):
    """The paper's headline figure: the leader's egress NIC saturates, so
    throughput falls roughly as B/(n-1)."""
    rows = []
    for n in sizes:
        result = _bench(_EVAL.replace(n_voters=n, seed=seed), duration,
                        outstanding=64)
        ideal = _BANDWIDTH / (_OP_SIZE * (n - 1))
        rows.append({
            "servers": n,
            "throughput": result.throughput,
            "ideal_net_bound": ideal,
            "efficiency": result.throughput / ideal,
            "p50_latency_ms": result.latency["p50"] * 1000,
        })
    return rows, {}


@experiment(
    "e1b", "saturated throughput vs. ensemble size, per dissemination "
           "topology",
    "E1 under each dissemination topology (repo addition)",
    {"topology": "topology", "servers": "servers", "throughput": "ops/s",
     "leader_egress_bytes_per_txn": "leader B/txn",
     "p50_latency_ms": "p50 (ms)"},
)
def e1b_topology_scaling(sizes=(3, 5, 7, 9, 11, 13),
                         topologies=DISSEMINATION_TOPOLOGIES,
                         duration=_DURATION, seed=1):
    """The dissemination-strategy counterpart of E1: the same saturated
    1 KiB workload under each propagation topology.

    ``leader-direct`` pays (n-1) copies of every proposal out of the
    leader's NIC, so its egress bytes/txn grow linearly with the
    ensemble.  ``chain`` and ``ring`` relay hop-by-hop and keep leader
    egress flat; ``tree`` sits in between (proportional to its fan-out).
    """
    rows = []
    for topology in topologies:
        for n in sizes:
            result = _bench(
                _EVAL.replace(n_voters=n, seed=seed, dissemination=topology),
                duration, outstanding=64,
            )
            stats = result.net_stats
            leader_id = result.params["leader"]
            leader_bytes = stats["bytes_sent"].get(
                leader_id, max(stats["bytes_sent"].values())
            )
            committed = max(result.committed, 1)
            rows.append({
                "topology": topology,
                "servers": n,
                "throughput": result.throughput,
                "leader_egress_bytes_per_txn": leader_bytes / committed,
                "p50_latency_ms": result.latency["p50"] * 1000,
            })
    return rows, {}


@experiment(
    "e2", "latency vs. offered load (n=5, 1KiB writes)",
    'Fig. "Latency vs. offered load"',
    {"offered_rate": "offered ops/s", "throughput": "achieved ops/s",
     "p50_ms": "p50 (ms)", "p99_ms": "p99 (ms)"},
)
def e2_latency_vs_load(rates=(500, 1000, 2000, 4000, 8000, 12000),
                       n_voters=5, duration=_DURATION, seed=2):
    """Latency stays flat until the offered load hits the service
    capacity, then queues blow up — the classic knee."""
    rows = []
    for rate in rates:
        result = _bench(_EVAL.replace(n_voters=n_voters, seed=seed),
                        duration, rate=rate)
        p50 = result.latency.get("p50")
        p99 = result.latency.get("p99")
        rows.append({
            "offered_rate": rate,
            "throughput": result.throughput,
            "p50_ms": p50 * 1000 if p50 is not None else None,
            "p99_ms": p99 * 1000 if p99 is not None else None,
        })
    return rows, {}


@experiment(
    "e3", "throughput through failures (n=5, open loop)",
    'Fig. "Throughput timeline under failures"',
    {"phase": "phase", "window": "window", "ops_per_s": "ops/s"},
)
def e3_failure_timeline(n_voters=5, seed=3, rate=2000):
    """Follower crash barely dents throughput; a leader crash opens a
    visible gap (election + sync) before service resumes."""
    result = run_broadcast_bench(
        _EVAL.replace(n_voters=n_voters, seed=seed), duration=10.0,
        op_size=_OP_SIZE, warmup=0, rate=rate,
        schedule=(
            ActionSchedule()
            .add(2.0, "crash_follower")
            .add(4.0, "recover_all")
            .add(6.0, "crash_leader")
            .add(8.0, "recover_all")
        ),
    )
    t0 = result.started_at
    series = result.timeline.series(start=t0, end=t0 + 10.0)

    def window_rate(lo, hi):
        rates = [r for t, r in series if t0 + lo <= t < t0 + hi]
        return sum(rates) / len(rates) if rates else 0.0

    rows = [
        {"phase": "baseline", "window": "0-2s",
         "ops_per_s": window_rate(0.3, 2.0)},
        {"phase": "follower down", "window": "2-4s",
         "ops_per_s": window_rate(2.2, 4.0)},
        {"phase": "leader crash + re-election", "window": "6-7s",
         "ops_per_s": window_rate(6.0, 7.0)},
        {"phase": "recovered", "window": "8.5-10s",
         "ops_per_s": window_rate(8.5, 10.0)},
    ]
    return rows, {
        "series": series,
        "events": result.fault_log,
        "report": result.check_report,
    }


def _paxos_counterexample(seed=4):
    # Scripted leader changes: a silence budget no run reaches keeps the
    # failure detector from scouting on its own.
    cluster = Cluster(ClusterConfig(
        seed=seed, protocol="paxos", zab={"sync_limit": 10 ** 6},
    )).start()
    r1, r2, r3 = (cluster.peers[i] for i in (1, 2, 3))
    r1.start_scout()
    cluster.run(0.1)
    cluster.partition({1}, {2, 3})
    r1.propose_op(("put", "A", 1))
    r1.propose_op(("incr", "A", 1))
    cluster.run(0.2)
    r2.start_scout()
    cluster.run(0.2)
    r2.propose_op(("put", "C", 100))
    cluster.run(0.2)
    cluster.crash(2)
    cluster.heal()
    r3.start_scout()
    cluster.run(1.0)
    return cluster


def _zab_same_crash_pattern(seed=4):
    cluster = Cluster(ClusterConfig(seed=seed)).start()
    cluster.run_until_stable(timeout=60)
    leader = cluster.leader()
    others = [
        peer_id for peer_id in cluster.config.voters
        if peer_id != leader.peer_id
    ]
    cluster.partition({leader.peer_id}, set(others))
    leader.propose_op(("put", "A", 1))
    leader.propose_op(("incr", "A", 1))
    cluster.run(0.3)
    cluster.run_until(
        lambda: cluster.leader() is not None
        and cluster.leader().peer_id != leader.peer_id,
        timeout=60,
    )
    cluster.submit_and_wait(("put", "C", 100))
    second = cluster.leader()
    cluster.crash(second.peer_id)
    cluster.heal()
    cluster.run_until(
        lambda: cluster.leader() is not None
        and cluster.leader().peer_id != second.peer_id,
        timeout=60,
    )
    cluster.run(2.0)
    return cluster


@experiment(
    "e4", "paper's multi-primary run — checker verdicts",
    'Fig. "Paxos run violating primary order" (analytical → executable)',
    {"system": "system",
     "violations": ("violated properties",
                    lambda names: ", ".join(names) or "(none)")},
)
def e4_paxos_violation(seed=4):
    """Run the paper's counter-example under both protocols and diff the
    property-checker verdicts (the verdicts are the result: the Paxos
    history is expected to fail, so neither is raised on)."""
    paxos = _paxos_counterexample(seed)
    paxos_report = paxos.check_properties()
    zab = _zab_same_crash_pattern(seed)
    zab_report = zab.check_properties()
    rows = [
        {
            "system": "paxos (2 outstanding)",
            "violations": sorted(paxos_report.violated_properties()),
            "final_state": paxos.states(),
        },
        {
            "system": "zab (2 outstanding)",
            "violations": sorted(zab_report.violated_properties()),
            "final_state": zab.states(),
        },
    ]
    return rows, {
        "paxos_report": paxos_report,
        "zab_report": zab_report,
    }


@experiment(
    "e4b", "organic PO violations under partition fault injection "
           "(unscripted)",
    "Organic PO violations (unscripted strengthening of E4)",
    {"system": "system", "seeds": "seeds", "violating": "violating seeds",
     "which": ("which", _listed), "properties": ("properties", _listed),
     "stuck": ("never re-stabilised", _listed)},
)
def e4b_organic_violations(seeds=range(20)):
    """Identical partition-only adversaries and load against both
    systems: pipelined Paxos violates primary integrity on a visible
    fraction of seeds (a fresh leader broadcasts before its state covers
    the re-proposed suffix — the barrier Zab's Phase 2 enforces), Zab on
    none.  Each run is a ``"partition"`` campaign profile schedule, so
    any failing seed replays and shrinks with the stock tools.  Like E4,
    the checker verdicts are the result."""
    rows = []
    for system, config in (
        ("zab", ClusterConfig()),
        ("paxos (8 outstanding)", ClusterConfig(
            protocol="paxos", zab={"max_outstanding": 8, "sync_limit": 3},
        )),
    ):
        outcomes = run_adversarial_campaign(
            seeds, config, steps=10, step_interval=0.4, op_interval=0.01,
            profile="partition",
        )
        rows.append({
            "system": system,
            "seeds": len(outcomes),
            "violating": sum(1 for run in outcomes if run.violations),
            "which": [run.seed for run in outcomes if run.violations],
            "properties": sorted({
                prop for run in outcomes for prop in run.violations
            }),
            "stuck": [
                run.seed for run in outcomes
                if (run.error or "").startswith("never re-stabilised")
            ],
        })
    return rows, {}


@experiment(
    "e5", "pipelining (n=5, 1KiB writes)",
    'Table "Pipelining: throughput vs. max outstanding"',
    {"outstanding": "outstanding", "throughput": "ops/s",
     "p50_ms": "p50 (ms)"},
)
def e5_pipelining(window_sizes=(1, 2, 4, 8, 16, 32, 64), n_voters=5,
                  duration=_DURATION, seed=5):
    """outstanding=1 is the conservative one-at-a-time sequencer; Zab's
    design point is a deep pipeline.  Throughput rises until the leader
    NIC, not the RTT, is the bottleneck."""
    rows = []
    for window in window_sizes:
        result = _bench(
            _EVAL.replace(n_voters=n_voters, seed=seed,
                          zab={"max_outstanding": max(window, 1)}),
            duration, outstanding=window,
        )
        rows.append({
            "outstanding": window,
            "throughput": result.throughput,
            "p50_ms": result.latency["p50"] * 1000,
        })
    return rows, {}


def _seed_txn(i):
    return Txn("t1.%d" % i, None, None, 0, ("set", "k%d" % (i % 64), i),
               _OP_SIZE)


@experiment(
    "e6", "sync strategy vs. follower lag (20k-txn history, snap "
          "threshold {snap_threshold})",
    'Table "Recovery cost by sync strategy" (plan level)',
    {"lag_txns": "follower lag (txns)", "mode": "chosen mode",
     "bytes_shipped": "bytes shipped",
     "diff_bytes_would_be": "full-DIFF bytes"},
)
def e6_sync_strategies(lags=(10, 200, 2000, 20000), state_size=50,
                       snap_threshold=500):
    """Plan-level cost model: bytes shipped to resynchronise a follower
    that is *lag* transactions behind a 20k-transaction history (no
    cluster runs, so there is no history to judge)."""
    total = max(lags) + 1000
    log = TxnLog()
    for i in range(1, total + 1):
        log.append(Zxid(1, i), _seed_txn(i), size=_OP_SIZE)
    committed = Zxid(1, total)
    snapshot_bytes = state_size * _OP_SIZE  # live state ≪ full history
    provider = lambda: Snapshot(committed, ("blob", total), snapshot_bytes)
    rows = []
    # The last, negative lag is the TRUNC case: a follower *ahead* by an
    # uncommitted tail of 5.
    for lag in tuple(lags) + (-5,):
        follower_last = Zxid(1, total - lag)
        plan = make_sync_plan(
            log, follower_last, committed, snap_threshold, provider
        )
        rows.append({
            "lag_txns": lag,
            "mode": plan.mode,
            "bytes_shipped": plan.payload_bytes(),
            "diff_bytes_would_be": max(lag, 0) * _OP_SIZE,
        })
    return rows, {}


@experiment(
    "e6b", "end-to-end resync of a follower {lag} txns behind (64-key "
           "live state)",
    'Table "Recovery cost by sync strategy" (end to end)',
    {"mode": "forced mode", "resync_seconds": "resync time (s)",
     "sync_megabytes": "transfer (MB)"},
)
def e6_end_to_end_resync(lag=5000, seed=6):
    """Wall-clock (simulated) cost of a real follower resync via DIFF vs
    via SNAP, same lag, controlled by the snap threshold.

    The workload overwrites 64 keys with 1 KiB values, so the *history*
    (lag x 1 KiB) is much larger than the *live state* (64 x 1 KiB) —
    the regime where shipping a snapshot beats replaying the diff.
    """
    rows = []
    for mode, threshold in (("DIFF", 10 ** 6), ("SNAP", 10)):
        cluster = Cluster(_EVAL.replace(
            n_voters=3, seed=seed,
            zab={"snap_sync_threshold": threshold,
                 "snapshot_every": 10 ** 6},
        )).start()
        cluster.run_until_stable(timeout=60)
        follower = next(
            peer for peer in cluster.peers.values()
            if peer.is_active_follower
        )
        cluster.crash(follower.peer_id)
        payload = "v" * _OP_SIZE
        committed = []
        for i in range(lag):
            cluster.submit(("put", "k%d" % (i % 64), payload),
                           callback=lambda r, z: committed.append(None))
        cluster.run_until(lambda: len(committed) == lag, timeout=60)
        before = cluster.network.stats.total_bytes()
        t0 = cluster.sim.now
        cluster.recover(follower.peer_id)
        cluster.run_until_stable(timeout=60)
        rows.append({
            "mode": mode,
            "resync_seconds": cluster.sim.now - t0,
            "sync_megabytes": (
                cluster.network.stats.total_bytes() - before
            ) / 1e6,
        })
        require_properties(cluster)
    return rows, {}


@experiment(
    "e7", "log-device configuration (n=3, 1KiB writes)",
    "Ablation: dedicated vs shared log device (paper's testbed note)",
    {"config": "log device", "throughput": "ops/s",
     "leader_egress_bytes_per_txn": "leader B/txn", "p50_ms": "p50 (ms)"},
)
def e7_log_device(n_voters=3, duration=_DURATION, seed=7):
    """The paper's testbed used dedicated log devices.  With the disk
    model enabled, a dedicated device (group commit amortising fsyncs)
    clearly beats a shared, contended one.  Leader egress per op shows
    what the leader's NIC, the bottleneck, pays for each commit."""
    rows = []
    for label, disk, fsync in (
        ("network only (no disk)", None, 0.0),
        ("dedicated log device", "model", 0.0005),
        ("shared device (contended)", "shared", 0.0005),
        ("dedicated, slow fsync", "model", 0.005),
    ):
        result = _bench(
            _EVAL.replace(n_voters=n_voters, seed=seed, disk=disk,
                          fsync_latency=fsync),
            duration, outstanding=64,
        )
        rows.append({
            "config": label,
            "throughput": result.throughput,
            "leader_egress_bytes_per_txn": (
                result.net_stats["bytes_sent"][result.params["leader"]]
                / max(result.committed, 1)
            ),
            "p50_ms": result.latency["p50"] * 1000,
        })
    return rows, {}


@experiment(
    "e8", "latency percentiles at {rate} ops/s",
    'Table "Latency percentiles by ensemble size"',
    {"servers": "servers", "mean_ms": "mean (ms)", "p50_ms": "p50 (ms)",
     "p95_ms": "p95 (ms)", "p99_ms": "p99 (ms)"},
)
def e8_latency_percentiles(sizes=(3, 5, 7), rate=1000, duration=_DURATION,
                           seed=8):
    """The median grows with the ensemble (the leader serialises each
    proposal to more followers before a quorum answers); tails stay
    bounded at moderate load."""
    rows = []
    for n in sizes:
        latency = _bench(_EVAL.replace(n_voters=n, seed=seed), duration,
                         rate=rate).latency
        rows.append({
            "servers": n,
            "p50_ms": latency["p50"] * 1000,
            "p95_ms": latency["p95"] * 1000,
            "p99_ms": latency["p99"] * 1000,
            "mean_ms": latency["mean"] * 1000,
        })
    return rows, {}


@experiment(
    "e9", "group-commit ablation (n=3, 1KiB writes, disk model)",
    "Ablation: fsync-before-ack with and without group commit",
    {"fsync_ms": "fsync (ms)",
     "group_commit": ("group commit", lambda on: "on" if on else "off"),
     "throughput": "ops/s", "fsync_bound": "1/fsync bound",
     "p50_ms": "p50 (ms)"},
)
def e9_group_commit(fsyncs=(0.0005, 0.002), n_voters=3,
                    duration=_DURATION, seed=9):
    """ZooKeeper acknowledges a proposal only after fsync, and amortises
    fsyncs across all proposals in flight (group commit).  Ablating the
    coalescing makes every append pay its own disk barrier, capping
    throughput near 1/fsync_latency regardless of the network."""
    rows = []
    for fsync in fsyncs:
        for group_commit in (True, False):
            result = _bench(
                _EVAL.replace(
                    n_voters=n_voters, seed=seed, disk="model",
                    fsync_latency=fsync, group_commit=group_commit,
                    zab={"max_outstanding": 128},
                ),
                duration, outstanding=128,
            )
            rows.append({
                "fsync_ms": fsync * 1000,
                "group_commit": group_commit,
                "throughput": result.throughput,
                "fsync_bound": 1.0 / fsync,
                "p50_ms": result.latency["p50"] * 1000,
            })
    return rows, {}


@experiment(
    "e10", "Zab vs Paxos, identical network (n=3, 1KiB writes)",
    "Zab vs Paxos throughput (baseline comparison)",
    {"system": "system", "throughput": "ops/s",
     "primary_order_safe": ("PO-safe across primary changes",
                            lambda safe: "yes" if safe else "NO (see E4)")},
)
def e10_zab_vs_paxos(n=3, duration=_DURATION, seed=10):
    """Paxos only matches Zab's throughput by pipelining, and pipelined
    Paxos forfeits primary order across leader changes (E4)."""
    config = _EVAL.replace(n_voters=n, seed=seed)
    zab_pipelined = _bench(config, duration, outstanding=64).throughput
    zab_single = _bench(config.replace(zab={"max_outstanding": 1}),
                        duration, outstanding=1).throughput
    paxos = {}
    for outstanding in (1, 64):
        # The same closed-loop driver as the Zab rows, on Paxos peers.
        cluster = Cluster(config.replace(
            protocol="paxos", zab={"max_outstanding": outstanding},
        )).start()
        cluster.run_until_stable(timeout=60)
        driver = ClosedLoopDriver(
            cluster, outstanding, default_op_factory(_OP_SIZE), _OP_SIZE,
            warmup=_WARMUP,
        ).start()
        cluster.run(duration + _WARMUP)
        require_properties(cluster)
        paxos[outstanding] = driver.latency.count / duration
    rows = [
        {"system": "zab, 64 outstanding", "throughput": zab_pipelined,
         "primary_order_safe": True},
        {"system": "paxos, 64 outstanding", "throughput": paxos[64],
         "primary_order_safe": False},
        {"system": "zab, 1 outstanding", "throughput": zab_single,
         "primary_order_safe": True},
        {"system": "paxos, 1 outstanding", "throughput": paxos[1],
         "primary_order_safe": True},
    ]
    return rows, {}


@experiment(
    "a1", "write-unavailability after leader crash vs. tick (n=5, "
          "{trials} trials)",
    "Ablation: recovery gap vs failure-detection budget",
    {"tick_ms": "tick (ms)", "detection_budget_ms": "detection budget (ms)",
     "mean_gap_ms": "mean gap (ms)", "max_gap_ms": "max gap (ms)"},
)
def a1_recovery_time(ticks=(0.02, 0.05, 0.1, 0.2), n_voters=5, seed=11,
                     trials=3):
    """How long writes stall after a leader crash, as a function of the
    tick (heartbeat) period.  Detection costs ``sync_limit`` ticks, and
    election/sync add roughly constant time on top, so the gap should
    grow linearly in the tick with a positive intercept."""
    rows = []
    for tick in ticks:
        gaps = []
        for trial in range(trials):
            cluster = Cluster(_EVAL.replace(
                n_voters=n_voters, seed=seed + trial, zab={"tick": tick},
            )).start()
            cluster.run_until_stable(timeout=60)
            cluster.submit_and_wait(("put", "warm", 1))
            gap, _leader = measure_recovery_gap(cluster)
            gaps.append(gap)
            require_properties(cluster)
        rows.append({
            "tick_ms": tick * 1000,
            "detection_budget_ms": tick * 4 * 1000,  # sync_limit ticks
            "mean_gap_ms": sum(gaps) / len(gaps) * 1000,
            "max_gap_ms": max(gaps) * 1000,
        })
    return rows, {}


@experiment(
    "a2", "write latency at {rate} ops/s — observers vs voters",
    "Ablation: observers vs voters",
    {"config": "config", "replicas": "replicas", "quorum_acks": "quorum",
     "p50_ms": "p50 (ms)", "p99_ms": "p99 (ms)"},
)
def a2_observers(duration=_DURATION, seed=12, rate=1000):
    """ZooKeeper observers replicate the committed stream without
    voting.  At equal total replica count, an observer-heavy ensemble
    commits with a *smaller quorum*: the leader waits for fewer
    acknowledgements, so commit latency stays near the small-ensemble
    value while read capacity scales the same way."""
    configs = [
        ("3 voters", 3, 0),
        ("3 voters + 2 observers", 3, 2),
        ("3 voters + 4 observers", 3, 4),
        ("5 voters", 5, 0),
        ("7 voters", 7, 0),
    ]
    rows = []
    for label, n_voters, n_observers in configs:
        summary = _bench(
            _EVAL.replace(n_voters=n_voters, n_observers=n_observers,
                          seed=seed),
            duration, rate=rate,
        ).latency
        rows.append({
            "config": label,
            "replicas": n_voters + n_observers,
            "quorum_acks": n_voters // 2 + 1,
            "p50_ms": summary["p50"] * 1000,
            "p99_ms": summary["p99"] * 1000,
        })
    return rows, {}


@experiment(
    "a3", "saturated throughput vs. operation size (n=3)",
    "Ablation: throughput vs operation size",
    {"op_bytes": "op size (B)", "throughput": "ops/s",
     "goodput_mbps": "goodput (Mb/s)",
     "wire_efficiency": "wire efficiency"},
)
def a3_op_size(sizes=(128, 512, 1024, 4096, 16384), n_voters=3,
               duration=_DURATION, seed=13):
    """At saturation, ops/s x bytes/op is constant: the leader's NIC
    moves a fixed byte budget regardless of how it is sliced (modulo
    per-message header overhead, which favours large operations)."""
    rows = []
    for size in sizes:
        result = _bench(_EVAL.replace(n_voters=n_voters, seed=seed),
                        duration, op_size=size, outstanding=64)
        goodput = result.throughput * size
        rows.append({
            "op_bytes": size,
            "throughput": result.throughput,
            "goodput_mbps": goodput * 8 / 1e6,
            "wire_efficiency": goodput * (n_voters - 1) / _BANDWIDTH,
        })
    return rows, {}
