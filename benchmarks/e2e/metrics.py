"""The metric catalogue: names, units, directions, bounds, definitions.

One table per kind, read by ``run.py`` (what to print), ``compare.py``
(what a regression is), the tests (``BENCHMARK.json`` must list exactly
these) and the README generator-free prose (kept in step by the tests).

*Host* metrics are real seconds of the Python machinery; they bound every
experiment, campaign and ``repro explore`` run.  *Sim* metrics are
results of the modelled ensemble in simulated time; for a fixed seed
they repeat bit for bit, so a host-only optimisation must leave every
one of them identical and a protocol change moves them on purpose.
"""

WORKLOADS = (
    ("saturated-n3",
     "closed loop of 64 outstanding 1 KiB puts on 3 voters: the steady "
     "PROPOSE/ACK/COMMIT hot path does nearly all the work, recovery none"),
    ("mixed-n5obs2",
     "open-loop rate ladder, 70% local reads, 10% sync reads, 20% 128 B puts "
     "on 5 voters + 2 observers: per-message cost, INFORM fan-out, read path"),
    ("failover-n5",
     "fixed-rate unique puts through one follower crash and two leader "
     "crashes on 5 voters: election, sync, snapshots and replay dominate"),
    ("explore-d5",
     "exhaustive depth-5 fault-schedule search on 3 peers: hundreds of short "
     "boots, elections, fingerprints and checks; unit of work is a state"),
)

# name, unit, better, bound, definition.  Every workload reports every
# one of these, and none of them can be 0.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "median per-repetition host time from the start of the repetition to "
     "the start of the measured window: build the Cluster, boot to stable, "
     "preload, warm up (explore-d5: a depth-2 warm-up exploration)"),
    ("ops_per_host_s", "1/s", "higher", 0.25,
     "median over repetitions of work completed in the measured window per "
     "host second of that window; the unit of work is a client op (commit "
     "or served read) on the cluster workloads and an explored state on "
     "explore-d5, where this is the ROADMAP's states/s"),
    ("peak_rss_mb", "MB", "lower", 0.10,
     "ru_maxrss of the interpreter that ran the workload"),
)

# The ISSUE's simulated end-to-end results.  They exist on some workloads
# only, so the driver cannot gate them workload by workload; compare.py
# does, with these bounds (share of the base; None = absolute rule).
# name, unit, better, bound, workloads, definition.
SIM_RESULTS = (
    ("sim_throughput_ops_s", "1/s", "higher", 0.005, ("saturated-n3",),
     "commits in the window / simulated window seconds"),
    ("sim_commit_p50_ms", "sim-ms", "lower", 0.005,
     ("saturated-n3", "mixed-n5obs2", "failover-n5"),
     "median due/submit -> commit-callback latency (mixed: the 40k step)"),
    ("sim_commit_p99_ms", "sim-ms", "lower", 0.005,
     ("saturated-n3", "mixed-n5obs2", "failover-n5"),
     "p99 of the same samples; every window holds >= 1000 of them"),
    ("sim_max_rate_in_slo_ops_s", "1/s", "higher", 0.0, ("mixed-n5obs2",),
     "highest ladder rate such that it and every lower one had write "
     "p99 <= 5 ms and no op unanswered after its drain"),
    ("sim_sync_read_p99_ms", "sim-ms", "lower", 0.005, ("mixed-n5obs2",),
     "p99 of sync_read due -> callback at the 40k step"),
    ("sim_outage_s", "sim-s", "lower", 0.005, ("failover-n5",),
     "mean over the two leader crashes of first commit callback after the "
     "crash minus crash time"),
    ("sim_catchup_s", "sim-s", "lower", 0.005, ("failover-n5",),
     "max over the three restarts of recover() -> active follower of the "
     "current epoch"),
    ("failed_op_share", "ratio", "lower", None,
     ("saturated-n3", "mixed-n5obs2", "failover-n5"),
     "(unanswered after the drain + errored) / ops due; may not rise by "
     "more than 0.001 absolute"),
)
FAILED_OP_SHARE_ABSOLUTE_BOUND = 0.001

# name, unit, better, end-to-end metric it is predicted to move.
# Emitted by the traced pass for every workload; 0 where the layer did no
# work, null only where a boundary the metric needs no longer exists.
PER_LAYER = tuple(
    # The simulated results above, from the traced repetition (which
    # must reproduce the untraced one exactly).
    (name, unit, better, "-")
    for name, unit, better, _bound, _workloads, _definition in SIM_RESULTS
) + (
    # sim: kernel
    ("sim.events_per_op", "count", "lower", "ops_per_host_s"),
    ("sim.events_per_state", "count", "lower", "ops_per_host_s"),
    ("sim.cancelled_share", "ratio", "lower", "ops_per_host_s"),
    ("sim.self_us_per_op", "us", "lower", "ops_per_host_s"),
    ("sim.self_s_share", "ratio", "lower", "ops_per_host_s"),
    # net: fabric
    ("net.msgs_per_op", "count", "lower", "sim_throughput_ops_s"),
    ("net.bytes_per_op", "B", "lower", "sim_throughput_ops_s"),
    ("net.leader_egress_bytes_per_op", "B", "lower",
     "sim_throughput_ops_s"),
    ("net.dropped_share", "ratio", "lower", "sim_outage_s"),
    ("net.self_us_per_op", "us", "lower", "ops_per_host_s"),
    ("net.self_s_share", "ratio", "lower", "ops_per_host_s"),
    # zab, normal case
    ("zab.leader.self_us_per_op", "us", "lower", "ops_per_host_s"),
    ("zab.leader.self_s_share", "ratio", "lower", "ops_per_host_s"),
    ("zab.leader.acks_per_commit", "count", "lower", "ops_per_host_s"),
    ("zab.leader.ops_per_batch", "count", "higher", "sim_commit_p99_ms"),
    ("zab.leader.queue_wait_sim_ms_p50", "sim-ms", "lower",
     "sim_commit_p50_ms"),
    ("zab.leader.queue_wait_sim_ms_p99", "sim-ms", "lower",
     "sim_commit_p99_ms"),
    ("zab.follower.self_us_per_op", "us", "lower", "ops_per_host_s"),
    ("zab.follower.self_s_share", "ratio", "lower", "ops_per_host_s"),
    ("zab.follower.lag_txns_p50", "count", "lower", "sim_catchup_s"),
    ("zab.follower.lag_txns_p99", "count", "lower", "sim_catchup_s"),
    ("zab.follower.lag_txns_max", "count", "lower", "sim_catchup_s"),
    ("zab.observer.self_s_share", "ratio", "lower", "ops_per_host_s"),
    ("zab.peer.self_s_share", "ratio", "lower", "ops_per_host_s"),
    # zab, recovery
    ("zab.election.count", "count", "lower", "sim_outage_s"),
    ("zab.election.undecided_count", "count", "lower", "sim_outage_s"),
    ("zab.election.self_s_share", "ratio", "lower", "ops_per_host_s"),
    ("zab.sync.diff_count", "count", "higher", "sim_catchup_s"),
    ("zab.sync.snap_count", "count", "lower", "sim_catchup_s"),
    ("zab.sync.trunc_count", "count", "lower", "sim_catchup_s"),
    ("zab.sync.bytes", "B", "lower", "sim_catchup_s"),
    ("zab.sync.self_s_share", "ratio", "lower", "ops_per_host_s"),
    # storage
    ("storage.appends_per_op", "count", "lower", "ops_per_host_s"),
    ("storage.fsyncs_per_op", "count", "lower", "sim_commit_p99_ms"),
    ("storage.records_per_fsync", "count", "higher",
     "sim_commit_p99_ms"),
    ("storage.append_to_durable_sim_ms_p50", "sim-ms", "lower",
     "sim_commit_p50_ms"),
    ("storage.append_to_durable_sim_ms_p99", "sim-ms", "lower",
     "sim_commit_p99_ms"),
    ("storage.snapshots", "count", "lower", "ops_per_host_s"),
    ("storage.snapshot_self_s", "s", "lower", "ops_per_host_s"),
    ("storage.self_us_per_op", "us", "lower", "ops_per_host_s"),
    ("storage.self_s_share", "ratio", "lower", "ops_per_host_s"),
    # app
    ("app.applies_per_op", "count", "lower", "ops_per_host_s"),
    ("app.reads_per_op", "count", "lower", "ops_per_host_s"),
    ("app.apply_self_us", "us", "lower", "ops_per_host_s"),
    ("app.read_self_us", "us", "lower", "ops_per_host_s"),
    ("app.self_s_share", "ratio", "lower", "ops_per_host_s"),
    # checker
    ("checker.events_per_op", "count", "lower", "ops_per_host_s"),
    ("checker.record_self_us_per_op", "us", "lower", "ops_per_host_s"),
    ("checker.check_all_host_s", "s", "lower", "-"),
    ("checker.self_s_share", "ratio", "lower", "ops_per_host_s"),
    # obs
    ("obs.emits_per_op", "count", "lower", "ops_per_host_s"),
    ("obs.self_s_share", "ratio", "lower", "ops_per_host_s"),
    # mc (explore-d5)
    ("mc.runs", "count", "lower", "ops_per_host_s"),
    ("mc.states_visited", "count", "higher", "ops_per_host_s"),
    ("mc.states_pruned", "count", "higher", "ops_per_host_s"),
    ("mc.revisit_share", "ratio", "higher", "ops_per_host_s"),
    ("mc.states_per_host_s", "1/s", "higher", "ops_per_host_s"),
    ("mc.exhaust_host_s", "s", "lower", "ops_per_host_s"),
    ("mc.boot_s_share", "ratio", "lower", "ops_per_host_s"),
    ("mc.fingerprint_s_share", "ratio", "lower", "ops_per_host_s"),
    ("mc.check_s_share", "ratio", "lower", "ops_per_host_s"),
    ("mc.replay_s_share", "ratio", "lower", "ops_per_host_s"),
    ("mc.self_s_share", "ratio", "lower", "ops_per_host_s"),
    # harness and the benchmark's own generator
    ("harness.self_s_share", "ratio", "lower", "ops_per_host_s"),
    ("harness.loadgen_self_s_share", "ratio", "lower", "ops_per_host_s"),
    ("harness.commit_samples", "count", "higher", "sim_commit_p99_ms"),
    ("harness.write_p99_ms_at_20k", "sim-ms", "lower",
     "sim_max_rate_in_slo_ops_s"),
    ("harness.write_p99_ms_at_40k", "sim-ms", "lower",
     "sim_max_rate_in_slo_ops_s"),
    ("harness.write_p99_ms_at_60k", "sim-ms", "lower",
     "sim_max_rate_in_slo_ops_s"),
    ("harness.write_p99_ms_at_80k", "sim-ms", "lower",
     "sim_max_rate_in_slo_ops_s"),
    ("harness.rejected", "count", "lower", "sim_outage_s"),
    ("harness.retried", "count", "lower", "sim_outage_s"),
    ("harness.unanswered", "count", "lower", "failed_op_share"),
    # the no-fabric floor (inside saturated-n3's traced pass)
    ("baseline.n1_ops_per_host_s", "1/s", "higher", "ops_per_host_s"),
    ("baseline.n1_sim_throughput_ops_s", "1/s", "higher",
     "sim_throughput_ops_s"),
    # the tracer itself
    ("trace.overhead_ratio", "ratio", "lower", "-"),
    ("trace.calibration_scale", "ratio", "lower", "-"),
    ("trace.unattributed_s_share", "ratio", "lower", "-"),
    ("trace.missing_boundaries", "count", "lower", "-"),
)

END_TO_END_NAMES = tuple(entry[0] for entry in END_TO_END)
SIM_RESULT_NAMES = tuple(entry[0] for entry in SIM_RESULTS)
PER_LAYER_NAMES = tuple(entry[0] for entry in PER_LAYER)
UNITS = dict(
    [(entry[0], entry[1]) for entry in PER_LAYER]
    + [(entry[0], entry[1]) for entry in SIM_RESULTS]
    + [(entry[0], entry[1]) for entry in END_TO_END]
)


#: Host seconds one untraced pass measures for (``--seconds``).
RUN_SECONDS = 16


def benchmark_json():
    """The contents of ``/BENCHMARK.json`` as a dict."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _definition in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _moves in PER_LAYER
        ],
    }
