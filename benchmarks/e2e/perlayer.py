"""Per-layer metrics: from one traced repetition to the catalogue's names.

Inputs are the traced repetition's own result (simulated results and
deterministic counts), the span tracer's aggregates with the wrapper
overhead removed (``spans.Corrected``) and the untraced window the
overhead is measured against.  ``*_per_op`` divides by the work the
window completed — client ops on the cluster workloads, explored states
on ``explore-d5`` — and every ``*.self_s_share`` is a layer's corrected
self time over the corrected window, so the shares of all layers plus
``trace.unattributed_s_share`` add up to 1.

A metric whose boundary no longer exists is ``None`` (JSON ``null``),
never a guess; a metric whose layer simply did no work in this workload
is 0.
"""

import boundaries
import metrics
import stats


def _div(numerator, denominator):
    if numerator is None or denominator is None:
        return None
    if not denominator:
        return 0.0
    return numerator / denominator


def _add(*values):
    if any(value is None for value in values):
        return None
    return sum(values)


def _sample_ms(samples, q):
    if not samples:
        return 0.0
    return stats.percentile(samples, q) * 1000.0


def derive(workload, rep, tracer, corrected, untraced_window_s,
           baseline=None):
    """``{metric name: number or None}`` for every ``metrics.PER_LAYER``."""
    work = rep["work"]
    window_s = corrected.corrected_window_s
    counters = tracer.counters
    calls = corrected.name_calls
    self_s = corrected.name_self_s
    layer_s = corrected.layer_self_s()
    missing = set(tracer.missing)
    is_explore = workload == "explore-d5"

    def counter(key, *needs):
        if any(name in missing for name in needs):
            return None
        return counters.get(key, 0)

    def layer_known(layer):
        static = [
            boundary.name for boundary in boundaries.BOUNDARIES
            if boundary.layer == layer
        ]
        return not static or any(name not in missing for name in static)

    def share(layer):
        if not layer_known(layer):
            return None
        return layer_s.get(layer, 0.0) / window_s

    def us_per_op(layer):
        if not layer_known(layer):
            return None
        return _div(layer_s.get(layer, 0.0) * 1e6, work)

    out = {}
    for name in metrics.SIM_RESULT_NAMES:
        value = rep["sim"].get(name)
        out[name] = 0.0 if value is None else value

    # -- sim ----------------------------------------------------------
    events = counter("sim.events", "sim.run")
    scheduled = _add(calls("sim.schedule"), calls("sim.schedule_at"))
    out["sim.events_per_op"] = _div(events, work)
    out["sim.events_per_state"] = _div(events, work) if is_explore else 0.0
    out["sim.cancelled_share"] = _div(
        counter("sim.cancelled", "sim.cancel"), scheduled)
    out["sim.self_us_per_op"] = us_per_op("sim")
    out["sim.self_s_share"] = share("sim")

    # -- net ----------------------------------------------------------
    msgs = counter("net.msgs", "net.send")
    out["net.msgs_per_op"] = _div(msgs, work)
    out["net.bytes_per_op"] = _div(counter("net.bytes", "net.send"), work)
    out["net.leader_egress_bytes_per_op"] = _div(
        counter("net.leader_bytes", "net.send"), work)
    out["net.dropped_share"] = _div(calls("net.drop"), msgs)
    out["net.self_us_per_op"] = us_per_op("net")
    out["net.self_s_share"] = share("net")

    # -- zab, normal case -----------------------------------------------
    commit_local = corrected.calls_in_layer("zab.commit_local", "zab.leader")
    own_acks = corrected.calls_in_layer("zab.on_durable", "zab.leader")
    out["zab.leader.self_us_per_op"] = us_per_op("zab.leader")
    out["zab.leader.self_s_share"] = share("zab.leader")
    out["zab.leader.acks_per_commit"] = _div(
        _add(counter("zab.leader.acks", "zab.leader.on_message"), own_acks),
        commit_local)
    out["zab.leader.ops_per_batch"] = _div(
        calls("checker.record_broadcast"), calls("zab.leader.batch"))
    queue_wait = tracer.samples.get("zab.leader.queue_wait", [])
    gone = {"zab.leader.propose_op", "checker.record_broadcast"} & missing
    out["zab.leader.queue_wait_sim_ms_p50"] = (
        None if gone else _sample_ms(queue_wait, 50))
    out["zab.leader.queue_wait_sim_ms_p99"] = (
        None if gone else _sample_ms(queue_wait, 99))
    out["zab.follower.self_us_per_op"] = us_per_op("zab.follower")
    out["zab.follower.self_s_share"] = share("zab.follower")
    for suffix in ("p50", "p99", "max"):
        out["zab.follower.lag_txns_%s" % suffix] = (
            rep["detail"].get("follower_lag_txns_%s" % suffix) or 0)
    out["zab.observer.self_s_share"] = share("zab.observer")
    out["zab.peer.self_s_share"] = share("zab.peer")

    # -- zab, recovery ----------------------------------------------------
    elections = calls("zab.election.start")
    out["zab.election.count"] = elections
    # Rounds that ended without this peer deciding on a leader.
    out["zab.election.undecided_count"] = (
        None if elections is None or calls("zab.election.decided") is None
        else max(0, elections - calls("zab.election.decided")))
    out["zab.election.self_s_share"] = share("zab.election")
    for mode in ("diff", "snap", "trunc"):
        out["zab.sync.%s_count" % mode] = counter(
            "zab.sync.%s" % mode, "zab.sync.plan")
    out["zab.sync.bytes"] = counter("zab.sync.bytes", "zab.sync.plan")
    out["zab.sync.self_s_share"] = share("zab.sync")

    # -- storage ------------------------------------------------------------
    appends = calls("storage.append")
    fsyncs = calls("storage.fsync")
    durable = tracer.samples.get("zab.on_durable", [])
    out["storage.appends_per_op"] = _div(appends, work)
    out["storage.fsyncs_per_op"] = _div(fsyncs, work)
    out["storage.records_per_fsync"] = _div(appends, fsyncs)
    out["storage.append_to_durable_sim_ms_p50"] = (
        None if appends is None else _sample_ms(durable, 50))
    out["storage.append_to_durable_sim_ms_p99"] = (
        None if appends is None else _sample_ms(durable, 99))
    out["storage.snapshots"] = calls("storage.snapshot.save")
    out["storage.snapshot_self_s"] = self_s("storage.snapshot.save")
    out["storage.self_us_per_op"] = us_per_op("storage")
    out["storage.self_s_share"] = share("storage")

    # -- app ----------------------------------------------------------------
    out["app.applies_per_op"] = _div(calls("app.apply"), work)
    out["app.reads_per_op"] = _div(calls("app.read"), work)
    out["app.apply_self_us"] = _div(
        None if self_s("app.apply") is None else self_s("app.apply") * 1e6,
        calls("app.apply"))
    out["app.read_self_us"] = _div(
        None if self_s("app.read") is None else self_s("app.read") * 1e6,
        calls("app.read"))
    out["app.self_s_share"] = share("app")

    # -- checker --------------------------------------------------------------
    recorded = _add(calls("checker.record_broadcast"),
                    calls("checker.record_delivery"))
    record_s = _add(self_s("checker.record_broadcast"),
                    self_s("checker.record_delivery"))
    out["checker.events_per_op"] = _div(recorded, work)
    out["checker.record_self_us_per_op"] = _div(
        None if record_s is None else record_s * 1e6, work)
    # The post-hoc pass runs outside the window; the explorer judges each
    # execution inside it instead (CheckerState.report).
    out["checker.check_all_host_s"] = (
        corrected.name_total_s("checker.report") if is_explore
        else rep["host"]["check_s"])
    out["checker.self_s_share"] = share("checker")

    # -- obs ------------------------------------------------------------------
    out["obs.emits_per_op"] = _div(
        _add(calls("obs.emit"), calls("obs.tracer_emit")), work)
    out["obs.self_s_share"] = share("obs")

    # -- mc -------------------------------------------------------------------
    detail = rep["detail"]
    visited = detail.get("mc_states_visited", 0)
    pruned = detail.get("mc_states_pruned", 0)
    out["mc.runs"] = detail.get("mc_runs", 0)
    out["mc.states_visited"] = visited
    out["mc.states_pruned"] = pruned
    out["mc.revisit_share"] = _div(pruned, visited + pruned)
    out["mc.states_per_host_s"] = (
        _div(visited, untraced_window_s) if is_explore else 0.0)
    out["mc.exhaust_host_s"] = untraced_window_s if is_explore else 0.0
    out["mc.boot_s_share"] = _div(
        _add(corrected.name_total_s("harness.cluster_init"),
             corrected.name_total_s("harness.cluster_start"),
             corrected.name_total_s("harness.run_until_stable")),
        window_s) if is_explore else 0.0
    out["mc.fingerprint_s_share"] = _div(
        corrected.name_total_s("mc.fingerprint"), window_s)
    out["mc.check_s_share"] = _div(
        corrected.name_total_s("checker.report"), window_s)
    out["mc.replay_s_share"] = _div(
        corrected.name_total_s("mc.replay"), window_s)
    out["mc.self_s_share"] = share("mc")

    # -- harness ----------------------------------------------------------------
    out["harness.self_s_share"] = share("harness")
    out["harness.loadgen_self_s_share"] = share("harness.loadgen")
    out["harness.commit_samples"] = detail.get("commit_samples", 0)
    for rate in (20, 40, 60, 80):
        key = "write_p99_ms_at_%dk" % rate
        out["harness." + key] = detail.get(key) or 0.0
    for key in ("rejected", "retried", "unanswered"):
        out["harness." + key] = detail.get(key, 0)

    # -- baseline -----------------------------------------------------------------
    baseline = baseline or {}
    out["baseline.n1_ops_per_host_s"] = baseline.get("ops_per_host_s", 0.0)
    out["baseline.n1_sim_throughput_ops_s"] = baseline.get(
        "sim_throughput_ops_s", 0.0)

    # -- the tracer itself --------------------------------------------------------
    out["trace.overhead_ratio"] = _div(tracer.window_s, untraced_window_s)
    out["trace.calibration_scale"] = corrected.scale
    out["trace.unattributed_s_share"] = (
        1.0 - sum(layer_s.get(layer, 0.0) for layer in boundaries.LAYERS)
        / window_s)
    out["trace.missing_boundaries"] = len(missing)

    unknown = set(out) ^ set(metrics.PER_LAYER_NAMES)
    if unknown:
        raise AssertionError("per-layer names out of step: %s"
                             % sorted(unknown))
    return out
