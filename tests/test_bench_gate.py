"""Tests for BENCH_*.json reports, the regression gate, and the trace
schema validator's correlation-field checks."""

import importlib.util
import io
import json
import math
import os

import pytest

from repro.bench.report import (
    SCHEMA,
    bench_metrics,
    load_report,
    make_report,
    profile_metrics,
    write_report,
)

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(SCRIPTS, name + ".py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gate():
    return load_script("check_bench_regression")


@pytest.fixture(scope="module")
def validator():
    return load_script("validate_trace")


# ---------------------------------------------------------------------------
# Report format
# ---------------------------------------------------------------------------

def test_report_round_trip(tmp_path):
    report = make_report("demo", {"throughput_ops": 500.0},
                         params={"seed": 1})
    path = str(tmp_path / "BENCH_demo.json")
    write_report(report, path)
    loaded = load_report(path)
    assert loaded == report
    assert loaded["schema"] == SCHEMA


def test_load_report_rejects_wrong_schema(tmp_path, gate, capsys):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as handle:
        json.dump({"schema": "nope/v9", "metrics": {}}, handle)
    with pytest.raises(ValueError):
        load_report(path)
    # Well-formed JSON of the wrong shape is an input error (one line,
    # exit 2), never "a metric is out of tolerance" (exit 1).
    listed = _write(tmp_path, "list.json", [1, 2, 3])
    with pytest.raises(ValueError, match="list.json"):
        load_report(listed)
    good = _write(tmp_path, "BENCH_smoke.json", _report_payload({}))
    for argv in ([listed], [good, "--baseline", listed]):
        assert gate.main(argv) == 2
        assert capsys.readouterr().err.count("\n") == 1


def test_bench_metrics_flattens_result():
    from repro.bench.runner import EVAL_LINK, run_broadcast_bench
    from repro.harness import ClusterConfig

    result = run_broadcast_bench(ClusterConfig(net=EVAL_LINK), duration=0.3)
    metrics = bench_metrics(result)
    assert metrics["throughput_ops"] == pytest.approx(result.throughput)
    assert metrics["committed"] == result.committed
    assert metrics["latency.p99_ms"] > 0
    assert metrics["net.bytes_sent"] > 0
    assert all(
        isinstance(value, (int, float)) for value in metrics.values()
    )


def test_profile_metrics_flattens_summary():
    from repro.obs import profile_trace
    from tests.test_obs_spans import _one_txn_trace

    metrics = profile_metrics(profile_trace(_one_txn_trace()))
    assert metrics["transactions"] == 1
    assert metrics["stage.commit_latency.p50_ms"] == pytest.approx(6.0)
    assert metrics["quorum_wait_fraction.mean"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Regression gate
# ---------------------------------------------------------------------------

def _write(tmp_path, name, payload):
    path = str(tmp_path / name)
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return path


def _baseline_payload(metrics):
    return {"schema": "repro-bench-baseline/v1",
            "entries": {"smoke": {"metrics": metrics}}}


def _report_payload(metrics):
    return {"schema": SCHEMA, "schema_version": 1, "name": "smoke",
            "params": {}, "metrics": metrics}


def test_gate_rejects_perturbed_metric(tmp_path, gate, capsys):
    # The acceptance case: the gate is ==, so one unit in the last place
    # of one metric, in either direction, must fail the run.
    value = 772.466752542617
    baseline = _write(tmp_path, "baseline.json",
                      _baseline_payload({"throughput_ops": value,
                                         "latency.p99_ms": 2.0}))
    for perturbed in (math.nextafter(value, 0.0),
                      math.nextafter(value, math.inf)):
        report = _write(tmp_path, "BENCH_smoke.json", _report_payload(
            {"throughput_ops": perturbed, "latency.p99_ms": 2.0}
        ))
        assert gate.main([report, "--baseline", baseline]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and repr(perturbed) in out


def test_gate_fails_on_missing_metric(tmp_path, gate, capsys):
    baseline = _write(tmp_path, "baseline.json",
                      _baseline_payload({"throughput_ops": 1000.0,
                                         "latency.p99_ms": 2.0}))
    report = _write(tmp_path, "BENCH_smoke.json",
                    _report_payload({"throughput_ops": 1000.0}))
    assert gate.main([report, "--baseline", baseline]) == 1
    assert "MISSING" in capsys.readouterr().out


def test_gate_zero_baseline_flags_nonzero_run(tmp_path, gate):
    baseline = _write(tmp_path, "baseline.json",
                      _baseline_payload({"stage.log_fsync.p50_ms": 0.0}))
    ok = _write(tmp_path, "ok.json",
                _report_payload({"stage.log_fsync.p50_ms": 0.0}))
    bad = _write(tmp_path, "bad.json",
                 _report_payload({"stage.log_fsync.p50_ms": 0.4}))
    assert gate.main([ok, "--baseline", baseline]) == 0
    assert gate.main([bad, "--baseline", baseline]) == 1


def test_gate_unknown_report_name_fails(tmp_path, gate, capsys):
    baseline = _write(tmp_path, "baseline.json", _baseline_payload({}))
    report = _write(tmp_path, "BENCH_other.json", {
        "schema": SCHEMA, "schema_version": 1, "name": "other",
        "params": {}, "metrics": {},
    })
    assert gate.main([report, "--baseline", baseline]) == 1
    assert "no baseline entry" in capsys.readouterr().out


def test_gate_update_records_and_accepts_own_run(tmp_path, gate):
    baseline = _write(tmp_path, "baseline.json",
                      _baseline_payload({"throughput_ops": 1000.0}))
    report = _write(tmp_path, "BENCH_smoke.json",
                    _report_payload({"throughput_ops": 1200.0}))
    assert gate.main([report, "--baseline", baseline]) == 1
    assert gate.main([report, "--baseline", baseline, "--update"]) == 0
    entry = gate.load_baseline(baseline)["entries"]["smoke"]
    assert entry == {"metrics": {"throughput_ops": 1200.0}}
    # The freshly recorded baseline accepts its own run.
    assert gate.main([report, "--baseline", baseline]) == 0


def test_committed_baseline_has_smoke_entry(gate):
    baseline = gate.load_baseline(gate.DEFAULT_BASELINE)
    entry = baseline["entries"]["smoke"]
    assert entry["metrics"]["committed"] > 0
    assert entry["metrics"]["throughput_ops"] > 0
    assert "stage.quorum_wait.p99_ms" in entry["metrics"]


# ---------------------------------------------------------------------------
# Trace validator: correlation fields
# ---------------------------------------------------------------------------

def _line(kind, fields, t=0.5, node=1):
    return json.dumps(
        {"t": t, "node": node, "kind": kind, "fields": fields}
    )


def test_validator_accepts_new_commit_path_kinds(validator):
    lines = [
        _line("leader.propose", {"zxid": [1, 1], "size": 64}),
        _line("log.append", {"zxid": [1, 1], "size": 64, "queued": 0}),
        _line("log.durable", {"zxid": [1, 1]}),
        _line("log.flush", {"records": 1, "bytes": 64}),
        _line("follower.ack", {"zxid": [1, 1], "leader": 1}, node=2),
        _line("leader.ack", {"zxid": [1, 1], "src": 2}),
        _line("leader.quorum", {"zxid": [1, 1], "src": 2, "acks": 2}),
        _line("leader.commit", {"zxid": [1, 1], "acks": [1, 2]}),
        _line("leader.batch", {"n": 4, "held": 0.001}),
        _line("net.send", {"dst": 2, "type": "Propose", "size": 64,
                           "msg_id": 1, "zxid": [1, 1]}),
        _line("net.deliver", {"src": 1, "type": "Propose", "size": 64,
                              "latency": 0.001, "msg_id": 1,
                              "zxid": [1, 1]}, node=2),
        _line("net.drop", {"reason": "crash", "src": 1, "dst": 2,
                           "type": "Ack", "msg_id": 2}),
    ]
    counts = validator.validate(io.StringIO("\n".join(lines)))
    assert counts["leader.quorum"] == 1
    assert counts["net.drop"] == 1


@pytest.mark.parametrize("kind,fields", [
    ("leader.propose", {"size": 64}),                   # zxid missing
    ("leader.ack", {"zxid": [1], "src": 2}),            # malformed zxid
    ("peer.commit", {"zxid": [1, -2]}),                 # negative counter
    ("log.durable", {"zxid": "1:1"}),                   # wrong type
    ("net.send", {"dst": 2, "type": "Ping"}),           # msg_id missing
    ("net.deliver", {"src": 1, "msg_id": 0}),           # non-positive id
    ("net.drop", {"reason": "x", "msg_id": True}),      # bool is not int
])
def test_validator_rejects_bad_correlation_fields(validator, kind, fields):
    with pytest.raises(ValueError):
        validator.validate(io.StringIO(_line(kind, fields)))


def test_validator_still_rejects_unknown_kinds(validator):
    with pytest.raises(ValueError) as excinfo:
        validator.validate(io.StringIO(_line("leader.teleport", {})))
    assert "undocumented kind" in str(excinfo.value)


def test_validator_accepts_real_profile_dump(tmp_path, validator):
    from repro.bench.runner import run_broadcast_bench
    from repro.bench.workloads import open_loop
    from repro.harness import ClusterConfig
    from repro.obs import Tracer, dump_jsonl

    tracer = Tracer()
    run_broadcast_bench(
        ClusterConfig(seed=1, tracer=tracer), duration=0.5, warmup=0,
        session_classes=open_loop(200),
    )
    path = str(tmp_path / "profile.jsonl")
    dump_jsonl(tracer, path)
    with open(path) as handle:
        counts = validator.validate(handle)
    assert counts["leader.quorum"] == counts["leader.commit"]
    assert counts["net.send"] >= counts["net.deliver"]


def test_validator_rejects_per_node_time_regression(validator):
    # Interleaved nodes keep the global stream monotonic while node 1's
    # own stream goes backwards — the per-node check must name node 1.
    lines = [
        _line("peer.commit", {"zxid": [1, 1]}, t=0.5, node=1),
        _line("peer.commit", {"zxid": [1, 1]}, t=0.5, node=2),
        _line("peer.commit", {"zxid": [1, 2]}, t=0.4, node=1),
    ]
    with pytest.raises(ValueError) as excinfo:
        validator.validate(io.StringIO("\n".join(lines)))
    assert "node 1 time went backwards" in str(excinfo.value)


def test_validator_global_regression_without_node_overlap(validator):
    lines = [
        _line("peer.commit", {"zxid": [1, 1]}, t=0.5, node=1),
        _line("peer.commit", {"zxid": [1, 1]}, t=0.4, node=2),
    ]
    with pytest.raises(ValueError) as excinfo:
        validator.validate(io.StringIO("\n".join(lines)))
    assert "time went backwards" in str(excinfo.value)


@pytest.mark.parametrize("kind,fields", [
    ("peer.commit", {"zxid": [1, 1]}),
    ("leader.established", {"epoch": 2}),
    ("fault.crash", {}),
    ("fault.slow_disk", {"factor": 20.0}),
])
def test_validator_rejects_null_node_on_node_scoped_kinds(
    validator, kind, fields
):
    record = json.loads(_line(kind, fields))
    record["node"] = None
    with pytest.raises(ValueError) as excinfo:
        validator.validate(io.StringIO(json.dumps(record)))
    assert "node=null" in str(excinfo.value)


@pytest.mark.parametrize("kind", ["fault.partition", "fault.heal"])
def test_validator_allows_null_node_on_cluster_faults(validator, kind):
    record = json.loads(_line(kind, {"groups": [[1], [2, 3]]}))
    record["node"] = None
    counts = validator.validate(io.StringIO(json.dumps(record)))
    assert counts[kind] == 1


def test_validator_accepts_disk_fault_kinds(validator):
    lines = [
        _line("fault.slow_disk", {"factor": 20.0}, node=2),
        _line("fault.restore_disk", {}, node=2),
    ]
    counts = validator.validate(io.StringIO("\n".join(lines)))
    assert counts["fault.slow_disk"] == 1


def test_load_report_rejects_wrong_schema_version(tmp_path):
    report = make_report("demo", {"throughput_ops": 1.0})
    report["schema_version"] = 99
    path = str(tmp_path / "BENCH_demo.json")
    write_report(report, path)
    with pytest.raises(ValueError) as excinfo:
        load_report(path)
    message = str(excinfo.value)
    assert "schema_version" in message
    assert "regenerate" in message


def test_load_report_rejects_missing_schema_version(tmp_path):
    report = make_report("demo", {"throughput_ops": 1.0})
    del report["schema_version"]
    path = str(tmp_path / "BENCH_demo.json")
    write_report(report, path)
    with pytest.raises(ValueError):
        load_report(path)


def test_make_report_embeds_health_summary():
    health = {"verdict": "healthy", "firings": {}, "active": []}
    report = make_report("demo", {"x": 1.0}, health=health)
    assert report["health"]["verdict"] == "healthy"
    assert make_report("demo", {"x": 1.0}).get("health") is None


# ---------------------------------------------------------------------------
# scripts/check_e2e_counts.py: exact pins of the e2e benchmark's counts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def counts_gate():
    return load_script("check_e2e_counts")


def _e2e_result(msgs_per_op=6.0):
    return {
        "schema": "bench-e2e/v1", "smoke": True, "seed": 11,
        "workloads": {"saturated-n3": {
            "untraced": {"work": 1515, "sim": {"sim_commit_p50_ms": 6.25},
                         "detail": {"rejected": 0}},
            "traced": {"per_layer": {
                "net.msgs_per_op": msgs_per_op, "mc.runs": 0,
                # Host-time metrics differ run to run and are not pinned.
                "net.self_us_per_op": 43.1, "net.self_s_share": 0.3,
                "app.apply_self_us": 0.6, "storage.snapshot_self_s": 0.01,
                "mc.exhaust_host_s": 0.0, "mc.boot_s_share": 0.0,
                "trace.overhead_ratio": 2.3, "trace.calibration_scale": 2.2,
                "baseline.n1_ops_per_host_s": 38000.0,
            }},
        }},
    }


def test_counts_gate_pins_only_deterministic_values(tmp_path, counts_gate):
    pinned = counts_gate.deterministic_values(_e2e_result())
    assert pinned["workloads"]["saturated-n3"] == {
        "untraced.work": 1515, "untraced.sim.sim_commit_p50_ms": 6.25,
        "untraced.detail.rejected": 0, "traced.net.msgs_per_op": 6.0,
        "traced.mc.runs": 0,
    }


def test_counts_gate_exit_codes(tmp_path, counts_gate, capsys):
    pins = str(tmp_path / "pins.json")
    result = _write(tmp_path, "r.json", _e2e_result())
    assert counts_gate.main([result, "--pinned", pins, "--update"]) == 0
    assert counts_gate.main([result, "--pinned", pins]) == 0
    capsys.readouterr()
    moved = _write(tmp_path, "moved.json", _e2e_result(msgs_per_op=6.5))
    assert counts_gate.main([moved, "--pinned", pins]) == 1
    assert ("saturated-n3 traced.net.msgs_per_op 6.0 6.5"
            in capsys.readouterr().out)
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert counts_gate.main([str(garbled), "--pinned", pins]) == 2
    assert len(capsys.readouterr().out.strip().split("\n")) == 1
    full_size = _write(tmp_path, "full.json", dict(_e2e_result(), smoke=False))
    assert counts_gate.main([full_size, "--pinned", pins]) == 2


def test_committed_counts_cover_all_four_workloads(counts_gate):
    with open(counts_gate.DEFAULT_PINNED) as handle:
        pinned = json.load(handle)
    assert pinned["schema"] == counts_gate.PINNED_SCHEMA
    assert sorted(pinned["workloads"]) == [
        "explore-d5", "failover-n5", "mixed-n5obs2", "saturated-n3"]
    for flat in pinned["workloads"].values():
        assert flat["traced.trace.missing_boundaries"] == 0
        assert not any(counts_gate.is_host_metric(name) for name in flat)
