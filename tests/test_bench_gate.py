"""Tests for BENCH_*.json reports, the exact pin of the simulated
profile scenario, and the trace schema validator's correlation-field
checks."""

import importlib.util
import io
import json
import os

import pytest

from repro.bench.report import (
    SCHEMA,
    bench_metrics,
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
    with open(path) as handle:
        loaded = json.load(handle)
    assert loaded == report
    assert loaded["schema"] == SCHEMA


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
# The simulated profile scenario, pinned exactly
# ---------------------------------------------------------------------------

def test_profile_scenario_metrics_are_pinned_exactly():
    # `repro profile --servers 5 --seed 3` (CI's smoke run) through the
    # library.  Virtual time and seeded draws make every metric repeat
    # bit for bit, so the pin is `==`; a change that moves one on
    # purpose re-pins it here and says so.  Wire events do not move the
    # profile, so the pin holds with or without `--net`.
    from repro.bench.runner import EVAL_LINK, run_broadcast_bench
    from repro.bench.workloads import open_loop
    from repro.harness import ClusterConfig
    from repro.obs import Tracer, profile_trace

    tracer = Tracer()
    tracer.disable("net.")
    run_broadcast_bench(
        ClusterConfig(n_voters=5, seed=3, net=EVAL_LINK, tracer=tracer),
        duration=3.0, warmup=0, session_classes=open_loop(800.0),
    )
    assert profile_metrics(profile_trace(tracer.events)) == {
        "committed": 2393,
        "quorum_wait_fraction.mean": 1.0,
        "stage.commit_latency.p50_ms": 0.5480472161813265,
        "stage.commit_latency.p99_ms": 0.7500404582265313,
        "stage.e2e.p50_ms": 0.8112437596178169,
        "stage.e2e.p99_ms": 1.110243101747359,
        "stage.log_fsync.p50_ms": 0.0,
        "stage.log_fsync.p99_ms": 0.0,
        "stage.quorum_wait.p50_ms": 0.5480472161813265,
        "stage.quorum_wait.p99_ms": 0.7500404582265313,
        "throughput_ops": 798.2557945359014,
        "transactions": 2393,
    }


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
        _line("leader.ack", {"zxid": [1, 1], "first": [1, 1], "src": 2}),
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
    ("leader.ack", {"zxid": [1, 3], "src": 2}),         # first missing
    ("leader.ack", {"zxid": [1, 3], "first": [1, 4]}),  # first after zxid
    ("leader.ack", {"zxid": [2, 3], "first": [1, 1]}),  # two epochs
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


def _write(tmp_path, name, payload):
    path = str(tmp_path / name)
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return path


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
