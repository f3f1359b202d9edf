"""Tests for the command-line interface."""

import json
import os
import re

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.cli import build_parser, main, table_blocks
from repro.harness.schedule import ActionSchedule


def test_info_lists_experiments(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    for eid, entry in EXPERIMENTS.items():
        assert "\n  %-4s %s  [" % (eid, entry.artefact) in out


def test_experiment_unknown_id(capsys, tmp_path):
    assert main(["experiments", "e4", "e99", "--root", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "unknown experiment 'e99'; choose from: %s\n"
        % ", ".join(EXPERIMENTS)
    )
    assert not list(tmp_path.iterdir())


def test_experiment_e4_runs(capsys, tmp_path):
    # `experiments e4 --root DIR` records exactly e4: its results file
    # and its block of EXPERIMENTS.md, every other byte untouched.
    document = tmp_path / "EXPERIMENTS.md"
    stale = ("# prose stays\n\n```bash\npython -m repro experiments\n```\n\n"
             "```\nE4: stale\nrow\n```\n\nmore prose\n\n"
             "```\nE4b: other\nrow\n```\n")
    document.write_text(stale, encoding="utf-8")
    assert main(["experiments", "e4", "--root", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "local_primary_order" in out
    assert "zab" in out
    results = tmp_path / "benchmarks" / "results"
    assert os.listdir(results) == ["e4.txt"]
    table = (results / "e4.txt").read_text(encoding="utf-8")
    assert out == table + "\n"
    assert document.read_text(encoding="utf-8") == stale.replace(
        "E4: stale\nrow\n", table
    )
    assert table_blocks(document.read_text(encoding="utf-8")) == [
        ("e4", table.rstrip("\n")), ("e4b", "E4b: other\nrow"),
    ]


def test_experiments_needs_a_block_to_publish_into(capsys, tmp_path):
    # Checked before any simulation runs.
    assert main(["experiments", "e1", "--root", str(tmp_path)]) == 2
    assert "cannot read input" in capsys.readouterr().err
    (tmp_path / "EXPERIMENTS.md").write_text("no tables here\n")
    assert main(["experiments", "e1", "--root", str(tmp_path)]) == 2
    assert "0 table blocks for e1" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["EXPERIMENTS.md"]


def test_experiment_singular_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["experiment", "e4"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'experiment'" in capsys.readouterr().err


def test_bench_prints_summary(capsys):
    assert main(["bench", "--servers", "3", "--duration", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "throughput:" in out
    assert "properties:   OK" in out


def test_bench_json_report(capsys, tmp_path):
    path = tmp_path / "bench.json"
    assert main(["bench", "--servers", "3", "--duration", "0.3",
                 "--json", str(path)]) == 0
    report = json.loads(path.read_text())
    assert report["name"] == "bench"
    assert report["metrics"]["throughput_ops"] > 0
    assert report["params"]["n_voters"] == 3


def test_profile_reports_stage_breakdown(capsys, tmp_path):
    trace = str(tmp_path / "profile.jsonl")
    report_path = tmp_path / "profile.json"
    assert main(["profile", "--servers", "5", "--seed", "3",
                 "--rate", "300", "--duration", "1.0", "--net",
                 "-o", trace, "--json", str(report_path)]) == 0
    out = capsys.readouterr().out
    # Per-transaction stage breakdown from the replayed trace.
    assert "commit-path stage breakdown" in out
    assert "quorum_wait" in out
    assert "quorum wait:" in out            # quorum-wait fraction line
    assert "per-follower ACK anatomy" in out
    assert "slowest ACK" in out             # slowest-follower lag column
    assert "critical path" in out
    report = json.loads(report_path.read_text())
    assert report["name"] == "profile"
    assert report["metrics"]["committed"] > 0
    assert report["metrics"]["stage.quorum_wait.p99_ms"] > 0
    assert report["params"]["servers"] == 5


def test_profile_replays_existing_trace(capsys, tmp_path):
    trace = str(tmp_path / "profile.jsonl")
    assert main(["profile", "--servers", "3", "--seed", "1",
                 "--rate", "200", "--duration", "0.5",
                 "-o", trace]) == 0
    capsys.readouterr()
    assert main(["profile", "--trace", trace]) == 0
    out = capsys.readouterr().out
    assert "commit-path stage breakdown" in out


def test_profile_empty_trace_errors(capsys, tmp_path):
    trace = tmp_path / "empty.jsonl"
    trace.write_text("")
    assert main(["profile", "--trace", str(trace)]) == 1
    assert "nothing to profile" in capsys.readouterr().err


def test_fuzz_clean_exit(capsys):
    assert main(["fuzz", "--servers", "3", "--seed", "1",
                 "--steps", "2"]) == 0
    out = capsys.readouterr().out
    assert "ALL OK" in out


def test_fuzz_is_replay_of_the_generated_schedule(capsys):
    # `fuzz` owns no adversary: same seed, same output, byte for byte,
    # and the fired lines are the generated schedule's own actions.
    argv = ["fuzz", "--seed", "7", "--steps", "6"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    fired = [line for line in first.splitlines() if line.startswith("t=")]
    assert 0 < len(fired) <= 6
    assert all(" peer " in line or line.endswith("heal") for line in fired)


def test_campaign_command(capsys):
    assert main(["campaign", "--servers", "3", "--seeds", "2",
                 "--steps", "3"]) == 0
    out = capsys.readouterr().out
    assert "ALL 2 RUNS PASSED" in out
    assert "verdict" in out


def test_campaign_json_report_identical_across_workers(capsys, tmp_path):
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    assert main(["campaign", "--seeds", "2", "--steps", "3",
                 "--json", str(serial)]) == 0
    assert main(["campaign", "--seeds", "2", "--steps", "3",
                 "--workers", "2", "--json", str(parallel)]) == 0
    out = capsys.readouterr().out
    assert "worker" in out          # attribution column in the table
    assert serial.read_bytes() == parallel.read_bytes()
    report = json.loads(serial.read_text())
    assert report["schema"] == "repro-campaign/v1"
    assert report["summary"]["passed"] == 2


def test_explore_workers_flag_matches_the_default_search(capsys, tmp_path):
    default, pooled = tmp_path / "default.json", tmp_path / "pooled.json"
    argv = ["explore", "--depth", "2", "--max-violations", "0",
            "-o", str(tmp_path / "out")]
    assert main(argv + ["--json", str(default)]) == 0
    assert main(argv + ["--json", str(pooled), "--workers", "2"]) == 0
    assert default.read_bytes() == pooled.read_bytes()
    assert json.loads(pooled.read_text())["exhausted"] is True


@pytest.mark.parametrize("command", ["explore", "campaign"])
@pytest.mark.parametrize("workers", ["0", "-1", "two"])
def test_workers_below_one_is_a_usage_error(capsys, command, workers):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--workers", workers])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "--workers" in captured.err and repr(workers) in captured.err


@pytest.mark.parametrize("argv", [
    ["trace", "--rate", "0"],
    ["trace", "--duration", "-1"],
    ["profile", "--rate", "-5"],
    ["health", "--rate", "nan"],
    ["bench", "--outstanding", "0"],
    ["bench", "--servers", "0"],
    ["bench", "--duration", "inf"],
    ["campaign", "--servers", "2.5"],
    ["explore", "--peers", "0"],
    ["explore", "--depth", "-1"],
    ["health", "--window", "0"],
    ["health", "--window", "-1"],
    ["bench", "--bandwidth", "0"],
    ["bench", "--op-size", "-5"],
    ["campaign", "--seeds", "0"],
    ["campaign", "--seeds", "-2", "--json", "c.json"],
    ["campaign", "--steps", "0"],
    ["fuzz", "--steps", "-3"],
    ["shrink", "--steps", "0"],
    ["shrink", "--step-interval", "-1"],
    ["explore", "--step-interval", "-0.25"],
    ["explore", "--step-interval", "0"],
    ["explore", "--op-interval", "-1"],
    ["explore", "--op-interval", "nan"],
])
def test_non_positive_load_argument_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert re.search("error: argument %s: must be a (positive|non-negative)"
                     % argv[1], captured.err)
    assert repr(argv[2]) in captured.err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_health_scenario_json(capsys, tmp_path):
    path = str(tmp_path / "health.json")
    assert main(["health", "--rate", "400", "--json", path]) == 0
    out = capsys.readouterr().out
    assert "verdict: healthy" in out
    assert "recovery_dip" in out
    with open(path) as handle:
        report = json.load(handle)
    assert report["schema"] == "repro-health/v1"
    assert report["verdict"] == "healthy"
    assert report["params"]["scenario"] == "crash-recovery"


def test_health_exit_1_while_detector_firing(capsys):
    # End the run mid-outage: the new epoch never commits, so the
    # recovery dip is still open when the monitor freezes.
    assert main(["health", "--rate", "400", "--duration", "4.2"]) == 1
    out = capsys.readouterr().out
    assert "STILL FIRING" in out
    assert "verdict: degraded" in out


def test_health_offline_trace(capsys, tmp_path):
    from repro.bench.runner import run_broadcast_bench
    from repro.bench.workloads import open_loop
    from repro.harness import ClusterConfig
    from repro.obs import Tracer, dump_jsonl

    tracer = Tracer()
    tracer.disable("net.")
    run_broadcast_bench(ClusterConfig(seed=1, tracer=tracer), duration=0.5,
                        warmup=0, session_classes=open_loop(200))
    trace = str(tmp_path / "run.jsonl")
    dump_jsonl(tracer.events, trace)
    assert main(["health", "--trace", trace]) == 0
    assert "verdict: healthy" in capsys.readouterr().out


def test_health_missing_trace_is_usage_error(capsys, tmp_path):
    missing = str(tmp_path / "nope.jsonl")
    assert main(["health", "--trace", missing]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_campaign_health_column(capsys):
    assert main(["campaign", "--servers", "3", "--seeds", "1",
                 "--steps", "3", "--health"]) == 0
    out = capsys.readouterr().out
    assert "health" in out


def test_ops_schedule_replays_a_saved_scenario(capsys, tmp_path):
    schedule = str(tmp_path / "rolling.schedule.json")
    generated = tmp_path / "ops-rolling.json"
    replayed = tmp_path / "ops-replayed.json"
    assert main(["ops", "--scenario", "rolling-restart",
                 "--save-schedule", schedule,
                 "--json", str(generated)]) == 0
    assert main(["ops", "--schedule", schedule,
                 "--json", str(replayed)]) == 0
    first = json.loads(generated.read_text())
    second = json.loads(replayed.read_text())
    assert first["ops"]["passed"] and first["ops"]["actions_fired"]
    assert first.pop("params") == {
        "scenario": "rolling-restart", "seed": 0, "servers": 3,
    }
    assert second.pop("params") == {"schedule": schedule}
    assert first == second
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["ops", "--scenario", "rolling-restart",
              "--schedule", schedule])
    assert exit_info.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def _run_trace(path, *extra):
    return main(["trace", "--servers", "3", "--rate", "300",
                 "--duration", "2", "-o", path] + list(extra))


def test_trace_kinds_filter_restricts_the_capture(capsys, tmp_path):
    path = str(tmp_path / "trace.jsonl")
    assert _run_trace(path, "--kinds", "leader.,election.start") == 0
    capsys.readouterr()
    kinds = set()
    with open(path) as handle:
        for line in handle:
            kinds.add(json.loads(line)["kind"])
    assert kinds, "filtered capture is empty"
    for kind in kinds:
        assert kind.startswith("leader.") or kind == "election.start", kind
    assert not any(kind.startswith("net.") for kind in kinds)


def test_trace_limit_keeps_only_the_tail(capsys, tmp_path):
    path = str(tmp_path / "trace.jsonl")
    assert _run_trace(path, "--limit", "25") == 0
    capsys.readouterr()
    with open(path) as handle:
        assert sum(1 for _ in handle) == 25


def test_trace_sample_is_deterministic_and_smaller(capsys, tmp_path):
    full = tmp_path / "full.jsonl"
    sampled_a = tmp_path / "a.jsonl"
    sampled_b = tmp_path / "b.jsonl"
    assert _run_trace(str(full), "--net") == 0
    assert _run_trace(str(sampled_a), "--net", "--sample", "8") == 0
    assert _run_trace(str(sampled_b), "--net", "--sample", "8") == 0
    capsys.readouterr()
    # Same seed, same rate: bit-identical artifact — and far smaller
    # than the unsampled capture.
    assert sampled_a.read_bytes() == sampled_b.read_bytes()
    assert sampled_a.stat().st_size < full.stat().st_size / 2


def test_trace_perfetto_export(capsys, tmp_path):
    trace = str(tmp_path / "trace.jsonl")
    perfetto = tmp_path / "trace.perfetto.json"
    assert _run_trace(trace, "--perfetto", str(perfetto)) == 0
    assert "ui.perfetto.dev" in capsys.readouterr().out
    exported = json.loads(perfetto.read_text())
    assert exported["traceEvents"]
    phases = {record["ph"] for record in exported["traceEvents"]}
    assert "M" in phases and "X" in phases


def test_trace_run_that_dies_leaves_an_existing_trace_intact(
    monkeypatch, tmp_path
):
    import repro.cli

    def dies(*_args, **_kwargs):
        raise KeyboardInterrupt

    path = tmp_path / "trace.jsonl"
    path.write_text(_GOOD_LINE)
    monkeypatch.setattr(repro.cli, "run_broadcast_bench", dies)
    with pytest.raises(KeyboardInterrupt):
        _run_trace(str(path))
    assert path.read_text() == _GOOD_LINE


def test_trace_unwritable_output_fails_before_simulating(
    capsys, monkeypatch, tmp_path
):
    import repro.cli

    monkeypatch.setattr(repro.cli, "run_broadcast_bench", None)
    assert _run_trace(str(tmp_path / "missing-dir" / "trace.jsonl")) == 2
    assert "cannot write" in capsys.readouterr().err


def test_trace_view_round_trips_a_capture(capsys, tmp_path):
    path = str(tmp_path / "trace.jsonl")
    assert _run_trace(path) == 0
    capsys.readouterr()
    assert main(["trace", "--view", path,
                 "--kinds", "leader.,election.", "--limit", "50"]) == 0
    out = capsys.readouterr().out
    assert "last" in out and "events:" in out
    assert "net." not in out


def test_trace_view_announces_a_flight_recorder_dump(capsys, tmp_path):
    from repro.obs.recorder import FlightRecorder

    recorder = FlightRecorder(capacity=8)
    recorder.emit("election.start", node=1, round=1)
    path = str(tmp_path / "flight.jsonl")
    recorder.dump(path, reason="unit_test")
    assert main(["trace", "--view", path]) == 0
    out = capsys.readouterr().out
    assert "flight recorder dump: reason=unit_test" in out
    assert "capacity=8" in out
    assert "election.start" in out


def test_trace_view_missing_file_is_usage_error(capsys, tmp_path):
    missing = str(tmp_path / "nope.jsonl")
    assert main(["trace", "--view", missing]) == 2
    assert "cannot read" in capsys.readouterr().err


# Every command that reads a user-supplied file must answer a missing,
# truncated or well-formed-but-wrong one with one line and exit 2.
_BAD_SCHEDULES = {
    "missing-file": None,
    "truncated-json": '{"version": 1, "actions": [{"t": 0.5, "act',
    "json-list": "[1, 2, 3]",
    "record-missing-key": '{"actions": [{"action": "heal"}]}',
    "unknown-action-kind": '{"actions": [{"t": 1, "action": "explode"}]}',
    "non-numeric-time": '{"actions": [{"t": "soon", "action": "heal"}]}',
}
_GOOD_LINE = '{"t": 0.1, "node": 1, "kind": "election.start", "fields": {}}\n'
_BAD_TRACES = {
    "missing-file": None,
    "truncated-json": _GOOD_LINE + '{"t": 0.2, "node": 1, "ki',
    "json-list": _GOOD_LINE + "[1, 2, 3]\n",
    "record-missing-key": _GOOD_LINE + '{"t": 0.2, "node": 1}\n',
    "non-numeric-time":
        '{"t": "soon", "node": 1, "kind": "election.start", "fields": {}}\n',
}
_BAD_INPUTS = [
    pytest.param(argv, text, id="%s-%s" % ("".join(argv), case))
    for argv, cases in (
        (["shrink", "--schedule"], _BAD_SCHEDULES),
        (["ops", "--schedule"], _BAD_SCHEDULES),
        (["health", "--trace"], _BAD_TRACES),
        (["profile", "--trace"], _BAD_TRACES),
        (["trace", "--view"], _BAD_TRACES),
    )
    for case, text in cases.items()
]


def test_schedule_naming_a_missing_peer_is_one_line_and_exit_2(
    capsys, tmp_path
):
    path = tmp_path / "input.json"
    ActionSchedule(meta={"n_voters": 3}).add(0.5, "crash", 9).save(str(path))
    assert main(["ops", "--schedule", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "names peer 9" in captured.err


@pytest.mark.parametrize("argv,text", _BAD_INPUTS)
def test_malformed_input_file_is_one_line_and_exit_2(
    capsys, tmp_path, argv, text
):
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    assert main(argv + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and str(path) in captured.err
    assert "Traceback" not in captured.err
