"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro experiments            # regenerate the evaluation
    python -m repro experiments e1 e9      # ... or only these tables
    python -m repro bench --servers 5      # one custom throughput run
    python -m repro trace -o trace.jsonl   # traced crash/recovery timeline
    python -m repro profile --servers 5    # commit-path stage breakdown
    python -m repro fuzz --seed 7          # random fault injection + check
    python -m repro explore --depth 8      # bounded exhaustive fault search
    python -m repro shrink --seed 7        # replay + ddmin-minimize a failure
    python -m repro info                   # inventory

The CLI is a thin veneer over :mod:`repro.bench.experiments` and
:mod:`repro.harness`; everything it prints can also be produced from the
library API.  ``experiments`` also *records* each table it prints, in
``benchmarks/results/<id>.txt`` and that id's block of EXPERIMENTS.md.
"""

import argparse
import re
import sys
from pathlib import Path

from repro.bench import experiments
from repro.bench.report import write_report
from repro.bench.runner import EVAL_LINK, run_broadcast_bench
from repro.common.errors import ConfigError
from repro.common.util import atomic_write
from repro.harness.config import ClusterConfig
from repro.harness.opscenarios import OPS_SCENARIOS
from repro.harness.schedule import PROFILES
from repro.net import NetworkConfig
from repro.obs.trace import kind_matches
from repro.zab.dissemination import DISSEMINATION_TOPOLOGIES


class _UnreadableInput(Exception):
    """An input file is missing or malformed; ``main`` exits 2 on it."""


def _load(loader, path):
    """``loader(path)``; the loaders name *path* in what they raise."""
    try:
        return loader(path)
    except (OSError, ValueError) as exc:
        raise _UnreadableInput("cannot read input: %s" % exc) from exc


class _Parser(argparse.ArgumentParser):
    """Usage errors, like unreadable inputs, are one line and exit 2."""

    def error(self, message):
        self.exit(2, "%s: error: %s\n" % (self.prog, message))


def _positive(kind, or_zero=False):
    """An argparse type: a finite *kind* (``int`` or ``float``) > 0, or
    >= 0 with *or_zero*, so ``--servers 0`` or ``--rate -5`` is a usage
    error, not a traceback."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if (value is None or not value < float("inf")
                or not (value >= 0 if or_zero else value > 0)):
            raise argparse.ArgumentTypeError(
                "must be a %s %s, not %r"
                % ("non-negative" if or_zero else "positive",
                   "integer" if kind is int else "number", text)
            )
        return value
    return parse


_positive_int = _positive(int)
_positive_float = _positive(float)
_non_negative_float = _positive(float, or_zero=True)


# A table block of EXPERIMENTS.md is a bare fence whose first line is
# "<Id>: <title>"; the prose around the blocks is hand-written.
_TABLE_BLOCK = re.compile(
    r"^```\n(([EA]\d+b?): .*?)\n```$", re.MULTILINE | re.DOTALL
)


def table_blocks(text):
    """``[(id, table_text)]`` of EXPERIMENTS.md's table blocks, in order."""
    return [
        (match.group(2).lower(), match.group(1))
        for match in _TABLE_BLOCK.finditer(text)
    ]


def cmd_experiments(args):
    registry = experiments.EXPERIMENTS
    ids = args.ids or list(registry)
    unknown = [eid for eid in ids if eid not in registry]
    if unknown:
        print("unknown experiment %r; choose from: %s"
              % (unknown[0], ", ".join(registry)), file=sys.stderr)
        return 2
    document = Path(args.root, "EXPERIMENTS.md")
    text = _load(lambda path: path.read_text(encoding="utf-8"), document)
    # A missing block should fail before minutes of simulation, not after.
    blocks = [eid for eid, _table in table_blocks(text)]
    for eid in ids:
        if blocks.count(eid) != 1:
            print("%s: %d table blocks for %s, expected 1"
                  % (document, blocks.count(eid), eid), file=sys.stderr)
            return 2
    results = Path(args.root, "benchmarks", "results")
    results.mkdir(parents=True, exist_ok=True)
    for eid in ids:
        _rows, table, _extras = registry[eid].run()
        print(table)
        print()
        (results / (eid + ".txt")).write_text(table + "\n", encoding="utf-8")
        text = _TABLE_BLOCK.sub(
            lambda match: "```\n%s\n```" % table
            if match.group(2).lower() == eid else match.group(0),
            text,
        )
        document.write_text(text, encoding="utf-8")
    return 0


def cmd_bench(args):
    tracer = None
    if args.json:
        # A protocol-level trace lets the report carry a health
        # summary; per-message net.* events are irrelevant to it.
        from repro import obs

        tracer = obs.Tracer()
        tracer.disable("net.")
    result = run_broadcast_bench(
        ClusterConfig(
            n_voters=args.servers,
            seed=args.seed,
            net=NetworkConfig(bandwidth_bps=args.bandwidth * 1e6 / 8),
            disk="model" if args.disk else None,
            dissemination=args.dissemination,
            tracer=tracer,
        ),
        op_size=args.op_size,
        outstanding=args.outstanding,
        duration=args.duration,
    )
    print("servers:      %d" % args.servers)
    print("topology:     %s" % args.dissemination)
    print("throughput:   %.0f ops/s" % result.throughput)
    print("committed:    %d ops in %.1fs simulated"
          % (result.committed, result.duration))
    latency = result.latency
    print("latency:      p50=%.2fms p95=%.2fms p99=%.2fms "
          "(%d samples, ~2%% sketch err)"
          % (latency["p50"] * 1e3, latency["p95"] * 1e3,
             latency["p99"] * 1e3, latency["count"]))
    print("wire traffic: %.1f MB" % (
        sum(result.net_stats["bytes_sent"].values()) / 1e6
    ))
    print("properties:   %s"
          % ("OK" if result.check_report.ok else "VIOLATED"))
    metrics = result.metrics
    print("obs counters: committed=%d commits=%d elections=%d drops=%d"
          % (metrics["counters"]["bench.committed"],
             metrics["zab"]["commits"],
             metrics["zab"]["elections_decided"],
             metrics["net"]["messages_dropped"]))
    if args.json:
        from repro.bench import report as bench_report
        from repro.obs.health import HealthMonitor

        monitor = HealthMonitor()
        monitor.feed(tracer.events).finish()
        path = bench_report.write_bench_report(
            result, args.json, health=monitor.summary()
        )
        print("health:       %s" % monitor.summary()["verdict"])
        print("report:       %s" % path)
    return 0


def _parse_kinds(spec):
    """Split a --kinds value into patterns (exact or ``"net."``)."""
    return [kind.strip() for kind in spec.split(",") if kind.strip()]


def _cmd_trace_view(args):
    """Inspect an existing JSONL trace or flight-recorder dump."""
    from repro import obs

    events = _load(obs.load_jsonl, args.view)
    marker = None
    if events and events[-1].kind == "recorder.dump":
        marker = events[-1]
        events = events[:-1]
    if args.kinds:
        patterns = _parse_kinds(args.kinds)
        events = [
            event for event in events
            if kind_matches(event.kind, patterns)
        ]
    if args.limit > 0:
        events = events[-args.limit:]
    if marker is not None:
        fields = marker.fields
        print("flight recorder dump: reason=%s retained=%s dropped=%s "
              "capacity=%s"
              % (fields.get("reason"), fields.get("retained"),
                 fields.get("dropped"), fields.get("capacity")))
        extra = {
            key: value for key, value in sorted(fields.items())
            if key not in ("reason", "retained", "dropped", "capacity")
        }
        if extra:
            print("  %s" % extra)
        print()
    if not events:
        print("no events%s" % (" match" if args.kinds else ""))
        return 0
    print(obs.render_summary(obs.summarize(events)))
    print()
    tail = events[-min(len(events), 20):]
    print("last %d events:" % len(tail))
    for event in tail:
        print("  t=%-10.6f node=%-4s %-22s %s"
              % (event.t, "-" if event.node is None else event.node,
                 event.kind, event.fields))
    if args.perfetto:
        obs.dump_chrome_trace(events, args.perfetto)
        print("perfetto:   %s events -> %s (open in ui.perfetto.dev)"
              % (len(events), args.perfetto))
    return 0


def cmd_trace(args):
    from repro import obs

    if args.view:
        return _cmd_trace_view(args)

    from repro.harness.scenarios import crash_recovery_schedule

    # Check the output first, without truncating it: a bad path should
    # fail before ten seconds of simulation, and a run that dies keeps
    # an existing trace (the dump below replaces it atomically).
    try:
        with open(args.out, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        print("cannot write %s: %s" % (args.out, exc), file=sys.stderr)
        return 2
    if args.kinds:
        tracer = obs.Tracer(kinds=_parse_kinds(args.kinds))
    else:
        tracer = obs.Tracer()
        if not args.net:
            # Wire-level events dominate the file (~10 per op); keep
            # the default trace focused on the protocol timeline.
            tracer.disable("net.")
    if args.sample > 1:
        tracer.sample(
            args.sample,
            "net.", "log.", "leader.", "follower.", "peer.",
        )
    registry = obs.MetricsRegistry()
    result = run_broadcast_bench(
        ClusterConfig(
            n_voters=args.servers, seed=args.seed, net=EVAL_LINK,
            tracer=tracer, metrics=registry,
        ),
        duration=args.duration, warmup=0,
        rate=args.rate,
        schedule=crash_recovery_schedule(),
    )
    events = tracer.events
    if args.limit > 0:
        events = events[-args.limit:]
    count = obs.dump_jsonl(events, args.out)
    print(obs.render_summary(obs.summarize(events)))
    print()
    snapshot = registry.snapshot()
    print("zab:        commits=%d elections=%d leader=%s epoch=%s"
          % (snapshot["zab"]["commits"],
             snapshot["zab"]["elections_decided"],
             snapshot["zab"]["leader"], snapshot["zab"]["epoch"]))
    print("net:        sent=%d dropped=%d  drops by reason: %s"
          % (sum(snapshot["net"]["messages_sent"].values()),
             snapshot["net"]["messages_dropped"],
             snapshot["net"]["drops_by_reason"]))
    print("driver:     submitted=%d committed=%d"
          % (result.submitted, result.committed))
    print("trace:      %d events -> %s" % (count, args.out))
    if args.perfetto:
        obs.dump_chrome_trace(events, args.perfetto)
        print("perfetto:   %d events -> %s (open in ui.perfetto.dev)"
              % (len(events), args.perfetto))
    # The runner raises on a violated property, so getting here means OK.
    print("properties: OK")
    return 0


def cmd_profile(args):
    from repro import obs
    from repro.bench import report as bench_report

    if args.trace:
        # Analyse an existing capture instead of running a scenario.
        events = _load(obs.load_jsonl, args.trace)
        params = {"trace": args.trace}
    else:
        tracer = obs.Tracer()
        if not args.net:
            # The span profile only needs protocol-level events; wire
            # events (~10 per op) are opt-in for the causality DAG.
            tracer.disable("net.")
        run_broadcast_bench(   # fault-free: a clean profile
            ClusterConfig(
                n_voters=args.servers, seed=args.seed, net=EVAL_LINK,
                tracer=tracer,
            ),
            duration=args.duration, warmup=0,
            rate=args.rate,
        )
        # Round-trip through JSONL: the analysis below always runs on a
        # replayed trace, so `repro profile --trace <file>` on the dump
        # is bit-for-bit the same view.
        count = obs.dump_jsonl(tracer, args.out)
        print("trace: %d events -> %s" % (count, args.out))
        print()
        events = obs.load_jsonl(args.out)
        params = {
            "servers": args.servers,
            "seed": args.seed,
            "rate": args.rate,
            "duration": args.duration,
            "net": bool(args.net),
        }

    summary = obs.profile_trace(events, top=args.top)
    if not summary["transactions"]:
        print("no leader.propose events in the trace; nothing to profile",
              file=sys.stderr)
        return 1
    print(obs.render_profile(summary))

    graph = obs.CausalityGraph.from_events(events)
    digest = graph.summary()
    messages = digest["messages"]
    if messages["sent"]:
        print()
        print("messages:     %d sent, %d delivered, %d dropped, "
              "mean wire latency %.3fms"
              % (messages["sent"], messages["delivered"],
                 messages["dropped"],
                 (messages["mean_latency"] or 0.0) * 1e3))
        slowest = summary.get("slowest")
        if slowest:
            path = graph.critical_path(slowest[0]["zxid"])
            if path:
                print("critical path of slowest txn %d:%d:"
                      % tuple(slowest[0]["zxid"]))
                t0 = path[0][0]
                for t, node, label in path:
                    print("  +%7.3fms  node %-3s %s"
                          % ((t - t0) * 1e3, node, label))

    if args.json:
        from repro.obs.health import HealthMonitor

        monitor = HealthMonitor()
        monitor.feed(events).finish()
        path = bench_report.write_profile_report(
            summary, args.json, params=params, health=monitor.summary(),
        )
        print()
        print("health: %s" % monitor.summary()["verdict"])
        print("report: %s" % path)
    return 0


def cmd_fuzz(args):
    from repro.checker.report import render_history, render_report
    from repro.harness.replay import replay_schedule
    from repro.harness.schedule import ActionSchedule

    result = replay_schedule(ActionSchedule.generate(
        args.seed, n_voters=args.servers, steps=args.steps,
    ))
    for time, happened in result.fired:
        print("t=%6.2f %s" % (time, happened))
    if result.error is not None:
        print("replay error: %s" % result.error)
        return 1
    report = result.report
    print()
    print("properties: %s" % ("ALL OK" if report.ok else "VIOLATED"))
    print(render_report(report))
    if not report.ok:
        print("union history:")
        print(render_history(result.cluster.trace))
    if not result.converged:
        print("replica states DIVERGED")
    return 0 if result.passed else 1


def _seeded_bug_factory(name):
    """The leader factory of seeded bug *name* (None for no bug)."""
    if not name:
        return None
    from repro.harness.buggy import SEEDED_BUGS

    if name not in SEEDED_BUGS:
        raise ValueError("unknown seeded bug %r; choose from: %s"
                         % (name, ", ".join(sorted(SEEDED_BUGS))))
    return SEEDED_BUGS[name].factory


_REPRO_TEST_TEMPLATE = '''\
"""Minimized failure repro for adversary seed %(seed)d.

Auto-generated by `repro shrink`; drop into tests/corpus/ to pin the
bug.  Replays a %(n_actions)d-action schedule (shrunk from
%(original_len)d) and asserts the property violation reproduces with an
identical signature on every replay.
"""

from repro import ActionSchedule, ClusterConfig, replay_schedule
%(factory_import)s
SCHEDULE = ActionSchedule.loads(r\'\'\'
%(schedule_json)s
\'\'\')

CONFIG = ClusterConfig(%(factory_kwarg)s)

EXPECTED_SIGNATURE = %(signature)r


def test_seed_%(seed)d_violation_reproduces():
    first = replay_schedule(SCHEDULE, CONFIG)
    second = replay_schedule(SCHEDULE, CONFIG)
    assert not first.passed
    assert first.signature == EXPECTED_SIGNATURE
    assert second.signature == first.signature
'''


def cmd_shrink(args):
    import os

    from repro import obs
    from repro.harness.replay import replay_schedule
    from repro.harness.schedule import ActionSchedule
    from repro.harness.shrink import make_reproducer, shrink_schedule

    try:
        leader_factory = _seeded_bug_factory(args.buggy)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    if args.schedule:
        schedule = _load(ActionSchedule.load, args.schedule)
        seed = schedule.meta.get("seed", args.seed)
        print("loaded %d-action schedule from %s"
              % (len(schedule), args.schedule))
    else:
        seed = args.seed
        schedule = ActionSchedule.generate(
            seed, n_voters=args.servers, steps=args.steps,
            step_interval=args.step_interval,
        )
        print("generated %d-action schedule from seed %d"
              % (len(schedule), seed))

    config = ClusterConfig(leader_factory=leader_factory)
    baseline = replay_schedule(schedule, config)
    if baseline.passed:
        print("replay passed (%d deliveries); nothing to shrink"
              % baseline.deliveries)
        return 0
    print("replay FAILED: %s"
          % (baseline.error or ", ".join(baseline.violations)
             or "diverged"))
    if baseline.error is not None:
        print("stabilisation errors are not shrinkable; bailing")
        return 2

    failing = make_reproducer(baseline, mode=args.mode, config=config)
    result = shrink_schedule(schedule, failing=failing)
    print("shrunk %d -> %d actions in %d replays"
          % (result.original_len, len(result.schedule), result.replays))
    for action in result.schedule:
        print("  t=%-6.2f %s %s"
              % (action.time, action.kind,
                 "" if action.target is None else action.target))

    # Determinism check: the minimal schedule must reproduce the same
    # violation signature (kind and zxid) on every replay.
    tracer = obs.Tracer()
    tracer.disable("net.")
    first = replay_schedule(result.schedule, config.replace(tracer=tracer))
    second = replay_schedule(result.schedule, config)
    if first.signature != second.signature or first.passed:
        print("WARNING: minimal schedule did not replay deterministically")
        return 2
    print("minimal repro is deterministic: %d signature entries, e.g. %s"
          % (len(first.signature), list(first.signature[:3])))

    out_dir = args.out or ("repro-seed-%s" % seed)
    os.makedirs(out_dir, exist_ok=True)
    schedule.save(os.path.join(out_dir, "schedule.json"))
    minimal_path = result.schedule.save(
        os.path.join(out_dir, "schedule.min.json")
    )
    obs.dump_jsonl(tracer, os.path.join(out_dir, "trace.jsonl"))
    test_path = os.path.join(out_dir, "test_seed_%s.py" % seed)
    with atomic_write(test_path) as f:
        f.write(_REPRO_TEST_TEMPLATE % {
            "seed": seed,
            "n_actions": len(result.schedule),
            "original_len": result.original_len,
            "schedule_json": result.schedule.dumps(indent=2),
            "signature": first.signature,
            "factory_import":
                "from repro.harness.buggy import %s\n"
                % leader_factory.__name__ if args.buggy else "",
            "factory_kwarg":
                "leader_factory=%s" % leader_factory.__name__
                if args.buggy else "",
        })
    print("artifacts in %s/:" % out_dir)
    print("  schedule.json       original failing schedule")
    print("  schedule.min.json   minimal repro (replay: "
          "repro shrink --schedule %s)" % minimal_path)
    print("  trace.jsonl         obs trace of the minimal replay")
    print("  %s      pytest snippet for tests/corpus/"
          % os.path.basename(test_path))
    return 1


def cmd_explore(args):
    import json
    import os

    from repro.mc import ExplorerConfig, Explorer

    try:
        leader_factory = _seeded_bug_factory(args.buggy)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    out_dir = args.out or "explore-results"
    config = ExplorerConfig(
        peers=args.peers,
        depth=args.depth,
        seed=args.seed,
        step_interval=args.step_interval,
        op_interval=args.op_interval,
        max_schedules=args.max_schedules,
        max_states=args.max_states,
        max_violations=args.max_violations,
        interleave=args.interleave,
        leader_factory=leader_factory,
        dissemination=args.dissemination,
        recorder_dir=out_dir,
        ops_actions=args.ops_actions,
    )

    def progress(result):
        if result.runs and result.runs % 50 == 0:
            print("... %d runs, %d states, %d violations, frontier %d"
                  % (result.runs, result.states_visited,
                     len(result.violations), result.frontier_left),
                  file=sys.stderr)

    result = Explorer(config, progress=progress).run()
    print("explored %d schedules over %d distinct states "
          "(depth %d, %d peers, seed %d)"
          % (result.runs, result.states_visited, args.depth, args.peers,
             args.seed))
    print("pruning:  %d revisits skipped, %d commuting orderings skipped,"
          " %d choice points" % (result.states_pruned, result.por_skipped,
                                 result.choice_points))
    print("resumed:  %d of %d executions from a step-boundary image"
          % (result.resumed, result.runs))
    if result.exhausted:
        print("frontier: exhausted (complete to depth %d)" % args.depth)
    else:
        # Budget stops are loud, never silent: say what tripped and how
        # much of the frontier was left standing.
        print("frontier: STOPPED on %s with %d unexplored prefixes"
              % (result.stopped_reason, result.frontier_left))
    for prefix, error in result.errors:
        print("error on prefix %s: %s" % (list(prefix), error))

    if result.violations:
        os.makedirs(out_dir, exist_ok=True)
        for index, violation in enumerate(result.violations):
            path = violation.schedule.save(
                os.path.join(out_dir, "violation-%d.json" % index)
            )
            print("violation %d (%sconfirmed by replay): %s"
                  % (index, "" if violation.confirmed else "NOT ",
                     ", ".join(sorted({prop for prop, _zxid
                                       in violation.signature}))))
            for action in violation.schedule:
                print("  t=%-6.2f %s %s"
                      % (action.time, action.kind,
                         "" if action.target is None else action.target))
            print("  saved %s" % path)
            if violation.flight_path:
                print("  flight recorder: %s" % violation.flight_path)
            print("  minimize: repro shrink --schedule %s%s"
                  % (path, " --buggy %s" % args.buggy if args.buggy
                     else ""))
    else:
        print("violations: none")

    if args.json:
        with atomic_write(args.json) as f:
            json.dump(result.to_json(), f, indent=2)
            f.write("\n")
        print("summary: %s" % args.json)
    if result.errors:
        return 2
    return 1 if result.violations else 0


def cmd_campaign(args):
    from repro.bench.campaign import (
        render_campaign,
        run_adversarial_campaign,
        write_campaign_report,
    )

    seeds = range(args.first_seed, args.first_seed + args.seeds)
    outcomes = run_adversarial_campaign(
        seeds, ClusterConfig(n_voters=args.servers), steps=args.steps,
        with_health=args.health, profile=args.profile,
        workers=args.workers,
    )
    print(render_campaign(outcomes))
    if args.json:
        # The report is wall-clock- and worker-free on purpose: the
        # parallel-smoke CI job cmp's a 2-worker file against a serial
        # one byte for byte.
        write_campaign_report(outcomes, args.json, params={
            "servers": args.servers,
            "seeds": args.seeds,
            "first_seed": args.first_seed,
            "steps": args.steps,
            "profile": args.profile,
        })
        print("report: %s" % args.json)
    return 0 if all(outcome.passed for outcome in outcomes) else 1


def cmd_ops(args):
    from repro.harness.replay import replay_schedule
    from repro.harness.schedule import ActionSchedule
    from repro.obs.health import render_health

    if args.schedule:
        schedule = _load(ActionSchedule.load, args.schedule)
        what = "schedule %s" % args.schedule
        params = {"schedule": args.schedule}
    else:
        generate = OPS_SCENARIOS[args.scenario]
        schedule = generate(seed=args.seed, n_voters=args.servers)
        what = "scenario %s seed=%d servers=%d" % (
            args.scenario, args.seed, args.servers,
        )
        params = {
            "scenario": args.scenario,
            "seed": args.seed,
            "servers": args.servers,
        }
    if args.save_schedule:
        schedule.save(args.save_schedule)
        print("schedule: %s" % args.save_schedule)
    result = replay_schedule(
        schedule, recorder_dir=args.recorder_dir, health=True,
    )
    print("%s: %d actions fired, %d deliveries, epochs %s"
          % (what, len(result.fired), result.deliveries,
             list(result.epochs)))
    print(render_health(result.health))
    if result.error is not None:
        print("replay error: %s" % result.error)
    if result.violations:
        print("violations: %s" % ", ".join(result.violations))
    if not result.converged:
        print("replica states DIVERGED")
    if result.lost:
        print("committed-txn LOSS: %s" % result.lost[:10])
    print("verdict: %s" % ("OK" if result.passed else "FAIL"))
    if args.json:
        report = result.health.report(params=params)
        report["ops"] = {
            "passed": result.passed,
            "deliveries": result.deliveries,
            "violations": list(result.violations),
            "converged": result.converged,
            "lost": [[peer, list(zxid)] for peer, zxid in result.lost],
            "actions_fired": len(result.fired),
        }
        write_report(report, args.json)
        print()
        print("report: %s" % args.json)
    return 0 if result.passed else 1


def cmd_health(args):
    from repro import obs
    from repro.obs.health import (
        HealthMonitor, render_health, run_health_check,
    )

    if args.trace:
        # Offline: judge an existing JSONL capture.
        events = _load(obs.load_jsonl, args.trace)
        monitor = HealthMonitor(window=args.window).feed(events).finish()
        params = {"trace": args.trace, "window": args.window}
    else:
        try:
            monitor = run_health_check(
                args.scenario,
                ClusterConfig(
                    n_voters=args.servers, seed=args.seed, net=EVAL_LINK,
                ),
                rate=args.rate, duration=args.duration, window=args.window,
            )
        except Exception as exc:
            print("health check failed: %s" % exc, file=sys.stderr)
            return 2
        params = {
            "scenario": args.scenario,
            "servers": args.servers,
            "seed": args.seed,
            "rate": args.rate,
            "duration": args.duration,
            "window": args.window,
        }
    print(render_health(monitor))
    if args.json:
        write_report(monitor.report(params=params), args.json)
        print()
        print("report: %s" % args.json)
    return 0 if monitor.healthy else 1


def cmd_info(_args):
    print(__doc__)
    print("experiments (id, reconstructed artefact, parameters of record):")
    for entry in experiments.EXPERIMENTS.values():
        print("  %-4s %s  [%s]" % (entry.id, entry.artefact, ", ".join(
            "%s=%r" % item for item in entry.params.items()
        )))
    return 0


def build_parser():
    parser = _Parser(
        prog="repro",
        description="Zab (DSN 2011) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser(
        "experiments",
        help="run experiments (default: all) and record their tables: "
             "benchmarks/results/<id>.txt and EXPERIMENTS.md's blocks",
    )
    p_exp.add_argument("ids", nargs="*", metavar="ID",
                       help="experiment ids (e1 e1b ... a3; see `info`)")
    p_exp.add_argument("--root", default=".", metavar="DIR",
                       help="directory holding EXPERIMENTS.md and "
                            "benchmarks/results/ (default: the cwd)")
    p_exp.set_defaults(fn=cmd_experiments)

    p_bench = sub.add_parser("bench", help="one custom throughput run")
    p_bench.add_argument("--servers", type=_positive_int, default=3)
    p_bench.add_argument("--op-size", type=_positive_int, default=1024)
    p_bench.add_argument("--outstanding", type=_positive_int, default=64)
    p_bench.add_argument("--duration", type=_positive_float, default=1.0)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--bandwidth", type=_positive_float, default=200.0,
                         help="link speed in Mbit/s (default 200)")
    p_bench.add_argument("--disk", action="store_true",
                         help="enable the fsync/disk model")
    p_bench.add_argument("--dissemination", default="leader-direct",
                         choices=list(DISSEMINATION_TOPOLOGIES),
                         help="broadcast propagation topology "
                              "(default leader-direct)")
    p_bench.add_argument("--json", default=None, metavar="PATH",
                         help="also write a JSON report here")
    p_bench.set_defaults(fn=cmd_bench)

    p_trace = sub.add_parser(
        "trace",
        help="traced crash/recovery scenario -> JSONL + phase summary",
    )
    p_trace.add_argument("--servers", type=_positive_int, default=5)
    p_trace.add_argument("--seed", type=int, default=3)
    p_trace.add_argument("--rate", type=_positive_float, default=2000.0,
                         help="open-loop offered load in ops/s")
    p_trace.add_argument("--duration", type=_positive_float, default=8.0,
                         help="simulated seconds after stability")
    p_trace.add_argument("-o", "--out", default="trace.jsonl",
                         help="JSONL output path (default trace.jsonl)")
    p_trace.add_argument("--net", action="store_true",
                         help="include wire-level net.* events (large)")
    p_trace.add_argument("--kinds", default=None, metavar="LIST",
                         help="record only these comma-separated kinds "
                              "(exact names or 'net.'-style prefixes), "
                              "e.g. 'leader.,fault.heal'; overrides "
                              "--net")
    p_trace.add_argument("--limit", type=int, default=0, metavar="N",
                         help="keep only the last N events (0 = all)")
    p_trace.add_argument("--sample", type=int, default=1, metavar="RATE",
                         help="deterministically keep ~1-in-RATE "
                              "transactions on the per-message kinds "
                              "(full span fidelity for kept ones)")
    p_trace.add_argument("--perfetto", default=None, metavar="PATH",
                         help="also export a Chrome/Perfetto trace-event "
                              "JSON file for ui.perfetto.dev")
    p_trace.add_argument("--view", default=None, metavar="FILE",
                         help="inspect an existing JSONL trace or "
                              "flight-recorder dump instead of running "
                              "the scenario (honours --kinds/--limit/"
                              "--perfetto)")
    p_trace.set_defaults(fn=cmd_trace)

    p_profile = sub.add_parser(
        "profile",
        help="per-transaction commit-path profile: stage p50/p99, "
             "quorum-wait fractions, straggler/quorum-critical followers",
    )
    p_profile.add_argument("--servers", type=_positive_int, default=5)
    p_profile.add_argument("--seed", type=int, default=3)
    p_profile.add_argument("--rate", type=_positive_float, default=800.0,
                           help="open-loop offered load in ops/s")
    p_profile.add_argument("--duration", type=_positive_float, default=3.0,
                           help="simulated seconds after stability")
    p_profile.add_argument("--trace", default=None,
                           help="profile an existing JSONL trace instead "
                                "of running a scenario")
    p_profile.add_argument("-o", "--out", default="profile.jsonl",
                           help="where to dump the scenario trace "
                                "(default profile.jsonl)")
    p_profile.add_argument("--net", action="store_true",
                           help="record wire-level net.* events too "
                                "(enables per-hop critical paths)")
    p_profile.add_argument("--top", type=int, default=5,
                           help="how many slowest transactions to list")
    p_profile.add_argument("--json", default=None, metavar="PATH",
                           help="also write a JSON report here")
    p_profile.set_defaults(fn=cmd_profile)

    p_fuzz = sub.add_parser(
        "fuzz", help="random crash/recover run + property check"
    )
    p_fuzz.add_argument("--servers", type=_positive_int, default=5)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--steps", type=_positive_int, default=10)
    p_fuzz.set_defaults(fn=cmd_fuzz)

    p_shrink = sub.add_parser(
        "shrink",
        help="replay a failing adversary seed and ddmin-minimize it "
             "into a repro artifact",
    )
    p_shrink.add_argument("--seed", type=int, default=0)
    p_shrink.add_argument("--servers", type=_positive_int, default=3)
    p_shrink.add_argument("--steps", type=_positive_int, default=10)
    p_shrink.add_argument("--step-interval", type=_positive_float,
                          default=0.5)
    p_shrink.add_argument("--schedule", default=None,
                          help="shrink a schedule JSON file instead of "
                               "generating one from --seed")
    p_shrink.add_argument("--buggy", nargs="?", const="quorum_skip",
                          default=None, metavar="NAME",
                          help="inject a seeded bug from "
                               "repro.harness.buggy (bare flag means "
                               "quorum_skip, the BuggyLeader fixture)")
    p_shrink.add_argument("--mode", choices=["kinds", "any"],
                          default="kinds",
                          help="what counts as reproducing: same violated "
                               "property kinds (default) or any failure")
    p_shrink.add_argument("-o", "--out", default=None,
                          help="artifact directory "
                               "(default repro-seed-<N>)")
    p_shrink.set_defaults(fn=cmd_shrink)

    p_explore = sub.add_parser(
        "explore",
        help="bounded exhaustive model checking: every fault schedule "
             "to a depth bound, PO properties checked on each",
    )
    p_explore.add_argument("--peers", type=_positive_int, default=3)
    p_explore.add_argument("--depth", type=_positive_int, default=8,
                           help="fault decision points per execution")
    p_explore.add_argument("--seed", type=int, default=0)
    p_explore.add_argument("--step-interval", type=_positive_float,
                           default=0.25)
    p_explore.add_argument("--op-interval", type=_non_negative_float,
                           default=0.02,
                           help="client load period (0 disables load)")
    p_explore.add_argument("--max-schedules", type=int, default=256,
                           help="execution budget (stop is reported, "
                                "never silent)")
    p_explore.add_argument("--max-states", type=int, default=4096,
                           help="distinct-fingerprint budget")
    p_explore.add_argument("--max-violations", type=int, default=1,
                           help="stop after N distinct violations "
                                "(0 = search to the budget)")
    p_explore.add_argument("--interleave", action="store_true",
                           help="also branch over same-timestamp message "
                                "delivery orderings (implies zero jitter)")
    p_explore.add_argument("--ops-actions", action="store_true",
                           help="add operator snapshot/compaction moves "
                                "to the branching alphabet (widens state "
                                "fingerprints to cover stable storage)")
    p_explore.add_argument("--buggy", default=None, metavar="NAME",
                           help="plant a seeded bug from "
                                "repro.harness.buggy (e.g. quorum_skip)")
    p_explore.add_argument("--dissemination", default="leader-direct",
                           choices=list(DISSEMINATION_TOPOLOGIES),
                           help="broadcast propagation topology for "
                                "every explored execution")
    p_explore.add_argument("--json", default=None, metavar="PATH",
                           help="write the JSON exploration summary here")
    p_explore.add_argument("-o", "--out", default=None,
                           help="directory for violating schedules "
                                "(default explore-results)")
    p_explore.set_defaults(fn=cmd_explore)

    p_campaign = sub.add_parser(
        "campaign",
        help="batch of adversarial runs across seeds + verdict table",
    )
    p_campaign.add_argument("--servers", type=_positive_int, default=3)
    p_campaign.add_argument("--seeds", type=_positive_int, default=10,
                            help="number of seeds (0..N-1)")
    p_campaign.add_argument("--first-seed", type=int, default=0)
    p_campaign.add_argument("--steps", type=_positive_int, default=10)
    p_campaign.add_argument("--health", action="store_true",
                            help="also run each trace through the "
                                 "health monitor (adds a verdict "
                                 "column)")
    p_campaign.add_argument("--profile", default="default",
                            choices=sorted(PROFILES),
                            help="adversary profile: 'ops' adds "
                                 "snapshots, compaction, one-way cuts "
                                 "and clock skew to the fault mix; "
                                 "'partition' only partitions (E4b)")
    p_campaign.add_argument("--workers", type=_positive_int, default=1,
                            metavar="N",
                            help="farm seeds across N processes "
                                 "(reports are byte-identical for "
                                 "every N)")
    p_campaign.add_argument("--json", default=None, metavar="PATH",
                            help="write the machine-readable campaign "
                                 "report (repro-campaign/v1) here")
    p_campaign.set_defaults(fn=cmd_campaign)

    p_ops = sub.add_parser(
        "ops",
        help="run one operational scenario (snapshots under load, "
             "rolling restart, flapping partition, ...) with checker, "
             "health, and loss-audit verdicts",
    )
    ops_source = p_ops.add_mutually_exclusive_group()
    ops_source.add_argument("--scenario", default="rolling-restart",
                            choices=sorted(OPS_SCENARIOS),
                            help="scenario family (default "
                                 "rolling-restart)")
    ops_source.add_argument("--schedule", default=None, metavar="PATH",
                            help="replay this ActionSchedule JSON file "
                                 "instead (its meta sets seed and size)")
    p_ops.add_argument("--servers", type=_positive_int, default=3)
    p_ops.add_argument("--seed", type=int, default=0)
    p_ops.add_argument("--save-schedule", default=None, metavar="PATH",
                       help="also write the ActionSchedule JSON here "
                            "(replayable via `repro ops --schedule` or "
                            "`repro shrink`)")
    p_ops.add_argument("--recorder-dir", default=None, metavar="DIR",
                       help="dump the flight recorder here on failure")
    p_ops.add_argument("--json", default=None, metavar="PATH",
                       help="write the machine-readable report here")
    p_ops.set_defaults(fn=cmd_ops)

    p_health = sub.add_parser(
        "health",
        help="cluster health over virtual time: per-node timelines, "
             "gray-failure detectors, SLO burn (exit 1 if a detector "
             "is still firing)",
    )
    p_health.add_argument("--scenario", default="crash-recovery",
                          choices=["crash-recovery", "slow-fsync"],
                          help="canned scenario to run (default "
                               "crash-recovery)")
    p_health.add_argument("--servers", type=_positive_int, default=5)
    p_health.add_argument("--seed", type=int, default=3)
    p_health.add_argument("--rate", type=_positive_float, default=2000.0,
                          help="open-loop offered load in ops/s")
    p_health.add_argument("--duration", type=_positive_float, default=8.0,
                          help="simulated seconds after stability")
    p_health.add_argument("--window", type=_positive_float, default=0.25,
                          help="detector window in virtual seconds")
    p_health.add_argument("--trace", default=None, metavar="PATH",
                          help="judge an existing JSONL trace instead "
                               "of running a scenario")
    p_health.add_argument("--json", default=None, metavar="PATH",
                          help="write the machine-readable health.json "
                               "here")
    p_health.set_defaults(fn=cmd_health)

    p_info = sub.add_parser("info", help="inventory and usage")
    p_info.set_defaults(fn=cmd_info)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (_UnreadableInput, ConfigError) as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
