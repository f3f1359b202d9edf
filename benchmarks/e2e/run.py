#!/usr/bin/env python3
"""The canonical end-to-end + per-layer benchmark of the Zab reproduction.

One workload, one pass (this is what the benchmark driver calls)::

    python3 benchmarks/e2e/run.py --workload saturated-n3 --seed 11 \\
        --seconds 16 --trace 0

repeats the workload's fixed-size repetition until ``--seconds`` of host
time are spent (at least three times), prints every end-to-end metric by
name with its unit, checks the outputs, and ends with one JSON line.
``--trace 1`` instead runs two untraced repetitions for reference and one
under the benchmark-owned span tracer, and prints the per-layer metrics.

Everything (no ``--workload``): each of the four workloads in its own
sequential child interpreter, untraced pass then traced pass, a table of
all metrics, and ``--json OUT`` for ``compare.py``.  ``--smoke`` divides
the sizes by ten; ``--selfcheck`` only proves that the correctness
checks can fail.  See README.md in this directory.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
for path in (SOURCE, HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import boundaries  # noqa: E402
import metrics  # noqa: E402
import perlayer  # noqa: E402
import selfcheck  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 11
MIN_REPS = 3
OUT_DIR = os.path.join(HERE, "out")


class BenchmarkError(Exception):
    """The run cannot produce a result (as opposed to a wrong output)."""


def peak_rss_mb():
    # ru_maxrss is KiB on Linux and bytes on macOS.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def _differences(what, rep, reference):
    """Problems if *rep*'s simulated results differ from *reference*'s."""
    return [
        "%s: %r is %r, expected %r" % (what, part, rep[part], reference[part])
        for part in ("sim", "detail", "work") if rep[part] != reference[part]
    ]


def run_untraced(workload, seed, seconds, smoke):
    """Repeat the workload for *seconds* of host time; summarise."""
    reps = []
    started = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - started < seconds:
        reps.append(workloads.run_rep(workload, seed, smoke=smoke))
    problems = [p for rep in reps for p in rep["problems"]]
    for index, rep in enumerate(reps[1:], start=2):
        problems += _differences(
            "repetition %d is not bit-identical to repetition 1" % index,
            rep, reps[0])
    samples = {
        "setup_s": [rep["host"]["setup_s"] for rep in reps],
        "ops_per_host_s": [
            rep["work"] / rep["host"]["window_s"] for rep in reps
        ],
        "peak_rss_mb": [peak_rss_mb()],
    }
    return {
        "workload": workload, "seed": seed, "smoke": smoke,
        "reps": len(reps),
        "window_host_s": [rep["host"]["window_s"] for rep in reps],
        "end_to_end": {
            name: stats.summary(values) for name, values in samples.items()
        },
        "sim": reps[0]["sim"], "detail": reps[0]["detail"],
        "work": reps[0]["work"],
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "problems": problems,
    }


def run_traced(workload, seed, smoke):
    """Two untraced repetitions for reference, then one under the tracer."""
    reference = None
    for _ in range(2):      # the first one warms the interpreter up
        reference = workloads.run_rep(workload, seed, smoke=smoke)
    baseline = None
    if workload == "saturated-n3":
        # The no-fabric floor: one voter, 1.0 simulated second.
        sizes = workloads.sizes_of(workload, smoke)
        sizes = dict(sizes, keys=sizes["keys"] // 10,
                     window_s=0.1 if smoke else 1.0)
        floor = workloads.run_saturated(
            seed, sizes, n_voters=1, smoke=smoke)
        baseline = {
            "ops_per_host_s": floor["work"] / floor["host"]["window_s"],
            "sim_throughput_ops_s": floor["sim"]["sim_throughput_ops_s"],
        }
        reference["problems"] += floor["problems"]
    calibration = spans.calibrate()
    tracer = spans.SpanTracer(keep_records=True)
    tracer.install(boundaries.BOUNDARIES)
    try:
        traced = workloads.run_rep(workload, seed, smoke=smoke, tracer=tracer)
    finally:
        tracer.uninstall()
    problems = reference["problems"] + traced["problems"] + _differences(
        "tracing perturbed the program", traced, reference)
    untraced_window_s = reference["host"]["window_s"]
    corrected = spans.Corrected(tracer, calibration, untraced_window_s)
    values = perlayer.derive(
        workload, traced, tracer, corrected, untraced_window_s, baseline
    )
    spans_path = os.path.join(OUT_DIR, "%s.spans.jsonl" % workload)
    kept = tracer.write_records(spans_path)
    return {
        "workload": workload, "seed": seed, "smoke": smoke,
        "per_layer": values,
        "calibration": calibration,
        "traced_window_host_s": tracer.window_s,
        "untraced_window_host_s": untraced_window_s,
        "spans_kept": kept,
        "spans_path": os.path.relpath(spans_path, os.getcwd()),
        "attempted": traced["attempted"] + reference["attempted"],
        "failed": traced["failed"] + reference["failed"],
        "problems": problems,
    }


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------

def _fmt(value):
    if value is None:
        return "null"
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def print_untraced(result):
    print("== %s (seed %d, %d repetitions%s) =="
          % (result["workload"], result["seed"], result["reps"],
             ", smoke" if result["smoke"] else ""))
    for name in metrics.END_TO_END_NAMES:
        entry = result["end_to_end"][name]
        print("  %-28s %12s %-6s  [q1 %s, q3 %s, n=%d]  (host)"
              % (name, _fmt(entry["median"]), metrics.UNITS[name],
                 _fmt(entry["q1"]), _fmt(entry["q3"]),
                 len(entry["samples"])))
    for name in metrics.SIM_RESULT_NAMES:
        if name in result["sim"]:
            print("  %-28s %12s %-6s  (sim)"
                  % (name, _fmt(result["sim"][name]), metrics.UNITS[name]))
    for name, value in sorted(result["detail"].items()):
        print("  %-28s %12s" % (name, _fmt(value)))
    _print_verdict(result)


def print_traced(result):
    print("== %s traced pass (seed %d%s) =="
          % (result["workload"], result["seed"],
             ", smoke" if result["smoke"] else ""))
    for name in metrics.PER_LAYER_NAMES:
        print("  %-38s %12s %s"
              % (name, _fmt(result["per_layer"][name]), metrics.UNITS[name]))
    print("  %d span records -> %s"
          % (result["spans_kept"], result["spans_path"]))
    _print_verdict(result)


def _print_verdict(result):
    for problem in result["problems"]:
        print("  PROBLEM: %s" % problem)
    print("  outputs %s; %d ops attempted, %d failed"
          % ("correct" if not result["problems"] else "WRONG",
             result["attempted"], result["failed"]))


def driver_line(result, values):
    """The single JSON line the benchmark driver reads."""
    return json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": metrics.UNITS[name]}
            for name, value in values.items()
        },
    })


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------

def run_one(args):
    """Driver mode: one workload, one pass, one JSON line."""
    if args.trace:
        result = run_traced(args.workload, args.seed, args.smoke)
        print_traced(result)
        values = result["per_layer"]
    else:
        result = run_untraced(
            args.workload, args.seed, args.seconds, args.smoke
        )
        print_untraced(result)
        values = {
            name: result["end_to_end"][name]["median"]
            for name in metrics.END_TO_END_NAMES
        }
    if args.json:
        with open(args.json, "w") as out:
            json.dump(result, out, indent=1, sort_keys=True)
    print(driver_line(result, values))
    return 0 if not result["problems"] else 1


def run_all(args):
    """Every workload, each pass in its own sequential child interpreter."""
    os.makedirs(OUT_DIR, exist_ok=True)
    report = {
        "schema": "bench-e2e/v1", "seed": args.seed, "smoke": args.smoke,
        "run_seconds": args.seconds, "python": platform.python_version(),
        "nproc": os.cpu_count(), "workloads": {},
    }
    status = 0
    for workload, _why in metrics.WORKLOADS:
        merged = {}
        for trace in (0, 1):
            part_path = os.path.join(
                OUT_DIR, "%s.trace%d.json" % (workload, trace))
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--json", part_path,
            ] + (["--smoke"] if args.smoke else [])
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            # The child's last line is the driver's JSON; show the rest.
            sys.stdout.write(
                "\n".join(child.stdout.rstrip("\n").split("\n")[:-1]) + "\n")
            if child.returncode not in (0, 1) or not os.path.exists(part_path):
                raise BenchmarkError(
                    "%s (trace %d) exited with code %d"
                    % (workload, trace, child.returncode))
            status = max(status, child.returncode)
            with open(part_path) as part:
                merged["traced" if trace else "untraced"] = json.load(part)
            os.remove(part_path)
        report["workloads"][workload] = merged
    if args.json:
        with open(args.json, "w") as out:
            json.dump(report, out, indent=1, sort_keys=True)
        print("wrote %s" % args.json)
    print("all outputs correct" if status == 0 else "SOME OUTPUTS WRONG")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[name for name, _ in metrics.WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="host seconds one untraced pass measures for "
                             "(default %d, 1 with --smoke)" % metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="sizes divided by ten; results marked smoke")
    parser.add_argument("--json", metavar="OUT",
                        help="also write the full result as JSON")
    parser.add_argument("--selfcheck", action="store_true",
                        help="only prove that each check fails on its "
                             "planted fault")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1 if args.smoke else metrics.RUN_SECONDS
    # A check that cannot fail proves nothing: show that each one can,
    # before trusting any of them (children of run_all repeat it).
    failures = selfcheck.run(verbose=args.selfcheck)
    if failures:
        raise BenchmarkError("selfcheck failed: %s" % "; ".join(failures))
    if args.selfcheck:
        return 0
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
