"""Proof that the correctness gate can fail.

A check that has never been seen to fail proves nothing, so before every
run (and alone with ``run.py --selfcheck``) each check is handed a
planted fault and must report it, next to a clean control it must pass:

- ``check_all`` gets a hand-built ``Trace`` in which one replica delivers
  two transactions in the opposite order;
- the state-model comparison gets a replica that lost one acknowledged
  key, and the crash-workload check a replica with a stale value;
- the span aggregator gets a scripted clock and a nested call tree whose
  self times are known exactly;
- the ladder rule gets a failing lower step under a passing higher one.

Only the public ``repro`` API is used (no ``repro.harness.buggy``).
"""

from repro import Trace, check_all

import spans
import stats
import workloads


def _trace(second_replica_order):
    trace = Trace()
    first, second = ((1, 1), "t1.1"), ((1, 2), "t1.2")
    for zxid, txn_id in (first, second):
        trace.record_broadcast(1, 1, zxid, txn_id)
    for position, (zxid, txn_id) in enumerate((first, second), start=1):
        trace.record_delivery(1, 1, position, zxid, txn_id, epoch=1)
    order = (first, second) if second_replica_order == "same" \
        else (second, first)
    for position, (zxid, txn_id) in enumerate(order, start=1):
        trace.record_delivery(2, 1, position, zxid, txn_id, epoch=1)
    return trace


def check_property_checker():
    failures = []
    if not check_all(_trace("same")).ok:
        failures.append("check_all rejected a correct trace")
    report = check_all(_trace("reordered"))
    if report.ok:
        failures.append("check_all accepted a reordered delivery")
    return failures


def check_state_model():
    failures = []
    acked = [((1, 1), "a", "1"), ((1, 3), "a", "3"), ((1, 2), "b", "2")]
    good = {"a": "3", "b": "2"}
    problems = []
    workloads.check_against_model({1: dict(good), 2: dict(good)}, acked,
                                  problems)
    workloads.check_acked_present({1: dict(good)}, acked[1:], problems)
    if problems:
        failures.append("state checks rejected a correct state: %s"
                        % problems)
    dropped = []
    workloads.check_against_model({1: dict(good), 2: {"a": "3"}}, acked,
                                  dropped)
    if len(dropped) != 1 or "replica 2" not in dropped[0]:
        failures.append("model check missed a dropped acknowledged key")
    stale = []
    workloads.check_acked_present({1: {"a": "1", "b": "2"}}, acked[1:],
                                  stale)
    if len(stale) != 1:
        failures.append("acknowledged-write check missed a stale value")
    return failures


def scripted_span_totals():
    """Self/inclusive seconds of a known tree under a scripted clock.

    ``outer`` runs 1 s, calls ``inner`` (3 s, of which ``leaf`` takes
    1 s), runs 2 s more: self times outer 3, inner 2, leaf 1.
    """
    ticks = iter([0.0,          # window start
                  0.0,          # outer start
                  1.0,          # inner start
                  2.0, 3.0,     # leaf start, end
                  4.0,          # inner end
                  6.0,          # outer end
                  6.0])         # window end
    tracer = spans.SpanTracer(clock=lambda: next(ticks))
    leaf = tracer.wrap(lambda: None, "leaf", "app")
    inner = tracer.wrap(lambda: leaf(), "inner", "net")
    outer = tracer.wrap(lambda: inner(), "outer", "sim")
    tracer.measure(outer)
    free = {"c_in_s": 0.0, "c_out_s": 0.0, "c_out_rec_s": 0.0}
    return tracer, spans.Corrected(tracer, free)


def check_span_arithmetic():
    tracer, corrected = scripted_span_totals()
    expected = {"sim": 3.0, "net": 2.0, "app": 1.0}
    failures = []
    if corrected.layer_self_s() != expected:
        failures.append("span self times %r, expected %r"
                        % (corrected.layer_self_s(), expected))
    if corrected.name_total_s("inner") != 3.0 or tracer.window_s != 6.0:
        failures.append("span inclusive time or window is wrong")
    return failures


def check_ladder_rule():
    steps = [(20000, 1.0, 0), (40000, 9.0, 0), (60000, 2.0, 0)]
    if stats.max_rate_in_slo(steps, 5.0) != 20000:
        return ["a failing lower ladder step did not cap the result"]
    return []


CHECKS = (
    ("check_all on a reordered delivery", check_property_checker),
    ("state model on a dropped acknowledged key", check_state_model),
    ("span self-time arithmetic", check_span_arithmetic),
    ("ladder SLO rule", check_ladder_rule),
)


def run(verbose=False):
    """Run every self-check; returns the list of failures (empty = good)."""
    failures = []
    for title, check in CHECKS:
        found = check()
        if verbose:
            print("selfcheck %-45s %s" % (title, "FAILED" if found else "ok"))
        failures.extend(found)
    for failure in failures:
        if verbose:
            print("  " + failure)
    return failures
