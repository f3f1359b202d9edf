import types

import metrics
import perlayer
import selfcheck
import spans


def test_self_time_is_duration_minus_children():
    tracer, corrected = selfcheck.scripted_span_totals()
    assert corrected.layer_self_s() == {"sim": 3.0, "net": 2.0, "app": 1.0}
    assert corrected.name_total_s("outer") == 6.0
    assert corrected.name_total_s("inner") == 3.0
    assert corrected.name_calls("leaf") == 1
    assert tracer.window_s == 6.0


def test_overhead_correction_subtracts_calls_and_children():
    tracer, _ = selfcheck.scripted_span_totals()
    costs = {"c_in_s": 0.25, "c_out_s": 0.5, "c_out_rec_s": 0.5}
    corrected = spans.Corrected(tracer, costs)
    # outer: 3 - (1 call * .25 + 1 child * .5); leaf has no children.
    assert corrected.layer_self_s() == {"sim": 2.25, "net": 1.25,
                                        "app": 0.75}
    assert corrected.overhead_s == 1.75
    assert corrected.corrected_window_s == 6.0 - 1.75
    # With the untraced window known the costs are scaled to explain it.
    scaled = spans.Corrected(tracer, costs, untraced_window_s=2.5)
    assert scaled.scale == 2.0
    assert scaled.corrected_window_s == 2.5


def test_spans_outside_a_window_are_not_recorded():
    tracer = spans.SpanTracer()
    wrapped = tracer.wrap(lambda: 7, "quiet", "app")
    assert wrapped() == 7
    assert tracer.acc[("quiet", "app")][spans.CALLS] == 0


def test_a_continuation_fires_in_the_layer_that_registered_it():
    tracer = spans.SpanTracer()
    fired = []

    class Log:
        def append(self, zxid, callback=None):
            self.callback = callback

    log = Log()
    boundary_wrapper = tracer.wrap(
        Log.append, "storage.append", "storage",
        callback=("callback", 2, "zab.on_durable", None),
    )
    leader = tracer.wrap(
        lambda: boundary_wrapper(log, (1, 1), callback=lambda: fired.append(1)),
        "zab.leader.on_message", "zab.leader",
    )
    tracer.measure(leader)
    tracer.measure(log.callback)
    assert fired == [1]
    assert tracer.acc[("zab.on_durable", "zab.leader")][spans.CALLS] == 1


def test_records_share_the_request_id_found_in_a_child():
    tracer = spans.SpanTracer(keep_records=True)
    zxid = types.SimpleNamespace(as_tuple=lambda: (3, 9))
    child = tracer.wrap(lambda self, z: None, "child", "checker")
    parent = tracer.wrap(lambda: child(None, zxid), "parent", "zab.leader")
    tracer.measure(parent)
    by_name = {record[2]: record for record in tracer.records}
    assert by_name["child"][8] == (3, 9)
    assert by_name["parent"][8] == (3, 9)
    assert by_name["child"][1] == by_name["parent"][0]


def test_a_missing_boundary_is_counted_and_never_raises():
    tracer = spans.SpanTracer()
    gone = [
        spans.Boundary("repro.no_such_module", "X", "y", "a.gone", "sim"),
        spans.Boundary("repro.sim.kernel", "NoSuchClass", "y", "b.gone",
                       "sim"),
        spans.Boundary("repro.sim.kernel", "Simulator", "no_such_method",
                       "c.gone", "sim"),
    ]
    tracer.install(gone)
    tracer.uninstall()
    assert tracer.missing == ["a.gone", "b.gone", "c.gone"]


def test_install_and_uninstall_restore_the_original_attribute():
    from repro.sim.kernel import Simulator

    original = Simulator.__dict__["schedule"]
    tracer = spans.SpanTracer()
    tracer.install([spans.Boundary(
        "repro.sim.kernel", "Simulator", "schedule", "sim.schedule", "sim")])
    assert Simulator.__dict__["schedule"] is not original
    tracer.uninstall()
    assert Simulator.__dict__["schedule"] is original


def _empty_rep():
    return {"work": 100, "sim": {}, "detail": {},
            "host": {"check_s": 0.5}}


def test_metrics_of_a_missing_boundary_read_null():
    tracer = spans.SpanTracer()
    tracer.missing = ["storage.append", "net.send"]
    free = {"c_in_s": 0.0, "c_out_s": 0.0, "c_out_rec_s": 0.0}
    corrected = spans.Corrected(tracer, free)
    out = perlayer.derive("saturated-n3", _empty_rep(), tracer, corrected,
                          1.0)
    assert set(out) == set(metrics.PER_LAYER_NAMES)
    for name in ("storage.appends_per_op", "storage.records_per_fsync",
                 "storage.append_to_durable_sim_ms_p99", "net.msgs_per_op",
                 "net.bytes_per_op", "net.dropped_share"):
        assert out[name] is None, name
    assert out["trace.missing_boundaries"] == 2
    # A layer that merely did no work reads 0, not null.
    assert out["storage.fsyncs_per_op"] == 0.0
    assert out["app.reads_per_op"] == 0.0
    assert out["checker.check_all_host_s"] == 0.5
