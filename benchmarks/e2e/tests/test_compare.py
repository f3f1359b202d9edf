import copy

import pytest

import compare
import metrics


def _entry(median, spread=0.0):
    low, high = median * (1 - spread / 2), median * (1 + spread / 2)
    return {"median": median, "q1": low, "q3": high,
            "samples": [low, low, median, high, high]}


def _result(seed=11, smoke=False):
    workloads = {}
    for name, _why in metrics.WORKLOADS:
        workloads[name] = {"untraced": {
            "end_to_end": {
                "setup_s": _entry(1.0), "ops_per_host_s": _entry(1000.0),
                "peak_rss_mb": _entry(90.0),
            },
            "sim": {
                metric: 1.0 for metric, _u, _b, _bound, applies, _d
                in metrics.SIM_RESULTS if name in applies
            },
        }}
        if "failed_op_share" in workloads[name]["untraced"]["sim"]:
            workloads[name]["untraced"]["sim"]["failed_op_share"] = 0.0
    return {"seed": seed, "smoke": smoke, "workloads": workloads}


def _verdicts(rows, workload, metric):
    return [row[-1] for row in rows
            if row[0] == workload and row[1] == metric]


def test_identical_results_are_all_same():
    rows = compare.compare(_result(), _result())
    assert {row[-1] for row in rows} == {"same"}
    assert len(rows) == 4 * 3 + 4 + 5 + 5


def test_worse_better_and_unresolved():
    base, candidate = _result(), _result()
    end = candidate["workloads"]["saturated-n3"]["untraced"]["end_to_end"]
    end["ops_per_host_s"] = _entry(700.0)        # -30% on a higher-is-better
    end["peak_rss_mb"] = _entry(60.0)            # -33% on a lower-is-better
    end["setup_s"] = _entry(1.1, spread=0.6)     # noise wider than the bound
    rows = compare.compare(base, candidate)
    assert _verdicts(rows, "saturated-n3", "ops_per_host_s") == ["worse"]
    assert _verdicts(rows, "saturated-n3", "peak_rss_mb") == ["better"]
    assert _verdicts(rows, "saturated-n3", "setup_s") == ["unresolved"]
    ratio = [row[5] for row in rows
             if row[:2] == ("saturated-n3", "ops_per_host_s")][0]
    assert ratio == pytest.approx(0.7)
    assert "0.7000 of A" in compare.render(rows)


def test_any_simulated_change_beyond_its_bound_is_a_verdict():
    base, candidate = _result(), _result()
    sim = candidate["workloads"]["failover-n5"]["untraced"]["sim"]
    sim["sim_outage_s"] = 1.01
    sim["failed_op_share"] = 0.002
    rows = compare.compare(base, candidate)
    assert _verdicts(rows, "failover-n5", "sim_outage_s") == ["worse"]
    assert _verdicts(rows, "failover-n5", "failed_op_share") == ["worse"]
    ladder = copy.deepcopy(base)
    ladder["workloads"]["mixed-n5obs2"]["untraced"]["sim"][
        "sim_max_rate_in_slo_ops_s"] = 0.5
    rows = compare.compare(base, ladder)
    assert _verdicts(rows, "mixed-n5obs2",
                     "sim_max_rate_in_slo_ops_s") == ["worse"]


def test_refuses_smoke_against_full_and_different_seeds():
    with pytest.raises(compare.IncomparableError):
        compare.compare(_result(smoke=True), _result())
    with pytest.raises(compare.IncomparableError):
        compare.compare(_result(seed=11), _result(seed=12))
