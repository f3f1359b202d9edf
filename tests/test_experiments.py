"""The gate on the paper's evaluation: every table's shape, and its bytes.

Tier-1 (milliseconds, no simulation): the registry, the committed
``benchmarks/results/*.txt``, EXPERIMENTS.md's table blocks, DESIGN.md's
index and the shape checks below name the same sixteen ids, and every
published block is byte-equal to its results file.

``slow`` tier (minutes; the ``deep-tests`` CI job): each experiment runs
once at its parameters of record, must show the shape the paper argues
for, and must render byte-equal to its committed table.  The simulator
is bit-deterministic, so any difference is a real change; one made on
purpose is re-recorded with ``python -m repro experiments``.
"""

import os
import re

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.cli import table_blocks

ROOT = os.path.join(os.path.dirname(__file__), "..")
RESULTS = os.path.join(ROOT, "benchmarks", "results")
PO_PROPERTIES = {
    "local_primary_order", "global_primary_order", "primary_integrity",
}


def _read(*parts):
    with open(os.path.join(ROOT, *parts), encoding="utf-8") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# Paper shapes, keyed by experiment id: shape(rows, extras) asserts
# ---------------------------------------------------------------------------

def shape_e1(rows, extras):
    """Throughput decays as B/(n-1): the leader's egress link is the
    bottleneck, so each extra pair of followers costs bandwidth."""
    throughputs = [row["throughput"] for row in rows]
    assert all(a > b for a, b in zip(throughputs, throughputs[1:]))
    # Close to the analytic net bound B/((n-1) * op_size) at every point.
    for row in rows:
        assert 0.7 <= row["efficiency"] <= 1.05, row
    # n=3 beats n=13 by roughly 6x ((13-1)/(3-1) as many copies).
    assert 4.0 <= throughputs[0] / throughputs[-1] <= 8.0


def shape_e1b(rows, extras):
    """E1's decay is a leader-NIC artefact: leader egress per txn grows
    as (n-1) under leader-direct and stays flat when followers relay."""
    egress = {
        (row["topology"], row["servers"]): row["leader_egress_bytes_per_txn"]
        for row in rows
    }
    sizes = sorted({row["servers"] for row in rows})
    smallest = sizes[0]
    per_copy = egress["leader-direct", smallest] / (smallest - 1)
    for n in sizes:
        # One copy of each proposal per follower.
        assert egress["leader-direct", n] / (n - 1) == pytest.approx(
            per_copy, rel=0.02
        )
        # One relay copy whatever n; only ACK/COMMIT bookkeeping grows.
        for topology in ("chain", "ring"):
            flat = egress[topology, smallest]
            assert flat <= egress[topology, n] <= flat * 1.15, (topology, n)


def shape_e2(rows, extras):
    """Latency is flat while underloaded, then knees at saturation, where
    achieved throughput plateaus."""
    # Below the knee: throughput tracks offered load.
    for row in rows[:3]:
        assert row["throughput"] >= row["offered_rate"] * 0.9, row
    # Above the knee: throughput saturates well below the offered rate.
    assert rows[-1]["throughput"] < rows[-1]["offered_rate"] * 0.9
    # Latency at overload is at least 5x the unloaded latency ...
    assert rows[-1]["p50_ms"] > rows[0]["p50_ms"] * 5
    # ... which stays in the low single-digit ms on this network.
    assert rows[0]["p50_ms"] < 5.0


def shape_e3(rows, extras):
    """A follower crash barely dents throughput; a leader crash opens a
    visible gap (election + sync) before full recovery."""
    phases = {row["phase"]: row["ops_per_s"] for row in rows}
    baseline = phases["baseline"]
    assert baseline > 0
    assert phases["follower down"] > baseline * 0.85
    # Leader crash: a real dip in the election window ...
    leader_events = [
        time for time, text in extras["events"] if "leader" in text
    ]
    crash_window = [
        rate for t, rate in extras["series"]
        if any(abs(t - time) < 0.8 for time in leader_events)
    ]
    assert min(crash_window) < baseline * 0.3, crash_window
    # ... and full recovery afterwards.
    assert phases["recovered"] > baseline * 0.85
    # The whole faulty run still satisfies every broadcast property.
    assert extras["report"].ok, extras["report"].violations[:5]
    assert extras["series"]


def shape_e4(rows, extras):
    """The PO checker convicts the paper's Paxos run (total order and
    agreement hold: Paxos *is* an atomic broadcast) and acquits Zab
    under the identical crash/partition pattern."""
    paxos_row, zab_row = rows
    assert set(paxos_row["violations"]) == PO_PROPERTIES
    assert zab_row["violations"] == []
    # Paxos materialised the dependent delta without its dependency:
    # A == 2 with "put A 1" never delivered.
    for state in paxos_row["final_state"].values():
        assert state.get("A") == 2
    # Zab truncated the old primary's uncommitted A-chain; only C survives.
    for state in zab_row["final_state"].values():
        assert "A" not in state
        assert state.get("C") == 100
    assert not extras["paxos_report"].ok
    assert extras["zab_report"].ok


def shape_e4b(rows, extras):
    """Unscripted: Zab passes every seed and re-stabilises after each,
    pipelined Paxos violates primary-order properties on a visible
    fraction of them."""
    by_system = {row["system"]: row for row in rows}
    assert by_system["zab"]["violating"] == 0, by_system["zab"]
    assert by_system["zab"]["stuck"] == [], by_system["zab"]
    paxos = by_system["paxos (8 outstanding)"]
    assert paxos["violating"] >= 2, paxos
    assert set(paxos["properties"]) <= PO_PROPERTIES, paxos


def shape_e5(rows, extras):
    """Throughput scales with the window while RTT-bound, then plateaus
    at the leader's NIC; a window of 1 is far below the plateau."""
    by_window = {row["outstanding"]: row["throughput"] for row in rows}
    windows = sorted(by_window)
    for a, b in zip(windows, windows[1:]):
        assert by_window[b] >= by_window[a] * 0.9, (a, b, by_window)
    # Deep pipelining beats one-at-a-time by a wide margin (capped by
    # where the NIC saturates: ~2.8x at this B/RTT).
    assert by_window[64] > by_window[1] * 2.5
    # Early scaling is near-linear: 2 outstanding is about 2x of 1.
    assert by_window[2] > by_window[1] * 1.8
    # The plateau is the NIC bound, not the RTT: windows 8..64 are flat.
    assert by_window[64] < by_window[8] * 1.2


def shape_e6(rows, extras):
    """DIFF is linear in lag, SNAP flat (it ships live state), TRUNC
    free; SNAP wins beyond the threshold."""
    by_lag = {row["lag_txns"]: row for row in rows}
    assert by_lag[10]["mode"] == "diff"
    assert by_lag[10]["bytes_shipped"] == by_lag[10]["diff_bytes_would_be"]
    assert by_lag[200]["mode"] == "diff"
    assert by_lag[20000]["mode"] == "snap"
    assert (by_lag[20000]["bytes_shipped"]
            < by_lag[20000]["diff_bytes_would_be"] / 10)
    assert by_lag[2000]["bytes_shipped"] == by_lag[20000]["bytes_shipped"]
    # The ahead-of-commit follower is truncated, zero bytes shipped.
    assert by_lag[-5]["mode"] == "trunc"
    assert by_lag[-5]["bytes_shipped"] == 0


def shape_e6b(rows, extras):
    """History >> live state: the snapshot resync ships far less and
    finishes sooner than replaying the diff; both complete promptly."""
    by_mode = {row["mode"]: row for row in rows}
    assert (by_mode["SNAP"]["sync_megabytes"]
            < by_mode["DIFF"]["sync_megabytes"] / 5)
    assert by_mode["SNAP"]["resync_seconds"] < by_mode["DIFF"]["resync_seconds"]
    assert by_mode["DIFF"]["resync_seconds"] < 5.0


def shape_e7(rows, extras):
    """Network-only is the ceiling: the leader's NIC is the bottleneck,
    so no log device commits faster than the no-disk run would at the
    same leader bytes per txn.  With cumulative ACK and COMMIT a flush
    of several records costs one ACK and one COMMIT, so a dedicated
    device pays fewer bytes per txn than the no-disk run (which commits
    one record at a time) and group commit keeps it near that ceiling;
    a contended or slow device falls behind."""
    by_config = {row["config"]: row for row in rows}
    net_only = by_config["network only (no disk)"]
    dedicated = by_config["dedicated log device"]
    per_txn = "leader_egress_bytes_per_txn"
    ceiling = net_only["throughput"] * net_only[per_txn] / dedicated[per_txn]
    assert dedicated["throughput"] <= ceiling * 1.05
    assert dedicated["throughput"] >= net_only["throughput"] * 0.95
    assert dedicated[per_txn] < net_only[per_txn]
    throughput = {config: row["throughput"]
                  for config, row in by_config.items()}
    assert (throughput["shared device (contended)"]
            <= throughput["dedicated log device"] * 1.02)
    # A 10x slower fsync costs real throughput even with group commit.
    assert (throughput["dedicated, slow fsync"]
            < throughput["dedicated log device"] * 0.9)


def shape_e8(rows, extras):
    """The median grows with the ensemble; tails stay bounded."""
    medians = [row["p50_ms"] for row in rows]
    assert all(a <= b * 1.1 for a, b in zip(medians, medians[1:])), medians
    for row in rows:
        assert row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]
        assert row["p99_ms"] < row["p50_ms"] * 10


def shape_e9(rows, extras):
    """With group commit the disk barely matters; without it throughput
    collapses to about 1/fsync_latency."""
    def tput(fsync_ms, on):
        return next(
            row["throughput"] for row in rows
            if row["fsync_ms"] == fsync_ms and row["group_commit"] is on
        )

    # With coalescing, a 4x slower fsync costs little.
    assert tput(2.0, True) > tput(0.5, True) * 0.6
    # Without coalescing, throughput is pinned near the 1/fsync bound.
    assert tput(0.5, False) < 1 / 0.0005 * 1.4
    assert tput(2.0, False) < 1 / 0.002 * 1.4
    # Group commit is worth an order of magnitude at 2ms fsync.
    assert tput(2.0, True) > tput(2.0, False) * 5


def shape_e10(rows, extras):
    """Pipelined Zab ~ pipelined Paxos >> either at one outstanding; the
    only PO-safe high-throughput point is Zab's."""
    tput = {row["system"]: row["throughput"] for row in rows}
    safe = {row["system"]: row["primary_order_safe"] for row in rows}
    assert tput["zab, 64 outstanding"] > tput["zab, 1 outstanding"] * 3
    assert tput["paxos, 64 outstanding"] > tput["paxos, 1 outstanding"] * 2.5
    # At equal window the two are in the same ballpark (both are one
    # round trip + commit notification in steady state).
    ratio = tput["zab, 64 outstanding"] / tput["paxos, 64 outstanding"]
    assert 0.5 < ratio < 2.5, ratio
    assert safe["zab, 64 outstanding"]
    assert not safe["paxos, 64 outstanding"]
    assert tput["zab, 64 outstanding"] > tput["paxos, 1 outstanding"] * 3


def shape_a1(rows, extras):
    """The recovery gap grows roughly linearly in the tick, with a
    positive intercept, within a small multiple of the detection budget."""
    gaps = [row["mean_gap_ms"] for row in rows]
    assert all(a < b for a, b in zip(gaps, gaps[1:])), gaps
    for row in rows:
        # Never faster than the detection budget ...
        assert row["mean_gap_ms"] >= row["detection_budget_ms"] * 0.8
        # ... and within a small multiple of it (election + sync).
        assert row["max_gap_ms"] < row["detection_budget_ms"] * 6 + 600
    # A 10x larger tick costs roughly (not exactly) 10x the gap.
    assert gaps[-1] > gaps[0] * 3


def shape_a2(rows, extras):
    """Voter count, not replica count, prices writes."""
    p50 = {row["config"]: row["p50_ms"] for row in rows}
    # 7 replicas as 3v+4o stay close to the plain 3-voter ensemble ...
    assert p50["3 voters + 4 observers"] < p50["3 voters"] * 1.6
    # ... and beat the 7-voter ensemble of the same replica count.
    assert p50["3 voters + 4 observers"] < p50["7 voters"]
    assert p50["3 voters"] <= p50["5 voters"] <= p50["7 voters"]


def shape_a3(rows, extras):
    """ops/s falls with op size while goodput stays near the NIC budget,
    improving as per-message headers amortise."""
    tputs = [row["throughput"] for row in rows]
    assert all(a > b for a, b in zip(tputs, tputs[1:]))
    efficiencies = [row["wire_efficiency"] for row in rows]
    assert all(a <= b * 1.05 for a, b in zip(efficiencies, efficiencies[1:]))
    # Headers dominate tiny ops; the top end can exceed 1.0 by a few
    # percent from in-flight proposals straddling the window boundary.
    assert all(0.25 <= e <= 1.15 for e in efficiencies), efficiencies


SHAPES = {
    "e1": shape_e1, "e1b": shape_e1b, "e2": shape_e2, "e3": shape_e3,
    "e4": shape_e4, "e4b": shape_e4b, "e5": shape_e5, "e6": shape_e6,
    "e6b": shape_e6b, "e7": shape_e7, "e8": shape_e8, "e9": shape_e9,
    "e10": shape_e10, "a1": shape_a1, "a2": shape_a2, "a3": shape_a3,
}


@pytest.mark.slow
@pytest.mark.parametrize("eid", list(SHAPES))
def test_experiment_has_paper_shape_and_recorded_table(eid):
    rows, table, extras = EXPERIMENTS[eid].run()
    SHAPES[eid](rows, extras)
    assert table + "\n" == _read(RESULTS, eid + ".txt")


# ---------------------------------------------------------------------------
# Tier-1: one list of ids, one copy of each table
# ---------------------------------------------------------------------------

def test_registry_results_documents_and_shapes_name_the_same_ids():
    ids = list(EXPERIMENTS)
    assert ids == ("e1 e1b e2 e3 e4 e4b e5 e6 e6b e7 e8 e9 e10 "
                   "a1 a2 a3").split()
    assert sorted(os.listdir(RESULTS)) == sorted(eid + ".txt" for eid in ids)
    assert [eid for eid, _table in table_blocks(_read("EXPERIMENTS.md"))] == ids
    assert list(SHAPES) == ids
    # DESIGN.md's index: one row per id, naming the registry's artefact.
    index = re.findall(r"^\| ([EA]\d+b?) \| (.*?) \|", _read("DESIGN.md"),
                       re.MULTILINE)
    assert index == [
        (entry.id.capitalize(), entry.artefact)
        for entry in EXPERIMENTS.values()
    ]


def test_published_tables_equal_their_results_files():
    for eid, table in table_blocks(_read("EXPERIMENTS.md")):
        assert table + "\n" == _read(RESULTS, eid + ".txt"), eid
        # The registry's title heads the recorded table.
        entry = EXPERIMENTS[eid]
        assert table.startswith(entry.title.format(**entry.params) + "\n")
