"""Python frames per committed op on the PROPOSE/ACK/COMMIT path.

A machine-independent cost gate (ROADMAP aim 1: "Python calls per
committed txn, gated tightly"): host seconds vary with the box, the
number of Python function calls the interpreter makes to commit one
transaction does not.  The run is the shape of the ``saturated-n3``
benchmark workload at a small size — 3 voters, the benchmark's injected
network and disk model, 1,000 preloaded keys, a 64-outstanding closed
loop of ~1 KiB puts through ``leader.propose_op`` — and after 0.05
simulated seconds of warm-up it counts ``sys.setprofile`` ``"call"``
events (Python frames only; C calls are ``"c_call"``) over 0.3 simulated
seconds and divides by the commits in that span.

Measured with this file's driver, identical on CPython 3.10, 3.11 and
3.12:

    PR 12 (parent of the hot-path PR)   355.0 frames per committed op
    hot-path PR                         197.9

The count is deterministic, so the gate is tight: 10 % head-room over
the recorded value, and never more than two thirds of the parent's.  A
change that trips it either put per-message work back on the path (fix
it) or added protocol work on purpose (re-measure and re-record).

The same ruler holds the always-on flight recorder to its budget.  A
wall-clock "recorder within 5 % of tracing off" reading flips sign from
round to round on any shared box; in frames it is exact: 197.907 armed
(the default control-plane posture) vs 197.895 with ``recorder=False``
— the difference is the ``snapshot.save`` emits — and 406.4 with
``FlightRecorder(capture="all")``, so a recorder that starts building
per-message events trips the half-frame gate with a 2x signal.
"""

import functools
import sys

from repro import Cluster, ClusterConfig
from repro.net import NetworkConfig

PARENT_FRAMES_PER_OP = 355.0
FRAMES_PER_OP = 197.9

KEYS = 1000
OUTSTANDING = 64
VALUE = "x" * 1010
WARMUP_S = 0.05
WINDOW_S = 0.3


def _put(cluster, leader, state):
    """One closed-loop client: submit, and resubmit from the commit."""
    index = state["issued"]
    state["issued"] = index + 1

    def on_commit(_result, _zxid):
        state["commits"] += 1
        if cluster.sim.now < state["stop_at"]:
            _put(cluster, leader, state)

    leader.propose_op(
        ("put", "k%05d" % (index * 7919 % KEYS), VALUE), callback=on_commit
    )


@functools.lru_cache(maxsize=None)   # deterministic: measure each once
def measure_frames_per_op(recorder=True):
    cluster = Cluster(ClusterConfig(
        n_voters=3, seed=11, disk="model", group_commit=True,
        recorder=recorder,
        net=NetworkConfig(bandwidth_bps=25e6, latency=0.0002,
                          jitter=0.00005),
    )).start()
    leader = cluster.run_until_stable()
    preloaded = []
    for index in range(KEYS):
        leader.propose_op(("put", "k%05d" % index, "init"),
                          callback=lambda _r, zxid: preloaded.append(zxid))
    assert cluster.run_until(lambda: len(preloaded) == KEYS, timeout=60.0)

    state = {"issued": 0, "commits": 0,
             "stop_at": cluster.sim.now + WARMUP_S + WINDOW_S}
    for _ in range(OUTSTANDING):
        _put(cluster, leader, state)
    cluster.run(WARMUP_S)

    frames = [0]

    def count(_frame, event, _arg):
        if event == "call":
            frames[0] += 1

    commits_before = state["commits"]
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        cluster.run(WINDOW_S)
    finally:
        sys.setprofile(previous)
    commits = state["commits"] - commits_before
    assert commits > 1000, commits
    return frames[0] / commits


def test_frames_per_committed_op_within_budget():
    frames_per_op = measure_frames_per_op()
    assert frames_per_op <= FRAMES_PER_OP * 1.10, frames_per_op
    assert frames_per_op <= PARENT_FRAMES_PER_OP * 0.67, frames_per_op


def test_flight_recorder_adds_under_half_a_frame_per_op():
    armed = measure_frames_per_op()
    bare = measure_frames_per_op(recorder=False)
    assert 0.0 <= armed - bare <= 0.5, (armed, bare)


if __name__ == "__main__":
    print("%.1f frames per committed op" % measure_frames_per_op())
