"""Per-transaction observability under cumulative ACK and COMMIT.

With a disk model and concurrent load a follower's flush holds several
records and answers them with one ACK, and the leader sends one COMMIT
per commit advance.  Every per-txn view must still be complete and
ordered: spans (``obs.spans``), the Chrome commit-path slices
(``obs.export``), the causality critical path (``obs.causality``), the
profile's stage breakdown, and the schema the validator enforces.
"""

import importlib.util
import io
import os

import pytest

from repro.bench.runner import EVAL_LINK, run_broadcast_bench
from repro.harness import Cluster, ClusterConfig
from repro.zab import leader as leader_module
from repro.obs.causality import CausalityGraph
from repro.obs.export import to_chrome_trace
from repro.obs.spans import profile_trace
from repro.obs.trace import Tracer, dump_jsonl

TOPOLOGIES = ("leader-direct", "chain", "tree", "ring")


def _validator():
    path = os.path.join(
        os.path.dirname(__file__), "..", "scripts", "validate_trace.py")
    spec = importlib.util.spec_from_file_location("validate_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _batched_run(topology, ops=60, seed=5):
    tracer = Tracer()
    cluster = Cluster(ClusterConfig(
        n_voters=5, seed=seed, tracer=tracer, recorder=False,
        dissemination=topology, disk="model",
    )).start()
    cluster.run_until_stable(timeout=30.0)
    done = []
    for k in range(ops):
        cluster.submit(("put", "k%d" % k, k),
                       callback=lambda _r, zxid: done.append(zxid))
    assert cluster.run_until(lambda: len(done) == ops, timeout=10.0)
    cluster.run(0.2)
    return cluster, tracer.events


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_one_ack_covers_a_flush_and_every_txn_keeps_its_span(topology):
    cluster, events = _batched_run(topology)
    acks = [e for e in events if e.kind == "follower.ack"]
    assert any(
        tuple(e.fields["first"]) < tuple(e.fields["zxid"])
        for e in events if e.kind == "leader.ack" and e.fields["src"] != e.node
    ), "no follower flush held more than one record"

    graph = CausalityGraph.from_events(events)
    committed = [span for span in graph.spans if span.committed]
    assert len(committed) == 60
    quorum = cluster.config.quorum
    for span in committed:
        assert quorum.contains_quorum(span.acks), span
        assert span.quorum_src in span.acks
        assert span.propose_t <= span.leader_durable_t
        if span.leader_durable_t > span.commit_t:
            # A follower's flush holds a whole frame, so followers alone
            # can make a quorum before the leader's own fsync lands:
            # legal, and only with the leader's ACK left out.
            early = [peer for peer, t in span.acks.items()
                     if peer != span.leader and t <= span.quorum_t]
            assert quorum.contains_quorum(early), span
        assert span.propose_t <= span.quorum_t <= span.commit_t
        assert span.acks[span.quorum_src] <= span.quorum_t
        followers = set(cluster.config.voters) - {span.leader}
        assert followers <= set(span.delivers), span
        for peer in followers:
            assert span.delivers[peer] >= span.quorum_t
        path = graph.critical_path(span.zxid)
        if path is not None:
            labels = [label for _t, _node, label in path]
            assert labels[0] == "propose" and labels[-1] == "quorum"
            assert "follower.durable+ack" in labels
            assert "ack.deliver" in labels
            times = [t for t, _node, _label in path]
            assert times == sorted(times)

    slices = [r for r in to_chrome_trace(events)["traceEvents"]
              if r["ph"] == "X"]
    assert sum(r["name"].startswith("txn ") for r in slices) == 60
    assert sum(r["name"] == "quorum-wait" for r in slices) == 60

    profile = profile_trace(events)
    assert profile["committed"] == 60
    assert profile["stages"]["quorum_wait"]["count"] == 60

    handle = io.StringIO()
    dump_jsonl(events, handle)
    handle.seek(0)
    counts = _validator().validate(handle)
    assert counts["follower.ack"] == len(acks)


@pytest.mark.parametrize("topology", ["leader-direct", "chain"])
def test_critical_paths_find_framed_proposes_in_a_saturated_trace(
        topology):
    # A saturated leader sends each follower one frame per event: the
    # COMMIT and the PROPOSEs its commits released.  The critical path
    # finds a PROPOSE inside the frame that carried it, directly or
    # along a relay chain.
    tracer = Tracer()
    result = run_broadcast_bench(
        ClusterConfig(seed=5, tracer=tracer, recorder=False,
                      disk="model", net=EVAL_LINK, dissemination=topology),
        outstanding=64, duration=0.05, warmup=0.02,
    )
    events = tracer.events
    assert result.committed > 100
    assert not any(e.kind == "net.send" and e.fields["type"] == "Propose"
                   for e in events), "every PROPOSE should ride a frame"
    graph = CausalityGraph.from_events(events)
    paths = [graph.critical_path(span.zxid)
             for span in graph.spans if span.committed]
    paths = [path for path in paths if path is not None]
    assert len(paths) > 100
    for path in paths:
        labels = [label for _t, _node, label in path]
        assert labels[:2] == ["propose", "propose.send"]
        assert "propose.deliver" in labels
        times = [t for t, _node, _label in path]
        assert times == sorted(times)


def test_late_ack_lag_is_taken_from_the_oldest_covered_proposal():
    _cluster, events = _batched_run("leader-direct")
    proposed = {tuple(e.fields["zxid"]): e.t
                for e in events if e.kind == "leader.propose"}
    late = 0
    for event in events:
        if event.kind != "leader.ack":
            continue
        first = tuple(event.fields["first"])
        assert event.fields["lag"] == pytest.approx(
            event.t - proposed[first])
        late += bool(event.fields["late"])
    assert late, "a 5-voter run always has straggler ACKs"


def test_every_quorum_ack_is_traced_past_the_retained_propose_times(
        monkeypatch):
    # With the table of recent propose times cut to one entry, the oldest
    # proposal an ACK newly covers has usually aged out of it.  Every ACK
    # that covers an outstanding proposal is still traced (its lag taken
    # from the oldest covered one still outstanding), so every quorum
    # names a traced ACK.
    def on_time(events):
        return [(e.t, e.fields["src"], tuple(e.fields["zxid"]))
                for e in events
                if e.kind == "leader.ack" and not e.fields["late"]]

    full = on_time(_batched_run("leader-direct")[1])
    monkeypatch.setattr(leader_module, "_RECENT_PROPOSE_CAP", 1)
    _cluster, events = _batched_run("leader-direct")
    assert on_time(events) == full
    proposed = {tuple(e.fields["zxid"]): e.t
                for e in events if e.kind == "leader.propose"}
    for event in events:
        if event.kind == "leader.ack" and not event.fields["late"]:
            first = tuple(event.fields["first"])
            assert 0 <= event.fields["lag"] <= event.t - proposed[first]

    committed = [span for span in CausalityGraph.from_events(events).spans
                 if span.committed]
    assert len(committed) == 60
    for span in committed:
        assert span.quorum_src in span.acks, span
