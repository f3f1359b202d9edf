"""Tests for commit-path spans and causality analysis (repro.obs)."""

import io

import pytest

from repro.obs import (
    CausalityGraph,
    STAGE_KEYS,
    TraceEvent,
    Tracer,
    build_spans,
    dump_jsonl,
    load_jsonl,
    profile_trace,
    render_profile,
    stage_histograms,
)


def _events(raw):
    return [TraceEvent(t, node, kind, fields)
            for t, node, kind, fields in raw]


def _one_txn_trace():
    """Leader 1, followers 2..5; zxid (1, 1) commits on follower 3's ACK."""
    return _events([
        (0.000, 1, "leader.propose", {"zxid": [1, 1], "size": 100}),
        (0.000, 1, "log.append", {"zxid": [1, 1], "size": 100}),
        (0.002, 1, "log.durable", {"zxid": [1, 1]}),
        (0.002, 1, "leader.ack", {"zxid": [1, 1], "src": 1}),
        (0.004, 1, "leader.ack", {"zxid": [1, 1], "src": 2}),
        (0.005, 1, "leader.ack", {"zxid": [1, 1], "src": 3}),
        (0.005, 1, "leader.quorum", {"zxid": [1, 1], "src": 3, "acks": 3}),
        (0.006, 1, "leader.commit", {"zxid": [1, 1], "acks": [1, 2, 3]}),
        (0.006, 1, "peer.commit", {"zxid": [1, 1], "txn": 7}),
        (0.007, 1, "leader.ack", {"zxid": [1, 1], "src": 4}),
        (0.008, 2, "peer.commit", {"zxid": [1, 1], "txn": 7}),
        (0.009, 3, "peer.commit", {"zxid": [1, 1], "txn": 7}),
    ])


# ---------------------------------------------------------------------------
# Span correlation
# ---------------------------------------------------------------------------

def test_build_spans_correlates_one_transaction():
    (span,) = build_spans(_one_txn_trace())
    assert span.zxid == (1, 1)
    assert span.epoch == 1
    assert span.leader == 1
    assert span.size == 100
    assert span.committed
    assert span.propose_t == 0.000
    assert span.leader_durable_t == 0.002
    assert span.quorum_t == 0.005
    assert span.quorum_src == 3
    assert span.commit_t == 0.006
    assert span.acks == {1: 0.002, 2: 0.004, 3: 0.005, 4: 0.007}
    assert span.delivers == {1: 0.006, 2: 0.008, 3: 0.009}


def test_span_stage_durations():
    (span,) = build_spans(_one_txn_trace())
    stages = span.stages()
    assert set(stages) == set(STAGE_KEYS)
    assert stages["log_fsync"] == pytest.approx(0.002)
    assert stages["quorum_wait"] == pytest.approx(0.003)
    assert stages["commit_gap"] == pytest.approx(0.001)
    assert stages["commit_latency"] == pytest.approx(0.006)
    assert stages["deliver_fanout"] == pytest.approx(0.003)
    assert stages["e2e"] == pytest.approx(0.009)
    assert span.quorum_wait_fraction() == pytest.approx(0.5)


def test_span_straggler_and_ack_lags():
    (span,) = build_spans(_one_txn_trace())
    assert span.ack_lag(2) == pytest.approx(0.004)
    assert span.ack_lag(9) is None
    lags = span.follower_ack_lags()
    assert set(lags) == {2, 3, 4}  # leader self-ack excluded
    peer, lag = span.slowest_follower()
    assert peer == 4
    assert lag == pytest.approx(0.007)


def test_span_to_dict_is_json_safe():
    import json

    (span,) = build_spans(_one_txn_trace())
    record = json.loads(json.dumps(span.to_dict()))
    assert record["zxid"] == [1, 1]
    assert record["quorum_src"] == 3
    assert record["slowest_follower"] == 4
    assert record["stages"]["commit_latency"] == pytest.approx(0.006)


def test_build_spans_ignores_unanchored_zxids():
    # Events about a zxid with no leader.propose in the window (e.g.
    # re-synced history) must not create a half-baked span.
    events = _events([
        (0.1, 1, "leader.ack", {"zxid": [1, 9], "src": 2}),
        (0.2, 2, "peer.commit", {"zxid": [1, 9], "txn": 1}),
        (0.3, 1, "leader.propose", {"zxid": [1, 10], "size": 8}),
    ])
    spans = build_spans(events)
    assert [span.zxid for span in spans] == [(1, 10)]
    assert not spans[0].committed
    # An uncommitted span reports only the stages it has evidence for.
    assert spans[0].stages() == {}


def test_build_spans_accepts_tuple_and_list_zxids():
    events = _events([
        (0.0, 1, "leader.propose", {"zxid": (2, 1), "size": 8}),
        (0.1, 1, "leader.commit", {"zxid": [2, 1]}),
    ])
    (span,) = build_spans(events)
    assert span.zxid == (2, 1)
    assert span.committed


def test_stage_histograms_only_count_committed():
    events = _one_txn_trace() + _events([
        (0.010, 1, "leader.propose", {"zxid": [1, 2], "size": 100}),
    ])
    histograms = stage_histograms(build_spans(events))
    assert histograms["commit_latency"].count == 1
    assert histograms["e2e"].count == 1


# ---------------------------------------------------------------------------
# Profile digest
# ---------------------------------------------------------------------------

def test_profile_trace_summary_shape():
    summary = profile_trace(_one_txn_trace())
    assert summary["transactions"] == 1
    assert summary["committed"] == 1
    assert summary["outstanding"] == 0
    assert summary["stages"]["commit_latency"]["count"] == 1
    assert summary["quorum_wait_fraction"]["mean"] == pytest.approx(0.5)
    followers = summary["followers"]
    assert followers["3"]["quorum_critical"] == 1
    assert followers["4"]["straggler"] == 1
    assert followers["2"]["quorum_critical"] == 0
    (slowest,) = summary["slowest"]
    assert slowest["zxid"] == [1, 1]


def test_render_profile_mentions_stages_and_followers():
    text = render_profile(profile_trace(_one_txn_trace()))
    assert "quorum_wait" in text
    assert "quorum-critical" in text
    assert "slowest committed transactions" in text


# ---------------------------------------------------------------------------
# Causality graph
# ---------------------------------------------------------------------------

def _wire_trace():
    """One transaction with its wire messages (msg ids 1..4)."""
    return _events([
        (0.000, 1, "leader.propose", {"zxid": [1, 1], "size": 100}),
        (0.000, 1, "net.send",
         {"dst": 3, "type": "Propose", "size": 100, "msg_id": 1,
          "zxid": [1, 1]}),
        (0.000, 1, "net.send",
         {"dst": 2, "type": "Propose", "size": 100, "msg_id": 2,
          "zxid": [1, 1]}),
        (0.002, 3, "net.deliver",
         {"src": 1, "type": "Propose", "size": 100, "msg_id": 1,
          "zxid": [1, 1]}),
        (0.003, 3, "follower.ack", {"zxid": [1, 1], "leader": 1}),
        (0.003, 3, "net.send",
         {"dst": 1, "type": "Ack", "size": 20, "msg_id": 3,
          "zxid": [1, 1]}),
        (0.004, 2, "net.drop",
         {"reason": "crash", "src": 1, "dst": 2, "type": "Propose",
          "msg_id": 2}),
        (0.005, 1, "net.deliver",
         {"src": 3, "type": "Ack", "size": 20, "msg_id": 3,
          "zxid": [1, 1]}),
        (0.005, 1, "leader.ack", {"zxid": [1, 1], "src": 3}),
        (0.005, 1, "leader.quorum", {"zxid": [1, 1], "src": 3, "acks": 2}),
        (0.006, 1, "leader.commit", {"zxid": [1, 1], "acks": [1, 3]}),
    ])


def test_causality_pairs_sends_and_delivers_by_msg_id():
    graph = CausalityGraph.from_events(_wire_trace())
    edges = graph.message_edges()
    assert [(s.fields["msg_id"], d.fields["msg_id"]) for s, d in edges] \
        == [(1, 1), (3, 3)]
    assert graph.message_latency(1) == pytest.approx(0.002)
    assert graph.message_latency(2) is None   # dropped, never delivered
    assert graph.message_latency(99) is None
    (dropped,) = graph.dropped()
    assert dropped.fields["msg_id"] == 2


def test_causality_critical_path_is_ordered_and_complete():
    graph = CausalityGraph.from_events(_wire_trace())
    path = graph.critical_path((1, 1))
    assert path is not None
    labels = [label for _t, _node, label in path]
    assert labels == [
        "propose", "propose.send", "propose.deliver",
        "follower.durable+ack", "ack.send", "ack.deliver", "quorum",
    ]
    times = [t for t, _node, _label in path]
    assert times == sorted(times)
    assert times[0] == 0.000
    assert times[-1] == 0.005
    # The follower-side hops happen at the quorum-critical follower.
    assert path[2][1] == 3 and path[3][1] == 3


def test_causality_critical_path_without_quorum_is_none():
    events = _events([
        (0.0, 1, "leader.propose", {"zxid": [1, 1], "size": 8}),
    ])
    graph = CausalityGraph.from_events(events)
    assert graph.critical_path((1, 1)) is None


def test_causality_summary_counts():
    graph = CausalityGraph.from_events(_wire_trace())
    digest = graph.summary()
    assert digest["messages"]["sent"] == 3
    assert digest["messages"]["delivered"] == 2
    assert digest["messages"]["dropped"] == 1
    # Per-follower counts come from the span profile, not the DAG.
    followers = profile_trace(_wire_trace())["followers"]
    assert {peer: data["quorum_critical"]
            for peer, data in followers.items()} == {"3": 1}
    assert {peer: data["straggler"]
            for peer, data in followers.items()} == {"3": 1}


def test_causality_transaction_messages_in_time_order():
    graph = CausalityGraph.from_events(_wire_trace())
    events = graph.transaction_messages((1, 1))
    # 3 sends + 2 delivers carry the zxid; the drop event identifies
    # its payload by msg_id only and is excluded.
    assert len(events) == 5
    assert [event.t for event in events] \
        == sorted(event.t for event in events)


# ---------------------------------------------------------------------------
# End to end: live run -> JSONL -> replayed analysis
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def replayed_profile():
    from repro.bench.runner import EVAL_LINK, run_broadcast_bench
    from repro.harness import ClusterConfig

    tracer = Tracer()
    run_broadcast_bench(
        ClusterConfig(n_voters=5, seed=3, net=EVAL_LINK, tracer=tracer),
        duration=1.5, warmup=0, rate=400,
    )
    buffer = io.StringIO()
    dump_jsonl(tracer, buffer)
    buffer.seek(0)
    return tracer.events, load_jsonl(buffer)


def test_replayed_spans_match_live_spans(replayed_profile):
    live, replayed = replayed_profile
    live_spans = build_spans(live)
    replay_spans = build_spans(replayed)
    assert len(live_spans) == len(replay_spans)
    assert [s.to_dict() for s in live_spans] \
        == [s.to_dict() for s in replay_spans]
    committed = [s for s in live_spans if s.committed]
    assert committed, "scenario produced no committed transactions"
    for span in committed:
        stages = span.stages()
        assert stages["commit_latency"] > 0
        assert stages["e2e"] >= stages["commit_latency"]
        assert 0 <= span.quorum_wait_fraction() <= 1
        # A 5-node quorum needs 3 ACKs; the span must show who closed it.
        assert span.quorum_src in span.acks


def test_replayed_profile_reports_paper_quantities(replayed_profile):
    _live, replayed = replayed_profile
    summary = profile_trace(replayed)
    assert summary["committed"] > 100
    assert summary["stages"]["quorum_wait"]["count"] == summary["committed"]
    assert summary["quorum_wait_fraction"]["count"] == summary["committed"]
    assert summary["throughput_ops"] > 0
    # Every follower that ever ACKed within the commit window shows up.
    assert summary["followers"]
    total_critical = sum(
        data["quorum_critical"] for data in summary["followers"].values()
    )
    assert total_critical == summary["committed"]
    render_profile(summary)  # must not raise


def test_replayed_causality_pairs_every_delivery(replayed_profile):
    _live, replayed = replayed_profile
    graph = CausalityGraph.from_events(replayed)
    digest = graph.summary()
    # Every delivered message must pair back to a send.
    assert len(graph.message_edges()) == digest["messages"]["delivered"]
    assert digest["messages"]["mean_latency"] > 0
    slowest = max(
        (s for s in graph.spans if s.committed),
        key=lambda s: s.stages()["commit_latency"],
    )
    path = graph.critical_path(slowest.zxid)
    if path is not None:  # leader's own fsync may close small quorums
        times = [t for t, _node, _label in path]
        assert times == sorted(times)
