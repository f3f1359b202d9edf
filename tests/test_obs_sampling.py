"""Deterministic sampling and the enable/disable scope contract.

Sampling never draws randomness: the keep decision hashes the event's
correlation key (zxid, else session, else msg_id) through a fixed
FNV-1a mix, so the same schedule keeps the same transactions on every
replay — bit-identically — and a kept transaction keeps *all* of its
sampled events (full span fidelity).
"""

import pytest

from repro.harness import Cluster, ClusterConfig
from repro.obs.trace import (
    Tracer,
    _sample_hash,
    _sample_keep,
    dump_jsonl,
)


# ---------------------------------------------------------------------------
# The hash itself
# ---------------------------------------------------------------------------

def test_sample_hash_fast_paths_match_the_generic_walk():
    # The bare-int and (int, int) fast paths must compute exactly what
    # the generic stack walk computes for the same parts — a list
    # forces the generic branch for identical content.
    for value in (0, 1, 7, 12345, 2**31, 2**63 - 1, -1, -2**40):
        assert _sample_hash(value) == _sample_hash([value]), value
    for pair in ((0, 0), (1, 2), (3, 12345), (2**40, 7), (-5, 9)):
        assert _sample_hash(pair) == _sample_hash(list(pair)), pair


def test_sample_hash_is_stable_and_shape_sensitive():
    assert _sample_hash((1, 5)) == _sample_hash((1, 5))
    assert _sample_hash((1, 5)) != _sample_hash((5, 1))
    assert _sample_hash("s1") == _sample_hash("s1")
    assert _sample_hash("s1") != _sample_hash("s2")
    # Nested/mixed keys run through the generic walk deterministically.
    assert _sample_hash(("sess", (1, 5))) == _sample_hash(("sess", (1, 5)))


def test_sample_keep_key_precedence():
    rate = 4
    for counter in range(64):
        zxid = (1, counter)
        with_decoys = {
            "zxid": zxid, "session": "s%d" % counter,
            "msg_id": counter + 1000,
        }
        # zxid wins over session and msg_id; session wins over msg_id.
        assert _sample_keep(rate, with_decoys) \
            == _sample_keep(rate, {"zxid": zxid})
        assert _sample_keep(
            rate, {"session": "s%d" % counter, "msg_id": counter}
        ) == _sample_keep(rate, {"session": "s%d" % counter})


def test_keyless_events_are_always_kept():
    for rate in (2, 16, 1000):
        assert _sample_keep(rate, {}) is True
        assert _sample_keep(rate, {"round": 3}) is True


def test_sample_rate_roughly_hits_the_target():
    kept = sum(
        1 for counter in range(4096)
        if _sample_keep(8, {"zxid": (1, counter)})
    )
    # ~1-in-8 of 4096 = 512; allow generous slack, no RNG involved.
    assert 320 <= kept <= 720


# ---------------------------------------------------------------------------
# Tracer.sample scope rules
# ---------------------------------------------------------------------------

def test_sample_rate_most_specific_pattern_wins():
    tracer = Tracer()
    tracer.sample(8, "net.")
    tracer.sample(2, "net.send")
    assert tracer.sample_rate("net.send") == 2
    assert tracer.sample_rate("net.deliver") == 8
    assert tracer.sample_rate("leader.propose") == 1
    # Rate 1 clears the specific override; the prefix still applies.
    tracer.sample(1, "net.send")
    assert tracer.sample_rate("net.send") == 8


def test_sampled_tracer_keeps_whole_transactions():
    tracer = Tracer()
    tracer.sample(4, "leader.", "log.")
    for counter in range(32):
        zxid = (1, counter)
        tracer.emit("leader.propose", node=0, zxid=zxid)
        tracer.emit("log.durable", node=0, zxid=zxid)
        tracer.emit("leader.quorum", node=0, zxid=zxid)
    by_zxid = {}
    for event in tracer.events:
        by_zxid.setdefault(event.fields["zxid"], []).append(event.kind)
    assert by_zxid, "sampling dropped every transaction"
    assert len(by_zxid) < 32, "sampling kept every transaction"
    for zxid, kinds in by_zxid.items():
        # All-or-nothing per zxid: full span fidelity.
        assert kinds == ["leader.propose", "log.durable", "leader.quorum"]


def test_same_config_same_stream_same_decisions():
    def run():
        tracer = Tracer()
        tracer.sample(8, "net.", "leader.")
        for counter in range(200):
            tracer.emit("leader.propose", node=0, zxid=(2, counter))
            tracer.emit("net.send", node=0, msg_id=counter + 1)
        return [
            (event.kind, sorted(event.fields.items()))
            for event in tracer.events
        ]

    assert run() == run()


# ---------------------------------------------------------------------------
# Bit-identical sampled capture from a real run
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rate", [1, 8])
def test_sampled_trace_is_byte_identical_across_replays(tmp_path, rate):
    def capture(path):
        tracer = Tracer()
        if rate > 1:
            tracer.sample(
                rate, "net.", "log.", "leader.", "follower.", "peer.",
            )
        cluster = Cluster(ClusterConfig(
            n_voters=3, seed=5, tracer=tracer, recorder=False,
        )).start()
        cluster.run_until_stable(timeout=30.0)
        for k in range(20):
            cluster.submit_and_wait(("put", "k%d" % k, k))
        dump_jsonl(tracer.events, str(path))
        return len(tracer.events)

    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    count_a = capture(first)
    count_b = capture(second)
    assert count_a == count_b > 0
    assert first.read_bytes() == second.read_bytes()


def test_sampling_shrinks_the_artifact_not_the_spans():
    # The honest claim: in pure Python sampling buys artifact size
    # (and replay cost), not CPU — assert the size half here.
    def run(rate):
        tracer = Tracer()
        if rate > 1:
            tracer.sample(
                rate, "net.", "log.", "leader.", "follower.", "peer.",
            )
        cluster = Cluster(ClusterConfig(
            n_voters=3, seed=5, tracer=tracer, recorder=False,
        )).start()
        cluster.run_until_stable(timeout=30.0)
        for k in range(30):
            cluster.submit_and_wait(("put", "k%d" % k, k))
        return tracer.events

    full = run(1)
    sampled = run(8)
    assert len(sampled) < len(full) / 2
    # Sampled kept transactions still build complete commit spans.
    from repro.obs.spans import build_spans

    spans = [span for span in build_spans(sampled) if span.committed]
    assert spans, "no committed span survived sampling"
    for span in spans:
        assert span.propose_t <= span.quorum_t <= span.commit_t


def _commit_puts(ops, **config):
    cluster = Cluster(ClusterConfig(n_voters=3, seed=1, **config)).start()
    cluster.run_until_stable(timeout=60.0)
    done = []
    for i in range(ops):
        cluster.submit(("put", "k%d" % (i % 16), i),
                       callback=lambda _r, _z: done.append(None))
    assert cluster.run_until(lambda: len(done) >= ops, timeout=60.0)
    return cluster


def test_event_counts_per_posture_exact():
    # The keep/drop decision is a pure function of the zxid, so the
    # retained-event counts are the same on every platform, Python
    # version and hash seed; so is what the default control-plane
    # recorder rings (elections, sync, snapshot.save — never per-op).
    sampled, full = Tracer(), Tracer()
    sampled.sample(8, "net.", "log.", "leader.", "follower.", "peer.")
    _commit_puts(1250, tracer=sampled, recorder=False)
    _commit_puts(1250, tracer=full, recorder=False)
    assert (len(sampled.events), len(full.events)) == (5187, 32588)
    assert _commit_puts(5000).recorder.recorded == 44


# ---------------------------------------------------------------------------
# enable()/disable() symmetry — the documented scope contract
# ---------------------------------------------------------------------------

def test_enable_undoes_a_disable_at_the_same_scope():
    tracer = Tracer()
    tracer.disable("net.")
    assert not tracer.enabled("net.send")
    tracer.enable("net.")
    assert tracer.enabled("net.send")
    assert tracer.enabled("net.deliver")


def test_exact_enable_punches_through_a_disabled_prefix():
    tracer = Tracer()
    tracer.disable("net.")
    tracer.enable("net.send")
    assert tracer.enabled("net.send")
    assert not tracer.enabled("net.deliver")


def test_redisabling_a_prefix_retracts_narrower_enables():
    # Symmetry: disable(p) after enable(k in p) must win again — the
    # broader pattern retracts every narrower override inside its
    # scope, in both directions.
    tracer = Tracer()
    tracer.disable("net.")
    tracer.enable("net.send")
    tracer.disable("net.")
    assert not tracer.enabled("net.send")
    assert not tracer.enabled("net.deliver")
    # And the mirror image with enable retracting nested disables.
    tracer.enable("net.")
    tracer.disable("net.send")
    tracer.enable("net.")
    assert tracer.enabled("net.send")


def test_most_specific_pattern_decides():
    tracer = Tracer()
    tracer.disable("leader.")
    tracer.enable("leader.propose")
    tracer.emit("leader.propose", node=0, zxid=(1, 1))
    tracer.emit("leader.commit", node=0, zxid=(1, 1))
    assert [event.kind for event in tracer.events] == ["leader.propose"]
