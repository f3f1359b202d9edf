"""Minimized failure repro for E4b's Paxos seed 4.

Shrunk by `repro.harness.shrink` from the 14-action schedule of
`ActionSchedule.generate_partitions(4)` (E4b's partition adversary) to
2 actions in 24 replays.  One partition of peer 1 and its heal are
enough: pipelined Paxos, with no crash and no scripted leader change,
delivers a transaction whose primary did not originate it (primary
integrity fails).  It is the shortest unscripted Paxos primary-order
violation in the corpus (seed 17's entry needs 6 actions).

E4b runs Paxos with 8 outstanding proposals and a tighter sync limit;
those knobs are not schedule meta, so they ride in CONFIG.  The
schedule's meta names the protocol, so the same two actions replay on
Zab once that key says "zab" — and pass.
"""

from repro import ActionSchedule, ClusterConfig, replay_schedule

SCHEDULE = ActionSchedule.loads(r'''
{
  "version": 1,
  "meta": {
    "seed": 4,
    "n_voters": 3,
    "steps": 10,
    "step_interval": 0.4,
    "op_interval": 0.01,
    "profile": "partition",
    "protocol": "paxos"
  },
  "actions": [
    {
      "t": 5.2,
      "action": "partition",
      "target": [
        [
          1
        ]
      ]
    },
    {
      "t": 6.0,
      "action": "heal"
    }
  ]
}
''')

CONFIG = ClusterConfig(zab={"max_outstanding": 8, "sync_limit": 3})

EXPECTED_SIGNATURE = (('primary_integrity', (2, 1)),)


def test_e4b_seed_4_violation_reproduces():
    first = replay_schedule(SCHEDULE, CONFIG)
    second = replay_schedule(SCHEDULE, CONFIG)
    assert not first.passed
    assert first.error is None
    assert first.signature == EXPECTED_SIGNATURE
    assert second.signature == first.signature


def test_e4b_seed_4_actions_pass_on_zab():
    zab = ActionSchedule.from_json(SCHEDULE.to_json())
    zab.meta["protocol"] = "zab"
    result = replay_schedule(zab, CONFIG)
    assert result.passed, result.violations
