"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import Simulator
from repro.sim.kernel import SchedulePolicy, SimulationLimitError


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(0.3, fired.append, "c")
    sim.schedule(0.1, fired.append, "a")
    sim.schedule(0.2, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for label in "abcde":
        sim.schedule(1.0, fired.append, label)
    sim.run()
    assert fired == list("abcde")


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_run_until_stops_before_future_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=2.0)
    assert fired == ["early"]
    assert sim.now == 2.0
    sim.run()
    assert fired == ["early", "late"]


def test_run_for_advances_relative_time():
    sim = Simulator()
    sim.run_for(1.0)
    sim.run_for(2.0)
    assert sim.now == 3.0


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()


def test_scheduling_during_event_execution():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0.5, fired.append, "second")

    sim.schedule(1.0, first)
    sim.run()
    assert fired == ["first", "second"]
    assert sim.now == 1.5


def test_zero_delay_event_runs_at_current_time():
    sim = Simulator()
    times = []
    sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [1.0]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def test_nan_time_rejected():
    # NaN compares false both ways: in the heap it would scramble the
    # virtual-time order of every other event.
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(float("nan"), lambda: None)
    with pytest.raises(ValueError):
        sim.schedule_at(float("nan"), lambda: None)
    assert sim.pending() == 0


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)


def test_max_events_limit_raises():
    sim = Simulator()

    def loop():
        sim.schedule(0.001, loop)

    sim.schedule(0.0, loop)
    with pytest.raises(SimulationLimitError):
        sim.run(max_events=100)


def test_pending_counts_only_live_events():
    sim = Simulator()
    keep = sim.schedule(1.0, lambda: None)
    drop = sim.schedule(2.0, lambda: None)
    drop.cancel()
    assert sim.pending() == 1
    assert keep is not None


def test_events_fired_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(0.1, lambda: None)
    sim.run()
    assert sim.events_fired == 5


# ----------------------------------------------------------------------
# SchedulePolicy: the controlled-nondeterminism seam used by repro.mc
# ----------------------------------------------------------------------


class _LastFirst(SchedulePolicy):
    """Fire same-timestamp ties in reverse scheduling order."""

    def choose(self, events):
        return len(events) - 1


class _Exploding(SchedulePolicy):
    def choose(self, events):
        raise AssertionError("policy consulted without a tie")


def test_default_policy_matches_fifo():
    plain, policed = Simulator(), Simulator()
    policed.set_policy(SchedulePolicy())
    order = []
    for sim, tag in ((plain, "plain"), (policed, "policed")):
        for label in "abc":
            sim.schedule(1.0, order.append, (tag, label))
        sim.run()
    assert [l for t, l in order if t == "plain"] == list("abc")
    assert [l for t, l in order if t == "policed"] == list("abc")


def test_policy_reorders_same_timestamp_ties():
    sim = Simulator()
    sim.set_policy(_LastFirst())
    fired = []
    for label in "abc":
        sim.schedule(1.0, fired.append, label)
    sim.run()
    assert fired == ["c", "b", "a"]


def test_policy_not_consulted_without_ties():
    sim = Simulator()
    sim.set_policy(_Exploding())
    fired = []
    sim.schedule(0.1, fired.append, "a")
    sim.schedule(0.2, fired.append, "b")
    sim.run()
    assert fired == ["a", "b"]


def test_policy_losers_keep_relative_order():
    class PickMiddleOnce(SchedulePolicy):
        def __init__(self):
            self.calls = 0

        def choose(self, events):
            self.calls += 1
            return 1 if self.calls == 1 else 0

    sim = Simulator()
    sim.set_policy(PickMiddleOnce())
    fired = []
    for label in "abc":
        sim.schedule(1.0, fired.append, label)
    sim.run()
    assert fired == ["b", "a", "c"]


def test_policy_sees_only_ready_uncancelled_events():
    seen = {}

    class Spy(SchedulePolicy):
        def choose(self, events):
            seen.setdefault("tie", [e.args[0] for e in events])
            return 0

    sim = Simulator()
    sim.set_policy(Spy())
    sink = []
    sim.schedule(1.0, sink.append, "a")
    dropped = sim.schedule(1.0, sink.append, "dropped")
    sim.schedule(1.0, sink.append, "b")
    sim.schedule(2.0, sink.append, "later")
    dropped.cancel()
    sim.run()
    assert seen["tie"] == ["a", "b"]
    assert sink == ["a", "b", "later"]


def test_policy_out_of_range_choice_raises():
    class OutOfRange(SchedulePolicy):
        def choose(self, events):
            return len(events)

    sim = Simulator()
    sim.set_policy(OutOfRange())
    sim.schedule(1.0, lambda: None)
    sim.schedule(1.0, lambda: None)
    with pytest.raises(ValueError):
        sim.run()


def test_set_policy_returns_previous():
    sim = Simulator()
    first, second = SchedulePolicy(), SchedulePolicy()
    assert sim.set_policy(first) is None
    assert sim.set_policy(second) is first
    assert sim.set_policy(None) is second


def test_iter_pending_is_ordered_and_skips_cancelled():
    sim = Simulator()
    late = sim.schedule(2.0, lambda: None)
    early = sim.schedule(1.0, lambda: None)
    gone = sim.schedule(1.5, lambda: None)
    gone.cancel()
    assert list(sim.iter_pending()) == [early, late]


def test_run_for_zero_fires_only_already_due_events():
    # Regression: `until` used to be checked only against the head
    # event, so run_for(0) at a quiet moment still had to walk the
    # heap; worse, an `until` in the past could misbehave.  A zero
    # horizon must fire exactly the events due *now* and nothing else.
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "due")
    sim.schedule(1.0, fired.append, "also-due")
    sim.schedule(1.0000001, fired.append, "later")
    sim.run(until=1.0)
    assert fired == ["due", "also-due"]
    assert sim.run_for(0) == 1.0
    assert fired == ["due", "also-due"]     # nothing new
    sim.run()
    assert fired == ["due", "also-due", "later"]


def test_run_until_in_the_past_never_rewinds_the_clock():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    assert sim.now == 5.0
    assert sim.run(until=1.0) == 5.0        # clamped, not rewound
    assert sim.now == 5.0


def test_run_until_fast_exit_still_advances_time():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    # Horizon short of the head event: nothing fires, time advances.
    assert sim.run(until=3.0) == 3.0
    assert sim.events_fired == 0
    # Empty-queue horizon advance.
    sim.run()
    assert sim.run(until=20.0) == 20.0


def test_pending_counter_stays_exact_through_cancel_and_fire():
    sim = Simulator()
    a = sim.schedule(1.0, lambda: None)
    b = sim.schedule(2.0, lambda: None)
    sim.schedule(3.0, lambda: None)
    assert sim.pending() == 3
    b.cancel()
    b.cancel()                               # double-cancel: one decrement
    assert sim.pending() == 2
    sim.run(until=1.0)
    assert sim.pending() == 1
    assert a.cancelled                       # consumed by firing
    a.cancel()                               # cancel-after-fire: no-op
    assert sim.pending() == 1
    sim.run()
    assert sim.pending() == 0


# ----------------------------------------------------------------------
# defer(): the end-of-event hook
# ----------------------------------------------------------------------

def test_deferred_work_runs_at_the_same_time_before_the_next_event():
    sim = Simulator()
    log = []

    def first():
        sim.defer(lambda: log.append(("deferred", sim.now)))
        log.append(("first", sim.now))

    sim.schedule(1.0, first)
    sim.schedule(1.0, lambda: log.append(("second", sim.now)))
    sim.run()
    assert log == [("first", 1.0), ("deferred", 1.0), ("second", 1.0)]


def test_nested_defers_drain_in_order_before_the_next_event():
    sim = Simulator()
    log = []

    def deferred(name, more):
        log.append(name)
        for child in more:
            sim.defer(deferred, child, ())

    def event():
        sim.defer(deferred, "a", ("a1", "a2"))
        sim.defer(deferred, "b", ("b1",))

    sim.schedule(0.5, event)
    sim.schedule(0.5, log.append, "next")
    sim.run()
    assert log == ["a", "b", "a1", "a2", "b1", "next"]


def test_deferred_work_is_not_an_event():
    sim = Simulator()
    sim.schedule(0.1, lambda: sim.defer(lambda: None))
    sim.run()
    assert sim.events_fired == 1
    assert sim.pending() == 0


def test_deferred_work_drains_under_an_installed_policy():
    sim = Simulator()
    sim.set_policy(_LastFirst())
    log = []

    def event(name):
        sim.defer(log.append, name + "*")
        log.append(name)

    for name in "abc":
        sim.schedule(1.0, event, name)
    sim.run()
    # The policy reorders the tied events; each event's deferred work
    # still runs right after it, before the policy picks again.
    assert log == ["c", "c*", "b", "b*", "a", "a*"]
    assert sim.events_fired == 3


def test_work_deferred_outside_run_drains_before_the_fast_exit():
    sim = Simulator()
    sim.run(until=2.0)
    log = []
    # Deferred outside run(): the next run() drains it on entry, at the
    # current time, even though no event is due before the horizon.
    sim.defer(lambda: log.append(sim.now))
    sim.defer(lambda: sim.schedule(0.0, log.append, "scheduled"))
    assert sim.run(until=2.0) == 2.0
    assert log == [2.0, "scheduled"]
    assert sim.events_fired == 1
