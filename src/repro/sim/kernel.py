"""The simulation event loop."""

import heapq

from repro.common.errors import ReproError
from repro.sim.events import Event
from repro.sim.random import SplitRandom

_heappush = heapq.heappush
_heappop = heapq.heappop
_INF = float("inf")


class SimulationLimitError(ReproError):
    """The simulator processed more events than the configured bound."""


class SchedulePolicy:
    """Controlled-nondeterminism seam: orders same-timestamp events.

    The kernel fires events in ``(time, seq)`` order — a fixed, arbitrary
    serialisation of what a real system leaves unspecified.  A policy
    installed with :meth:`Simulator.set_policy` is consulted whenever two
    or more ready events share the minimum timestamp and picks which one
    fires first; the rest stay queued (and are offered again, minus the
    fired one).  This is the hook the bounded model checker
    (:mod:`repro.mc`) uses to enumerate message-delivery interleavings
    that random jitter would never sample.

    Policies must be deterministic functions of the choice sequence they
    are driven by, or replay guarantees break.
    """

    def choose(self, events):
        """Return the index (into *events*) of the event to fire next.

        *events* is a non-empty list of ready (non-cancelled) events that
        all carry the same timestamp, in ``seq`` order.  The default is
        FIFO: scheduling order, exactly what the kernel does without a
        policy.
        """
        return 0


class Simulator:
    """Single-threaded virtual-time event loop.

    All simulated components share one simulator.  Time is a float in
    seconds.  Components schedule callbacks with :meth:`schedule` (relative
    delay) or :meth:`schedule_at` (absolute time) and the loop runs them in
    timestamp order via :meth:`run`.

    The heap holds ``(time, seq, event)`` tuples, so ordering is resolved
    by C-level tuple comparison (``seq`` is unique, so the event object
    itself is never compared).  Live-event accounting is three plain
    counters — scheduled, cancelled, fired — kept exact by the events
    themselves through a back-pointer, with no per-event hook closures.
    """

    def __init__(self, seed=0):
        self._queue = []         # heap of (time, seq, Event)
        self._seq = 0
        self.now = 0.0           # virtual seconds; only run() moves it
        self._events_fired = 0
        self._scheduled = 0      # total schedule_at calls
        self._cancelled = 0      # cancels of not-yet-fired events
        self._policy = None      # optional SchedulePolicy (tie-breaking)
        self._pending_view = None  # cached iter_pending result
        self._deferred = []      # (fn, args) for defer(), in order
        self.random = SplitRandom(seed)

    @property
    def events_fired(self):
        """Total number of events executed so far."""
        return self._events_fired

    def schedule(self, delay, fn, *args):
        """Run ``fn(*args)`` after *delay* seconds of virtual time."""
        if not delay >= 0:   # also rejects NaN, which breaks heap order
            raise ValueError("delay must be >= 0, not %r" % delay)
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        self._scheduled += 1
        event = Event(time, seq, fn, args, self)
        _heappush(self._queue, (time, seq, event))
        return event

    def schedule_at(self, time, fn, *args):
        """Run ``fn(*args)`` at absolute virtual *time*."""
        if not time >= self.now:   # also rejects NaN
            raise ValueError(
                "cannot schedule at %r: now=%r" % (time, self.now)
            )
        seq = self._seq
        self._seq = seq + 1
        self._scheduled += 1
        event = Event(time, seq, fn, args, self)
        _heappush(self._queue, (time, seq, event))
        return event

    def defer(self, fn, *args):
        """Run ``fn(*args)`` when the current event's callback returns,
        at the same virtual time, before the next event (nested defers
        too).  Not an event: no seq, not in :attr:`events_fired`, never
        offered to a policy.  Deferred outside :meth:`run`, it drains at
        the next :meth:`run` entry."""
        self._deferred.append((fn, args))

    def set_policy(self, policy):
        """Install (or with ``None`` remove) a :class:`SchedulePolicy`.

        Returns the previous policy.  Only same-timestamp tie-breaking
        goes through the policy; the single-ready-event fast path is
        unchanged, so simulations that never produce ties behave
        identically with any policy installed.
        """
        previous, self._policy = self._policy, policy
        return previous

    def pending(self):
        """Number of not-yet-cancelled events in the queue (O(1)).

        ``scheduled - cancelled - fired``: schedule_at counts up, every
        cancellation counts through the event's kernel back-pointer, and
        the run loop counts firings — so no heap scan is ever needed.
        """
        return self._scheduled - self._cancelled - self._events_fired

    def iter_pending(self):
        """Not-yet-cancelled queued events, in ``(time, seq)`` order.

        A read-only view for inspection (the model checker fingerprints
        the in-flight message set with it); mutating the yielded events
        other than via :meth:`~repro.sim.events.Event.cancel` is not
        supported.

        The view is cached against the schedule/cancel/fire counters, so
        repeated calls at the same queue state (the explorer fingerprints
        an unchanged cluster more than once per decision step) cost a
        tuple compare instead of a sort; building it is one C-level sort
        of ``(time, seq, event)`` tuples, never a Python comparison.
        """
        key = (self._scheduled, self._cancelled, self._events_fired)
        cached = self._pending_view
        if cached is not None and cached[0] == key:
            return cached[1]
        entries = [entry for entry in self._queue if not entry[2].cancelled]
        entries.sort()
        view = tuple(entry[2] for entry in entries)
        self._pending_view = (key, view)
        return view

    def run(self, until=None, max_events=None):
        """Process events in order.

        Stops when the queue drains, when virtual time would exceed *until*,
        or after *max_events* callbacks.  Returns the virtual time at which
        the loop stopped.  *until* values at or before the current time
        fire only already-due events (time never moves backwards).
        """
        deferred = self._deferred
        while deferred:              # deferred outside run(): due now
            fn, args = deferred.pop(0)
            fn(*args)
        if until is not None and until < self.now:
            until = self.now      # fast-exit floor: never rewind the clock
        queue = self._queue
        if until is not None and (not queue or queue[0][0] > until):
            # Fast exit: nothing due on or before the horizon.  This is
            # the common case for the polling loops in run_until().
            if until > self.now:
                self.now = until
            return self.now
        heappop = _heappop
        # Sentinel bounds instead of per-event None checks: an unbounded
        # run compares against +inf, which is never exceeded.
        bound = _INF if until is None else until
        limit = _INF if max_events is None else max_events
        fired = 0
        # The policy is read once: set_policy is a between-runs operation
        # (the explorer installs its InterleavingPolicy before run()).
        policy = self._policy
        while queue:
            event_time, _seq, event = queue[0]
            if event.cancelled:
                heappop(queue)
                continue
            if event_time > bound:
                self.now = until
                return until
            heappop(queue)
            if policy is not None:
                event = self._resolve_tie(event_time, event)
                self.now = event_time
                event.fire()
            else:
                # Inlined Event.fire(): consume the event and invoke the
                # callback without a second method call per event.
                self.now = event_time
                fn = event.fn
                args = event.args
                event.cancelled = True
                event.fn = None
                event.args = ()
                event.kernel = None
                fn(*args)
            while deferred:
                fn, args = deferred.pop(0)
                fn(*args)
            self._events_fired += 1
            fired += 1
            if fired >= limit:
                raise SimulationLimitError(
                    "stopped after %d events at t=%.6f" % (fired, self.now)
                )
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def _resolve_tie(self, time, head):
        """Let the installed policy pick among all events tied with *head*.

        *head* has already been popped.  Gathers every other ready event
        carrying the same timestamp, asks the policy to choose, fires the
        chosen one and pushes the rest back (their ``(time, seq)`` keys
        are unchanged, so relative order among the losers is preserved).
        """
        queue = self._queue
        tied = [head]
        while queue:
            entry = queue[0]
            event = entry[2]
            if event.cancelled:
                heapq.heappop(queue)
                continue
            if entry[0] != time:
                break
            tied.append(event)
            heapq.heappop(queue)
        if len(tied) == 1:
            return head
        index = self._policy.choose(tied)
        if not 0 <= index < len(tied):
            raise ValueError(
                "policy chose %r out of %d tied events" % (index, len(tied))
            )
        chosen = tied.pop(index)
        for event in tied:
            heapq.heappush(queue, (event.time, event.seq, event))
        return chosen

    def run_for(self, duration):
        """Advance virtual time by *duration* seconds, processing events."""
        return self.run(until=self.now + duration)

    def attach_metrics(self, registry):
        """Expose kernel health to a metrics registry.

        Registers callback gauges (read lazily at snapshot time, so the
        event loop's hot path is untouched): ``sim.queue_depth``,
        ``sim.events_fired``, and ``sim.now``.
        """
        registry.gauge("sim.queue_depth", fn=self.pending)
        registry.gauge("sim.events_fired", fn=lambda: self.events_fired)
        registry.gauge("sim.now", fn=lambda: self.now)
        return self
