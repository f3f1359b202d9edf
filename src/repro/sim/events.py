"""Scheduled events for the simulation kernel."""

import functools


@functools.total_ordering
class Event:
    """A callback scheduled at a point in virtual time.

    Events are ordered by ``(time, seq)``; *seq* is a monotonically
    increasing tie-breaker assigned by the simulator so that two events
    scheduled for the same instant fire in scheduling order.  The kernel
    keeps its heap entries as ``(time, seq, event)`` tuples so ordering
    never goes through these Python-level comparison methods on the hot
    path; they are kept for inspection code that sorts events directly.
    Cancelled events stay in the heap but are skipped when popped.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "kernel")

    def __init__(self, time, seq, fn, args=(), kernel=None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.kernel = kernel  # owning Simulator: keeps its live count exact

    def cancel(self):
        """Prevent the event from firing; safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        self.fn = None
        self.args = ()
        kernel = self.kernel
        self.kernel = None
        if kernel is not None:
            # Inlined kernel._note_cancelled(): one counter bump keeps
            # Simulator.pending() exact without a call per cancel.
            kernel._cancelled += 1

    def fire(self):
        """Invoke the callback unless the event was cancelled.

        Consumes the event without routing through :meth:`cancel`: the
        kernel accounts for fired events via its own counter, so firing
        must not also bump the owner's cancellation count.
        """
        if self.cancelled:
            return
        fn = self.fn
        args = self.args
        self.cancelled = True
        self.fn = None
        self.args = ()
        self.kernel = None
        fn(*args)

    def __reduce__(self):
        # (time, seq) reach the constructor: __hash__ reads seq while
        # pickle rebuilds a set of events (Process._timers).
        return Event, (self.time, self.seq, None), (None, {
            "fn": self.fn, "args": self.args,
            "cancelled": self.cancelled, "kernel": self.kernel})

    def __hash__(self):
        return self.seq  # seq is unique per simulator

    def __eq__(self, other):
        return (self.time, self.seq) == (other.time, other.seq)

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        return "<Event t=%.6f seq=%d %s>" % (self.time, self.seq, state)
