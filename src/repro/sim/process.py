"""Crash-recovery process abstraction.

A :class:`Process` owns a set of timers.  Crashing a process cancels all of
its timers and makes subsequent scheduling a no-op, which models the fact
that a crashed machine loses its volatile state (timers, in-flight work) but
keeps whatever it wrote to stable storage.
"""

from repro.common.errors import CrashedProcessError


class _Timer:
    """One :meth:`Process.set_timer` callback: an object rather than a
    closure, so a simulation pickles."""

    __slots__ = ("process", "event", "fn", "args")

    def __call__(self):
        self.process._timers.discard(self.event)
        if not self.process.crashed:
            self.fn(*self.args)


class Process:
    """Base class for simulated crash-recovery processes."""

    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.crashed = False
        self._timers = set()

    def set_timer(self, delay, fn, *args):
        """Schedule a callback that is automatically voided on crash."""
        if self.crashed:
            raise CrashedProcessError("%s is crashed" % self.name)
        timer = _Timer()
        timer.process, timer.fn, timer.args = self, fn, args
        timer.event = event = self.sim.schedule(delay, timer)
        self._timers.add(event)
        return event

    def cancel_timer(self, event):
        """Cancel a timer previously created with :meth:`set_timer`."""
        self._timers.discard(event)
        event.cancel()

    def crash(self):
        """Lose all volatile state.  Idempotent."""
        if self.crashed:
            return
        self.crashed = True
        for event in self._timers:
            event.cancel()
        self._timers.clear()
        self.on_crash()

    def recover(self):
        """Restart after a crash.  Subclasses re-initialise in on_recover."""
        if not self.crashed:
            return
        self.crashed = False
        self.on_recover()

    def on_crash(self):
        """Hook for subclasses; called once when the process crashes."""

    def on_recover(self):
        """Hook for subclasses; called once when the process restarts."""
