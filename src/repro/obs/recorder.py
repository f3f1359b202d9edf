"""Flight recorder: an always-on, bounded black box of recent events.

At campaign scale a full trace is either too slow to record or too big
to read, so the default posture is "tracing off" — which historically
meant a failure shipped with *nothing*.  The :class:`FlightRecorder`
closes that gap: a per-node ring buffer (``collections.deque`` with
``maxlen``, O(1) append) that silently retains the last *capacity*
events each node produced and costs nothing beyond the append while
nothing goes wrong.  The moment something does — a checker violation,
an explorer violation, a health detector firing — the harness calls
:meth:`FlightRecorder.dump` and the failure ships its last-N-events
black box through the same atomic :func:`~repro.obs.trace.dump_jsonl`
path full traces use.

**Cost model.**  "Always on" only works if the recorder is nearly
free, and in pure Python the only free event is one whose fields were
never built.  The default ``capture="control"`` posture therefore
reports ``active = False``: the guarded high-frequency call sites
(per-message ``net.*``, per-commit ``log.*``/``leader.*``/...) skip
the recorder exactly as they skip :data:`~repro.obs.trace.NULL_TRACER`
— the steady-state cost is one attribute check per hot event, the same
as tracing off — while the unguarded control-plane kinds (elections,
sync phases, role transitions, ``fault.*``) still reach the ring.
That control-plane tail is the black box: it answers "what was the
cluster *doing* when the property broke" (who led, what flapped,
which faults landed), while the checker's own
:class:`~repro.checker.Trace` already holds the complete commit
history the violation was detected in.  ``capture="all"`` flips
``active`` on and rings the full stream at ordinary tracing cost —
the right posture when the recorder rides shotgun during a deep
debugging session rather than a campaign.
``tests/test_hotpath_budget.py`` holds the default posture to half a
Python frame per committed op over tracing off (it measures 0.012).

A dump is an ordinary JSONL trace (``scripts/validate_trace.py``
accepts it) whose final line is a ``recorder.dump`` marker event
carrying the dump reason, retained/dropped counts, and the ring
capacity.  Because the recorder only observes — it never draws
randomness or schedules work — dumps are bit-deterministic under a
fixed seed: replaying the same schedule yields a byte-identical black
box.

The recorder is a :class:`~repro.obs.trace.Tracer` subclass, so it can
*be* a cluster's tracer (the default when no tracer is configured) or
ride an existing tracer's observer feed via :meth:`record_event` —
in which case it sees exactly the recorded (post-filter) stream.
"""

import collections

from repro.obs.trace import TraceEvent, Tracer, dump_jsonl, _sample_keep


class FlightRecorder(Tracer):
    """Bounded per-node ring buffer of recent trace events.

    Parameters
    ----------
    capacity:
        Events retained *per node* (cluster-level events — ``node is
        None`` — get their own ring).  Older events fall off the front.
    capture:
        ``"control"`` (default) reports ``active = False`` so guarded
        high-frequency call sites skip the recorder entirely — only
        unguarded control-plane events (elections, sync, role
        transitions, faults) are ringed, at near-zero cost.  ``"all"``
        reports ``active = True`` and rings the full event stream at
        ordinary tracing cost.  See the module docstring.
    clock, kinds:
        As for :class:`~repro.obs.trace.Tracer`; per-kind filtering
        and deterministic sampling apply before the ring.
    """

    def __init__(self, capacity=2048, clock=None, kinds=None,
                 capture="control"):
        if capture not in ("control", "all"):
            raise ValueError(
                "capture must be 'control' or 'all', not %r" % (capture,)
            )
        self.capacity = int(capacity)
        self.capture = capture
        self.active = capture == "all"
        self._rings = {}
        self._seq = 0
        Tracer.__init__(self, clock=clock, kinds=kinds)

    # The base class (and :meth:`Tracer.clear`) assign ``events = []``;
    # accept that as "reset the rings" so ``clear()`` works unchanged,
    # but reject any attempt to install a pre-built event list.
    @property
    def events(self):
        return self.snapshot()

    @events.setter
    def events(self, value):
        if value:
            raise AttributeError(
                "FlightRecorder.events is derived from the rings; "
                "emit() or record_event() events instead"
            )
        self._rings.clear()
        self._seq = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def emit(self, kind, node=None, **fields):
        """Append one event to *node*'s ring (O(1), bounded)."""
        keep, rate = self._decisions.get(kind) or self._decide(kind)
        if not keep:
            return
        if rate > 1 and not _sample_keep(rate, fields):
            return
        event = TraceEvent(self._clock(), node, kind, fields)
        self._append(node, event)
        for observer in self._observers:
            observer(event)

    def record_event(self, event):
        """Observer entry point: ring an already-stamped event.

        Attach with ``tracer.add_observer(recorder.record_event)`` to
        ride an existing tracer — the recorder then retains exactly
        the tail of that tracer's recorded stream.
        """
        self._append(event.node, event)

    def _append(self, node, event):
        ring = self._rings.get(node)
        if ring is None:
            ring = self._rings[node] = collections.deque(
                maxlen=self.capacity)
        self._seq += 1
        ring.append((self._seq, event))

    # ------------------------------------------------------------------
    # Inspection / dumping
    # ------------------------------------------------------------------

    @property
    def recorded(self):
        """Total events ever ringed (retained + dropped)."""
        return self._seq

    @property
    def dropped(self):
        """Events that have fallen off a ring."""
        return self._seq - sum(len(ring) for ring in self._rings.values())

    def snapshot(self):
        """Retained events, merged across rings in emission order.

        Emission order is virtual-time order (the clock is monotone),
        so a snapshot is a valid — if windowed — trace.
        """
        merged = []
        for ring in self._rings.values():
            merged.extend(ring)
        merged.sort(key=lambda pair: pair[0])
        return [event for _seq, event in merged]

    def dump(self, destination, reason="manual", **fields):
        """Write the black box as JSONL via the atomic dump path.

        Appends a final ``recorder.dump`` marker event recording the
        *reason*, retained/dropped counts, ring capacity, and any
        extra JSON-safe *fields* (e.g. a violation signature).
        Returns the number of lines written.
        """
        events = self.snapshot()
        t = events[-1].t if events else self._clock()
        marker_fields = {
            "reason": reason,
            "retained": len(events),
            "dropped": self.dropped,
            "capacity": self.capacity,
        }
        marker_fields.update(fields)
        marker = TraceEvent(t, None, "recorder.dump", marker_fields)
        return dump_jsonl(events + [marker], destination)
