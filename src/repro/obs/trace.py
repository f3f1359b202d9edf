"""Structured, virtual-time-stamped event tracing.

A :class:`Tracer` collects :class:`TraceEvent` records — ``(t, node,
kind, fields)`` — from every instrumented layer (kernel, network,
protocol roles, fault injection).  Event *kinds* are dotted strings
(``"net.send"``, ``"election.decided"``, ``"fault.crash"``); the full
catalogue lives in ``docs/OBSERVABILITY.md``.

Two properties matter for a tracing layer that sits on hot paths:

- **Zero-overhead off switch.**  Components default to the shared
  :data:`NULL_TRACER`, whose :meth:`~NullTracer.emit` is a no-op and
  whose ``active`` attribute is ``False`` so the hottest call sites
  (per-message, per-commit) can skip even building the event's fields::

      if tracer.active:
          tracer.emit("net.send", node=src, dst=dst, size=size)

  ``active`` is a *call-site hint*, not a hard switch: only
  high-frequency kinds (per-message ``net.*``, per-commit ``log.*`` /
  ``leader.*`` / ``follower.*`` / ``peer.commit``) guard on it.  Rare
  control-plane kinds (elections, sync phases, role transitions,
  ``fault.*``) call :meth:`~Tracer.emit` unguarded — their fields cost
  nothing at their frequency — so a tracer that reports ``active =
  False`` still receives them.  The
  :class:`~repro.obs.recorder.FlightRecorder` black box rides exactly
  that seam.

- **Per-kind filtering.**  A live tracer can enable or disable
  individual kinds (or kind prefixes such as ``"net."``), so a long
  soak can keep rare protocol transitions without drowning in
  per-message traffic.

For campaign-scale runs there is a third lever, **deterministic
sampling** (:meth:`Tracer.sample`): per-kind sample rates keyed on the
event's correlation id (zxid, falling back to session then msg_id)
through a fixed integer hash — no RNG draws, so the same schedule
always keeps the same transactions and a sampled trace is
bit-identical across replays.  Because the key is the correlation id,
a kept transaction keeps *every* sampled event it produced: 1-in-N
commit paths survive at full span fidelity instead of as random
shreds.

Live consumers (the cluster's flight recorder) subscribe with
:meth:`Tracer.add_observer`: every recorded event is handed to each
observer synchronously, in registration order, so derived state is a
pure function of the (virtual-time-ordered) event stream and stays
bit-deterministic across runs.

Traces serialise to JSON Lines — one event object per line — via
:func:`dump_jsonl` / :func:`load_jsonl` and round-trip losslessly.
"""

import functools
import io
import json

from repro.common.util import atomic_write


class TraceEvent:
    """One timestamped occurrence: ``(t, node, kind, fields)``.

    ``t`` is virtual time in seconds, ``node`` the peer id (or ``None``
    for cluster-level events), ``kind`` the dotted event type, and
    ``fields`` a flat JSON-safe dict of kind-specific detail.
    """

    __slots__ = ("t", "node", "kind", "fields")

    def __init__(self, t, node, kind, fields):
        self.t = t
        self.node = node
        self.kind = kind
        self.fields = fields

    def to_dict(self):
        return {
            "t": self.t,
            "node": self.node,
            "kind": self.kind,
            "fields": self.fields,
        }

    @classmethod
    def from_dict(cls, data):
        event = cls(data["t"], data["node"], data["kind"],
                    data.get("fields", {}))
        if not (isinstance(event.t, (int, float))
                and isinstance(event.kind, str)
                and isinstance(event.fields, dict)):
            raise TypeError("t must be a number, kind a string and "
                            "fields an object")
        return event

    def __eq__(self, other):
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self):
        return "<TraceEvent t=%.6f node=%r %s %r>" % (
            self.t, self.node, self.kind, self.fields
        )


class Tracer:
    """Collects structured events stamped with virtual time.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current virtual time.
        Usually bound later with :meth:`bind` once the simulator
        exists (the harness does this automatically).
    kinds:
        Optional iterable restricting recording to these kinds (exact
        names or ``"prefix."`` patterns).  ``None`` records everything.
    """

    active = True

    def __init__(self, clock=None, kinds=None):
        self._clock = clock or (lambda: 0.0)
        self.events = []
        self._only = None if kinds is None else set(kinds)
        self._disabled = set()
        self._enabled = set()
        self._sample_rates = {}
        self._decisions = {}
        self._observers = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def bind(self, sim):
        """Stamp subsequent events with *sim*'s virtual clock."""
        self._clock = functools.partial(getattr, sim, "now")
        return self

    def add_observer(self, fn):
        """Call ``fn(event)`` for every subsequently recorded event.

        Observers run synchronously at emit time, in registration
        order, *after* the event has been appended — so an observer
        sees exactly the recorded stream (filtered kinds never reach
        it).  This is the live-feed seam the flight recorder attaches
        to.
        """
        self._observers.append(fn)
        return self

    # ------------------------------------------------------------------
    # Per-kind filtering
    # ------------------------------------------------------------------

    def enable(self, *kinds):
        """Re-enable *kinds* (exact names or ``"prefix."`` patterns).

        ``enable`` and ``disable`` are symmetric.  Each call first
        retracts every earlier override *within its scope* (the exact
        name, or everything under the prefix), then records its own
        pattern; when the surviving patterns disagree about a kind the
        **most specific** one wins — an exact name beats any prefix,
        and a longer prefix beats a shorter one.  So overrides narrow
        (``disable("net."); enable("net.send")`` keeps only sends) and
        a later broad call wipes the slate (``disable("net.")`` again
        silences sends too)::

            tracer.disable("net.")          # no net traffic ...
            tracer.enable("net.send")       # ... except sends
            tracer.disable("net.")          # back to no net at all

        With a ``kinds=`` whitelist, ``enable`` also extends the
        whitelist so newly enabled kinds actually record.
        """
        for kind in kinds:
            self._retract(kind)
            self._enabled.add(kind)
            if self._only is not None:
                self._only.add(kind)
        self._decisions.clear()
        return self

    def disable(self, *kinds):
        """Stop recording *kinds* (exact names or ``"prefix."``).

        Symmetric with :meth:`enable` — see its docstring for the
        scope-retraction + most-specific-pattern-wins contract.
        """
        for kind in kinds:
            self._retract(kind)
            self._disabled.add(kind)
        self._decisions.clear()
        return self

    def _retract(self, pattern):
        """Drop every override *pattern* subsumes (itself included)."""
        self._enabled = {
            p for p in self._enabled if not _pattern_matches(p, pattern)
        }
        self._disabled = {
            p for p in self._disabled if not _pattern_matches(p, pattern)
        }

    def enabled(self, kind):
        """True if events of *kind* are currently recorded."""
        if self._only is not None:
            verdict = kind_matches(kind, self._only)
        else:
            verdict = True
        best = -1
        for pattern in self._disabled:
            if _pattern_matches(kind, pattern) and len(pattern) > best:
                best = len(pattern)
                verdict = False
        for pattern in self._enabled:
            if _pattern_matches(kind, pattern) and len(pattern) > best:
                best = len(pattern)
                verdict = True
        return verdict

    # ------------------------------------------------------------------
    # Deterministic sampling
    # ------------------------------------------------------------------

    def sample(self, rate, *kinds):
        """Keep ~1-in-*rate* events of *kinds* (exact or ``"prefix."``).

        Sampling is **deterministic**: the decision hashes the event's
        correlation key — ``zxid`` if present, else ``session``, else
        ``msg_id`` — through a fixed integer mix, so the same schedule
        keeps the same transactions on every replay, bit-identically.
        Keying on the correlation id means a kept transaction keeps
        *all* its sampled events (full span fidelity); events carrying
        no key are always kept, so rare cluster-level transitions
        (elections, faults) survive any rate.

        A ``rate`` of 1 (or less) clears sampling for those patterns.
        When several patterns match a kind the most specific wins,
        mirroring :meth:`enable`/:meth:`disable`.
        """
        for kind in kinds:
            if rate is None or rate <= 1:
                self._sample_rates.pop(kind, None)
            else:
                self._sample_rates[kind] = int(rate)
        self._decisions.clear()
        return self

    def sample_rate(self, kind):
        """The effective sample rate for *kind* (1 = keep everything)."""
        rate = 1
        best = -1
        for pattern, value in self._sample_rates.items():
            if _pattern_matches(kind, pattern) and len(pattern) > best:
                best = len(pattern)
                rate = value
        return rate

    def _decide(self, kind):
        """Cached ``(record?, sample_rate)`` decision for *kind*."""
        decision = self._decisions.get(kind)
        if decision is None:
            decision = (self.enabled(kind), self.sample_rate(kind))
            self._decisions[kind] = decision
        return decision

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def emit(self, kind, node=None, **fields):
        """Record one event of *kind* (dropped if the kind is disabled)."""
        keep, rate = self._decisions.get(kind) or self._decide(kind)
        if not keep:
            return
        if rate > 1 and not _sample_keep(rate, fields):
            return
        event = TraceEvent(self._clock(), node, kind, fields)
        self.events.append(event)
        for observer in self._observers:
            observer(event)

    def clear(self):
        """Forget all recorded events."""
        self.events = []

    def __len__(self):
        return len(self.events)

    def by_kind(self, kind):
        """All recorded events of exactly *kind*, in time order."""
        return [event for event in self.events if event.kind == kind]

    def kinds(self):
        """Set of kinds seen so far."""
        return {event.kind for event in self.events}


class NullTracer(Tracer):
    """The do-nothing tracer every component holds by default.

    ``active`` is ``False`` so hot paths can skip field construction
    entirely; :meth:`emit` discards its arguments either way.
    """

    active = False

    def __init__(self):
        Tracer.__init__(self)

    def bind(self, sim):
        return self

    def emit(self, kind, node=None, **fields):
        pass

    def enabled(self, kind):
        return False


#: Shared no-op tracer: safe to use as a default everywhere.
NULL_TRACER = NullTracer()


def kind_matches(kind, patterns):
    """True if *kind* matches any pattern (exact, or ``"net."`` prefix)."""
    if kind in patterns:
        return True
    for pattern in patterns:
        if pattern.endswith(".") and kind.startswith(pattern):
            return True
    return False


def _pattern_matches(kind, pattern):
    """True if *kind* matches one pattern (exact, or ``"net."`` prefix)."""
    if pattern == kind:
        return True
    return pattern.endswith(".") and kind.startswith(pattern)


# FNV-1a over the bytes of each key part: stable across processes,
# platforms, and Python versions (unlike str.__hash__), cheap, and
# RNG-free so sampling never perturbs a seeded schedule.
_FNV_OFFSET = 2166136261
_FNV_PRIME = 16777619
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _sample_hash(key):
    """Deterministic 32-bit hash of a correlation key.

    Accepts ints, strings, and (nested) tuples/lists of those — which
    covers zxids ``(epoch, counter)``, integer msg_ids, and string
    session ids.  Integer parts fold 64 bits into one FNV multiply
    step (the sample decision sits on the emit hot path; byte-walking
    a counter costs more than the append it guards); strings hash
    byte-wise.  The two overwhelmingly common key shapes — a bare int
    (msg_id) and an ``(epoch, counter)`` int pair (zxid) — skip the
    generic stack walk entirely; both branches compute the identical
    fold the generic walk would.
    """
    if type(key) is int:
        value = key & _MASK64
        return ((_FNV_OFFSET ^ (value & _MASK32) ^ (value >> 32))
                * _FNV_PRIME) & _MASK32
    if (type(key) is tuple and len(key) == 2
            and type(key[0]) is int and type(key[1]) is int):
        value = key[0] & _MASK64
        h = ((_FNV_OFFSET ^ (value & _MASK32) ^ (value >> 32))
             * _FNV_PRIME) & _MASK32
        value = key[1] & _MASK64
        return ((h ^ (value & _MASK32) ^ (value >> 32))
                * _FNV_PRIME) & _MASK32
    h = _FNV_OFFSET
    stack = [key]
    while stack:
        part = stack.pop()
        if isinstance(part, (tuple, list)):
            stack.extend(reversed(part))
        elif isinstance(part, str):
            for byte in part.encode("utf-8"):
                h = ((h ^ byte) * _FNV_PRIME) & _MASK32
        else:
            value = int(part) & _MASK64
            h = ((h ^ (value & _MASK32) ^ (value >> 32))
                 * _FNV_PRIME) & _MASK32
    return h


def _sample_keep(rate, fields):
    """Deterministic keep/drop for one event under sample *rate*."""
    key = fields.get("zxid")
    if key is None:
        key = fields.get("session")
        if key is None:
            key = fields.get("msg_id")
            if key is None:
                return True
    return _sample_hash(key) % rate == 0


# ---------------------------------------------------------------------------
# JSONL export / import
# ---------------------------------------------------------------------------

def dump_jsonl(events, destination):
    """Write *events* (TraceEvents or a Tracer) as JSON Lines.

    *destination* is a path or a writable text file object.  Returns
    the number of lines written.

    Path writes are **atomic**: the lines go to a temporary file in the
    destination's directory which is renamed over the target only once
    every line is on disk, so an interrupted run (crash, ^C, full disk)
    can never leave a truncated or half-written trace behind — the old
    file, if any, survives intact.
    """
    if isinstance(events, Tracer):
        events = events.events
    if isinstance(destination, (str, bytes)):
        with atomic_write(destination) as handle:
            return dump_jsonl(events, handle)
    count = 0
    for event in events:
        destination.write(json.dumps(event.to_dict(), sort_keys=True))
        destination.write("\n")
        count += 1
    return count


def load_jsonl(source):
    """Read a JSONL trace (path or text file object) back into events.

    Raises ``ValueError`` naming the source and line number for a line
    that is not a JSON object shaped like :meth:`TraceEvent.to_dict`.
    """
    if isinstance(source, (str, bytes)):
        with io.open(source, "r", encoding="utf-8") as handle:
            return load_jsonl(handle)
    events = []
    for number, line in enumerate(source, 1):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(TraceEvent.from_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(
                "%s line %d: not a trace event (%s: %s)"
                % (getattr(source, "name", "<stream>"), number,
                   type(exc).__name__, exc)
            ) from exc
    return events
