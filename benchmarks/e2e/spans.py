"""Benchmark-owned span tracer: class-level wrappers around layer boundaries.

The program under test carries no spans of its own; this module records
them from outside by swapping a class attribute (or a module-level
function) for a wrapper, for every entry of ``boundaries.BOUNDARIES``.
Wrappers are installed for the traced pass only and removed afterwards,
so end-to-end metrics are always measured on unmodified code.

What a wrapper records, while ``tracer.enabled`` (inside a measured
window) is true:

- per ``(span name, layer)``: self seconds, inclusive seconds, calls,
  number of direct children and of all descendants (the last two feed
  the overhead correction below);
- optional exact counters through a boundary's ``pre``/``post`` probes
  (bytes sent, events fired, sync modes, ...);
- for *continuations* — a callback argument the wrapped call registers
  for later (``TxnLog.append(callback=)``, ``DiskModel.write``,
  ``Process.set_timer``, ``ZabPeer.propose_op(callback=)`` and the
  handler given to ``Network.register``): the callback is replaced by a
  wrapped one that opens its own span when it eventually fires, in the
  layer of the span that registered it.  That is how the leader's
  "my own fsync finished, count my ACK, commit" path is charged to
  ``zab.leader`` and not to the disk model or the kernel that happened
  to invoke it.  The simulated time between registration and firing is
  kept as a sample (``storage.append`` -> durable, ``propose_op`` ->
  commit callback).  Callables are never wrapped on their way into
  ``Simulator.schedule``; the only substitutions are the documented
  callback parameters above, none of which the model checker compares
  against ``network._deliver``.
- while ``tracer.recording``: one full record per span (id, parent,
  name, layer, host start/end, simulated start/end, request id), kept
  in memory and written by :meth:`SpanTracer.write_records`.

Overhead correction.  A Python wrapper costs about as much as the small
functions it wraps, so raw self times would mostly measure the tracer.
:func:`calibrate` measures, on this machine and interpreter, the wrapper
cost that lands inside a span's own interval (``c_in``) and the cost
charged to its parent (``c_out``, and ``c_out_rec`` while recording);
:meth:`SpanTracer.corrected` subtracts ``calls * c_in + children *
c_out`` from every self time.  Shares are then taken over the corrected
window (traced window minus the estimated overhead), and whatever the
correction fails to explain is reported as ``trace.unattributed_s_share``
next to ``trace.corrected_vs_untraced_ratio``, never silently spread
over the layers.
"""

import importlib
import json
import os
import time

#: Layer marker: take the layer of the enclosing span (else the default).
INHERIT = "inherit"

_perf = time.perf_counter

# Indices into a per-(name, layer) accumulator.
SELF_S, CALLS, CHILDREN, REC_CHILDREN, TOTAL_S, DESCENDANTS = range(6)
# An open span is a frame [layer, seconds in children, children,
# recorded children, descendants, record]; the wrapper indexes both lists
# with literals because it runs once per span.
_F_LAYER, _F_CHILDREN, _F_RECORD = 0, 2, 5


class Boundary:
    """One wrapped attribute: where it lives and how its span is labelled.

    module / owner / attr
        ``importlib.import_module(module)``, then ``owner`` (a class
        name, or ``None`` for a module-level function), then ``attr``.
    name / layer
        Span name and layer.  ``layer`` may be :data:`INHERIT` (use the
        enclosing span's layer, else ``default_layer``) or a callable
        ``layer(args) -> str``.
    pre / post
        Optional probes.  ``pre(tracer, args, kwargs)`` runs before the
        call and returns a token; ``post(tracer, token, args, result)``
        runs after it.  Both only run inside a measured window.
    callback
        ``(keyword, positional index, span name, layer)`` of a callback
        argument to wrap as a continuation, or ``None``.  The layer is
        a name, ``None`` (the layer of the span that registers it) or a
        callable taking the callback (``None`` from it inherits too).
    """

    def __init__(self, module, owner, attr, name, layer, pre=None,
                 post=None, callback=None, default_layer="harness"):
        self.module = module
        self.owner = owner
        self.attr = attr
        self.name = name
        self.layer = layer
        self.pre = pre
        self.post = post
        self.callback = callback
        self.default_layer = default_layer

    def resolve(self):
        """``(holder, original)`` or ``None`` when the boundary is gone."""
        try:
            holder = importlib.import_module(self.module)
            if self.owner is not None:
                holder = getattr(holder, self.owner)
            # vars(): wrap where the attribute is defined, not inherited.
            original = vars(holder)[self.attr]
        except (ImportError, AttributeError, KeyError):
            return None
        function = getattr(original, "__func__", original)
        if not callable(function):
            return None
        return holder, original


def find_request_id(args):
    """The zxid a call is about, as a tuple, or None.

    Looks for a zxid-like argument (``as_tuple``) or a message-like one
    carrying a ``zxid`` attribute; ``args[0]`` is ``self`` and skipped.
    """
    for arg in args[1:4]:
        zxid = arg if hasattr(arg, "as_tuple") else getattr(arg, "zxid", None)
        as_tuple = getattr(zxid, "as_tuple", None)
        if as_tuple is not None:
            return as_tuple()
    return None


class SpanTracer:
    """Aggregating span recorder; see the module docstring."""

    def __init__(self, keep_records=False, clock=time.perf_counter):
        self.clock = clock            # host clock (tests script it)
        self.enabled = False          # inside a measured window
        self.recording = False        # keep full span records
        self.keep_records = keep_records  # record inside windows
        self.record_clusters = None   # stop after this many Cluster()s
        self.stack = []
        self.acc = {}                 # (name, layer) -> accumulator list
        self.counters = {}
        self.samples = {}             # name -> [simulated seconds]
        self.records = []
        self.sim = None               # the Simulator currently running
        self.window_s = 0.0
        self.missing = []             # span names whose boundary is gone
        self.queues = {}              # scratch state for probes
        self._installed = []
        self._next_id = 0

    # ------------------------------------------------------------------
    # Windows and manual spans
    # ------------------------------------------------------------------

    def measure(self, fn, *args):
        """Run ``fn(*args)`` as a measured window; returns host seconds."""
        self.enabled = True
        self.recording = self.keep_records
        started = self.clock()
        try:
            fn(*args)
        finally:
            elapsed = self.clock() - started
            self.enabled = False
            self.recording = False
            self.window_s += elapsed
        return elapsed

    def stop_recording(self):
        """Keep no further full records (aggregates continue)."""
        self.keep_records = False
        self.recording = False

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def current_layer(self):
        """Layer of the innermost open span, or None outside any span."""
        return self.stack[-1][_F_LAYER] if self.stack else None

    def sim_now(self):
        sim = self.sim
        return sim.now if sim is not None else None

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------

    def wrap(self, fn, name, layer, default_layer="harness", pre=None,
             post=None, callback=None, request_id=None, registered_at=None):
        """Return *fn* wrapped in a span called *name* (see Boundary)."""
        tracer = self
        stack = self.stack
        acc_table = self.acc
        clock = self.clock
        static = isinstance(layer, str) and layer != INHERIT
        static_acc = self._accumulator(name, layer) if static else None
        inherit = layer == INHERIT
        samples = None
        if registered_at is not None:
            samples = self.samples.setdefault(name, [])

        def wrapper(*args, **kwargs):
            if callback is not None:
                # Always, not only inside a window: handlers and timers
                # registered during boot fire inside the window later.
                args = tracer._swap_callback(args, kwargs, callback)
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if static:
                span_layer = layer
                acc = static_acc
            else:
                if inherit:
                    span_layer = stack[-1][0] if stack else default_layer
                else:
                    span_layer = layer(args)
                acc = acc_table.get((name, span_layer))
                if acc is None:
                    acc = tracer._accumulator(name, span_layer)
            token = pre(tracer, args, kwargs) if pre is not None else None
            if samples is not None and tracer.sim is not None:
                samples.append(tracer.sim.now - registered_at)
            record = None
            if tracer.recording:
                record = tracer._open_record(
                    name, span_layer, args, request_id
                )
            frame = [span_layer, 0.0, 0, 0, 0, record]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                elapsed = ended - started
                acc[0] += elapsed - frame[1]
                acc[1] += 1
                acc[2] += frame[2]
                acc[3] += frame[3]
                acc[4] += elapsed
                acc[5] += frame[4]
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    parent[2] += 1
                    parent[4] += frame[4] + 1
                    if record is not None:
                        parent[3] += 1
                if record is not None:
                    tracer._close_record(record, started, ended)
            if post is not None:
                post(tracer, token, args, result)
            return result

        return wrapper

    def _accumulator(self, name, layer):
        acc = self.acc.get((name, layer))
        if acc is None:
            acc = self.acc[(name, layer)] = [0.0, 0, 0, 0, 0.0, 0]
        return acc

    def _swap_callback(self, args, kwargs, spec):
        """Replace the callback argument named by *spec* with a span."""
        keyword, index, name, layer = spec
        if keyword in kwargs:
            original = kwargs[keyword]
            if original is not None:
                kwargs[keyword] = self._continuation(
                    original, name, layer, args
                )
        elif len(args) > index and args[index] is not None:
            wrapped = self._continuation(args[index], name, layer, args)
            args = args[:index] + (wrapped,) + args[index + 1:]
        return args

    def _continuation(self, fn, name, layer, args):
        """Wrap a registered callback.  *layer* is a layer name, None
        (inherit the registering span's layer, ``zab.peer`` outside any
        span) or ``layer(fn) -> name or None`` (None inherits)."""
        stack = self.stack
        request_id = None
        inherited = "zab.peer"
        if stack:
            top = stack[-1]
            inherited = top[_F_LAYER]
            # Building the closure costs about one more wrapper exit;
            # book it on the registering span as one more child.
            top[_F_CHILDREN] += 1
            record = top[_F_RECORD]
            if record is not None:
                request_id = record[8]
        if request_id is None and self.recording:
            request_id = find_request_id(args)
        if layer is None:
            span_layer = inherited
        elif callable(layer):
            span_layer = layer(fn) or inherited
        else:
            span_layer = layer
        return self.wrap(
            fn, name, span_layer, request_id=request_id,
            # Only inherited continuations are request-shaped (append ->
            # durable, propose -> commit); a handler fires per message.
            registered_at=self.sim_now() if layer is None else None,
        )

    # ------------------------------------------------------------------
    # Full records
    # ------------------------------------------------------------------

    def _open_record(self, name, layer, args, request_id):
        # [id, parent id, name, layer, host start, host end, sim start,
        #  sim end, request id, parent record]
        self._next_id += 1
        parent = self.stack[-1][_F_RECORD] if self.stack else None
        if request_id is None:
            request_id = find_request_id(args)
        if request_id is None and parent is not None:
            request_id = parent[8]
        record = [
            self._next_id, parent[0] if parent is not None else None,
            name, layer, None, None, self.sim_now(), None, request_id,
            parent,
        ]
        # A call learns its zxid from the child that assigns it
        # (propose_op -> record_broadcast), so hand it up the chain.
        while (request_id is not None and parent is not None
               and parent[8] is None):
            parent[8] = request_id
            parent = parent[9]
        return record

    def _close_record(self, record, started, ended):
        record[4] = started
        record[5] = ended
        record[7] = self.sim_now()
        self.records.append(record)

    def write_records(self, path):
        """Write the kept span records as JSON lines; returns the count."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        records = sorted(self.records, key=lambda record: record[0])
        with open(path, "w") as out:
            for record in records:
                out.write(json.dumps({
                    "id": record[0], "parent": record[1],
                    "name": record[2], "layer": record[3],
                    "host_start_s": record[4], "host_end_s": record[5],
                    "sim_start_s": record[6], "sim_end_s": record[7],
                    "request": record[8],
                }) + "\n")
        return len(records)

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------

    def install(self, boundaries):
        """Swap every resolvable boundary for its wrapper."""
        for boundary in boundaries:
            resolved = boundary.resolve()
            if resolved is None:
                self.missing.append(boundary.name)
                continue
            holder, original = resolved
            function = original
            kind = None
            if isinstance(original, (staticmethod, classmethod)):
                kind = type(original)
                function = original.__func__
            wrapper = self.wrap(
                function, boundary.name, boundary.layer,
                default_layer=boundary.default_layer, pre=boundary.pre,
                post=boundary.post, callback=boundary.callback,
            )
            setattr(holder, boundary.attr,
                    kind(wrapper) if kind is not None else wrapper)
            self._installed.append((holder, boundary.attr, original))
        return self

    def uninstall(self):
        """Put every original attribute back (reverse order)."""
        while self._installed:
            holder, attr, original = self._installed.pop()
            setattr(holder, attr, original)


class Corrected:
    """Self/inclusive seconds with the wrapper's own cost removed.

    The per-span costs come from :func:`calibrate`.  Measured in
    isolation they understate what a wrapper costs inside the real
    program (colder caches, argument packing on longer signatures), so
    when the untraced window is known the three costs are scaled by one
    factor such that the estimated overhead equals what was actually
    observed, ``traced window - untraced window``; the factor is
    reported as ``trace.calibration_scale``.
    """

    def __init__(self, tracer, calibration, untraced_window_s=None):
        c_in = calibration["c_in_s"]
        c_out = calibration["c_out_s"]
        c_rec = max(0.0, calibration["c_out_rec_s"] - c_out)

        def cost(acc, factor=1.0):
            return factor * (acc[CALLS] * c_in + acc[CHILDREN] * c_out
                             + acc[REC_CHILDREN] * c_rec)

        self.scale = 1.0
        if untraced_window_s is not None:
            estimated = sum(cost(acc) for acc in tracer.acc.values())
            observed = tracer.window_s - untraced_window_s
            if estimated > 0 and observed > 0:
                self.scale = observed / estimated
        scale = self.scale
        self.missing = set(tracer.missing)
        self.window_s = tracer.window_s
        self.self_s = {}      # (name, layer) -> seconds
        self.total_s = {}     # name -> inclusive seconds
        self.calls = {}       # name -> calls
        self.layer_calls = {}  # (name, layer) -> calls
        overhead = 0.0
        for (name, layer), acc in tracer.acc.items():
            own = cost(acc, scale)
            self.self_s[(name, layer)] = max(0.0, acc[SELF_S] - own)
            overhead += min(own, acc[SELF_S])
            inclusive = acc[TOTAL_S] - scale * (
                acc[DESCENDANTS] * (c_in + c_out) + acc[CALLS] * c_in)
            self.total_s[name] = (
                self.total_s.get(name, 0.0) + max(0.0, inclusive)
            )
            self.calls[name] = self.calls.get(name, 0) + acc[CALLS]
            self.layer_calls[(name, layer)] = acc[CALLS]
        self.overhead_s = overhead
        #: Host seconds of the window once the tracer's own cost is out.
        self.corrected_window_s = max(self.window_s - overhead, 1e-12)

    def layer_self_s(self):
        """``{layer: corrected self seconds}`` over every span."""
        layers = {}
        for (_name, layer), seconds in self.self_s.items():
            layers[layer] = layers.get(layer, 0.0) + seconds
        return layers

    def name_self_s(self, name):
        """Corrected self seconds of span *name*; None if it is gone."""
        if name in self.missing:
            return None
        return sum(
            seconds for (span, _layer), seconds in self.self_s.items()
            if span == name
        )

    def name_calls(self, name):
        if name in self.missing:
            return None
        return self.calls.get(name, 0)

    def calls_in_layer(self, name, layer):
        if name in self.missing:
            return None
        return self.layer_calls.get((name, layer), 0)

    def name_total_s(self, name):
        """Corrected inclusive seconds of span *name* (not re-entrant)."""
        if name in self.missing:
            return None
        return self.total_s.get(name, 0.0)


class _CalibrationTarget:
    def leaf(self, a, b):
        return None

    def parent(self, count):
        leaf = self.leaf
        for _ in range(count):
            leaf(1, 2)


def calibrate(rounds=5, count=20000):
    """Measure the wrapper's cost per span on this machine.

    Returns ``{"c_in_s", "c_out_s", "c_out_rec_s"}``: seconds of wrapper
    cost inside the span's own interval, charged to its parent, and
    charged to its parent while full records are kept.  Each is the
    median of *rounds* runs of *count* no-op spans under one parent.
    """
    def one(recording):
        tracer = SpanTracer(keep_records=recording)
        target = _CalibrationTarget()
        started = _perf()
        for _ in range(count):
            pass
        loop = (_perf() - started) / count
        started = _perf()
        target.parent(count)
        call = max(0.0, (_perf() - started) / count - loop)
        target.leaf = tracer.wrap(
            target.leaf, "calibration.leaf", "calibration"
        )
        parent = tracer.wrap(
            target.parent, "calibration.parent", "calibration"
        )
        tracer.measure(parent, count)
        leaf_acc = tracer.acc[("calibration.leaf", "calibration")]
        parent_acc = tracer.acc[("calibration.parent", "calibration")]
        c_in = max(0.0, leaf_acc[SELF_S] / count - call)
        c_out = max(0.0, parent_acc[SELF_S] / count - loop)
        return c_in, c_out

    def median(values):
        ordered = sorted(values)
        return ordered[len(ordered) // 2]

    plain = [one(False) for _ in range(rounds)]
    recorded = [one(True) for _ in range(rounds)]
    return {
        "c_in_s": median([c_in for c_in, _ in plain]),
        "c_out_s": median([c_out for _, c_out in plain]),
        "c_out_rec_s": median([c_out for _, c_out in recorded]),
    }
