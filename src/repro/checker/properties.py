"""Executable versions of the paper's PO atomic broadcast properties.

The checks operate on a :class:`~repro.checker.trace.Trace`:

- **integrity** — only broadcast transactions are delivered, with the
  identifier they were broadcast under;
- **total order** — realised as *position consistency*: the union of all
  replica histories forms a single well-defined sequence (no two processes
  ever disagree about which transaction sits at a given position);
- **agreement** — each incarnation's delivery positions are gapless, so
  replica histories are prefixes of one another (modulo snapshot bases);
- **local primary order** — the delivered transactions of an epoch are a
  prefix of that epoch's broadcast sequence, in broadcast order;
- **global primary order** — epochs never decrease along the history;
- **primary integrity** — a primary broadcasts only after its own state
  reflects every transaction of earlier epochs that any process delivers.

A trace from a correct Zab run must pass all six; the Paxos baseline run
of experiment E4 fails local and global primary order, exactly as the
paper argues.
"""

from bisect import bisect_left


class Violation:
    """One property violation with enough context to debug it.

    It names its events by row (``refs``: a delivery row, or ``~row``
    for a broadcast) and builds :attr:`events` as read-only views of
    *trace* on each access."""

    __slots__ = ("prop", "message", "trace", "refs")

    def __init__(self, prop, message, trace, refs):
        self.prop = prop
        self.message = message
        self.trace = trace
        self.refs = tuple(refs)

    @property
    def events(self):
        return tuple(map(self.trace.event, self.refs))

    def __repr__(self):
        return "Violation(%s: %s)" % (self.prop, self.message)


class PropertyReport:
    """Outcome of checking one trace."""

    def __init__(self, violations, stats):
        self.violations = list(violations)
        self.stats = stats

    @property
    def ok(self):
        return not self.violations

    def violated_properties(self):
        """The set of property names that failed."""
        return {violation.prop for violation in self.violations}

    def __repr__(self):
        if self.ok:
            return "<PropertyReport OK %r>" % (self.stats,)
        return "<PropertyReport %d violations: %s>" % (
            len(self.violations),
            sorted(self.violated_properties()),
        )


# -- one violation each; CheckerState builds the same ones ---------------

def _total_order_violation(trace, existing, row):
    first, event = trace.delivery(existing), trace.delivery(row)
    return Violation(
        "total_order",
        "position %d holds %s at %s but %s at %s"
        % (event.position, first.txn_id, first.process, event.txn_id,
           event.process),
        trace, (existing, row),
    )


def _misdelivery_violation(trace, row, origin):
    event, source = trace.delivery(row), trace.broadcast(origin)
    return Violation(
        "integrity",
        "%s delivered under %r but broadcast as %r"
        % (event.txn_id, event.zxid, source.zxid),
        trace, (row, ~origin),
    )


def _agreement_violation(trace, row, previous):
    event = trace.delivery(row)
    return Violation(
        "agreement",
        "%s/inc%d jumped from position %d to %d"
        % (event.process, event.incarnation, previous, event.position),
        trace, (row,),
    )


def _global_order_violation(trace, previous_row, row):
    previous, event = trace.delivery(previous_row), trace.delivery(row)
    return Violation(
        "global_primary_order",
        "epoch %d txn %s delivered after epoch %d txn %s"
        % (event.epoch, event.txn_id, previous.epoch, previous.txn_id),
        trace, (previous_row, row),
    )


def _primary_integrity_violation(trace, first_row, epoch, row, position,
                                 covered):
    first, delivery = trace.broadcast(first_row), trace.delivery(row)
    return Violation(
        "primary_integrity",
        "primary %s of epoch %d broadcast before covering "
        "%s (epoch %d, position %d > covered %d)"
        % (first.primary, epoch, delivery.txn_id, delivery.epoch, position,
           covered),
        trace, (~first_row, row),
    )


# -- the six properties, streamed over the trace's columns ---------------

def _union_history(trace, violations):
    """Build position -> delivery row, flagging total-order conflicts."""
    history = {}
    txns = trace.delivery_txns
    for row, position in enumerate(trace.delivery_column("position")):
        existing = history.setdefault(position, row)
        if txns[existing] != txns[row]:
            violations.append(_total_order_violation(trace, existing, row))
    return history


def check_integrity(trace, violations):
    """Every delivery corresponds to a broadcast with matching identity."""
    origin_of = {txn: row for row, txn in enumerate(trace.broadcast_txns)}
    origin_epochs = trace.broadcast_column("zxid_epoch")
    origin_counters = trace.broadcast_column("zxid_counter")
    for row, (txn, zxid_epoch, zxid_counter) in enumerate(zip(
            trace.delivery_txns, trace.delivery_column("zxid_epoch"),
            trace.delivery_column("zxid_counter"))):
        origin = origin_of.get(txn)
        if origin is None:
            violations.append(Violation(
                "integrity", "delivered %s was never broadcast" % txn,
                trace, (row,),
            ))
            continue
        if (origin_epochs[origin] != zxid_epoch
                or origin_counters[origin] != zxid_counter):
            violations.append(_misdelivery_violation(trace, row, origin))


def check_agreement(trace, violations):
    """Within each incarnation, positions are strictly increasing and
    gapless; across processes, histories are mutually consistent."""
    last = {}       # (process, incarnation) -> position, first-seen order
    found = {}      # (process, incarnation) -> its violations
    for row, (process, incarnation, position) in enumerate(zip(
            trace.delivery_column("process"),
            trace.delivery_column("incarnation"),
            trace.delivery_column("position"))):
        key = (process, incarnation)
        previous = last.get(key)
        if previous is not None and position != previous + 1:
            found.setdefault(key, []).append(
                _agreement_violation(trace, row, previous))
        last[key] = position
    for key in last:
        violations.extend(found.get(key, ()))


def check_local_primary_order(trace, history, violations):
    """Deliveries of each epoch form a prefix of its broadcast order."""
    broadcast_order = {}
    for epoch, txn in zip(trace.broadcast_column("epoch"),
                          trace.broadcast_txns):
        broadcast_order.setdefault(epoch, []).append(txn)
    epochs = trace.delivery_column("epoch")
    txns = trace.delivery_txns
    delivered_by_epoch = {}
    for position in sorted(history):
        row = history[position]
        delivered_by_epoch.setdefault(epochs[row], []).append(row)
    for epoch, delivered in delivered_by_epoch.items():
        expected = broadcast_order.get(epoch, [])[: len(delivered)]
        actual = [txns[row] for row in delivered]
        if actual != expected:
            violations.append(Violation(
                "local_primary_order",
                "epoch %d delivered %r but primary broadcast %r"
                % (epoch, actual, expected),
                trace, delivered,
            ))


def check_global_primary_order(trace, history, violations):
    """Epochs are non-decreasing along the union history."""
    epochs = trace.delivery_column("epoch")
    previous = None
    for position in sorted(history):
        row = history[position]
        if previous is not None and epochs[row] < epochs[previous]:
            violations.append(_global_order_violation(trace, previous, row))
        previous = row


def check_primary_integrity(trace, history, violations):
    """A primary's first broadcast happens only after its state covers
    every earlier-epoch transaction that is ever delivered anywhere."""
    txns = trace.delivery_txns
    position_of = {txns[row]: position for position, row in history.items()}
    first_broadcast = {}
    for row, epoch in enumerate(trace.broadcast_column("epoch")):
        first_broadcast.setdefault(epoch, row)
    indices = trace.delivery_column("index")
    processes = trace.delivery_column("process")
    positions = trace.delivery_column("position")
    for epoch, first in first_broadcast.items():
        opening = trace.broadcast(first)
        before = bisect_left(indices, opening.index)    # indices ascend
        covered = max((
            position for process, position
            in zip(processes[:before], positions[:before])
            if process == opening.primary
        ), default=0)
        for row, (delivery_epoch, txn) in enumerate(zip(
                trace.delivery_column("epoch"), txns)):
            if delivery_epoch >= epoch:
                continue
            position = position_of.get(txn)
            if position is not None and position > covered:
                violations.append(_primary_integrity_violation(
                    trace, first, epoch, row, position, covered))
                break  # one violation per epoch is enough signal


def check_all(trace):
    """Run every property; returns a :class:`PropertyReport`."""
    violations = []
    history = _union_history(trace, violations)
    check_integrity(trace, violations)
    check_agreement(trace, violations)
    check_local_primary_order(trace, history, violations)
    check_global_primary_order(trace, history, violations)
    check_primary_integrity(trace, history, violations)
    return PropertyReport(violations, trace.stats())
