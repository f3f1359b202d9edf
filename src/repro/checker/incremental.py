"""Incremental PO-property checking.

:func:`~repro.checker.properties.check_all` re-reads the whole trace —
six passes, two dict builds, and a sort — every time it is called.  That
is fine once at the end of an experiment, but the bounded explorer
(:mod:`repro.mc`) asks for a verdict at *every* terminal state, so the
post-hoc pass made checking cost O(states × history).

:class:`CheckerState` maintains the same verdict online.  It consumes
broadcast/delivery events one at a time, in global index order (attach
it to a :class:`~repro.checker.trace.Trace` and the trace feeds it each
row's fields), and keeps per-property running state (positions, txn
ids and row numbers, never event objects) so that :meth:`report`
answers in O(1) for the overwhelmingly common case — a clean, in-order
trace.

Exactness contract
------------------

``CheckerState.report()`` returns the same violations — property names
*and* messages — as ``check_all`` over the same events, as a multiset
(relative order across properties may differ).  The trick is that the
eager per-event checks are only trusted on trace shapes where they are
provably equivalent to the post-hoc pass; anything retroactive — a
transaction re-broadcast after deliveries, a delivery before its
broadcast, a union-history position filled out of order, a txn_id
appearing at two positions — flips a per-property *dirty* flag, and
:meth:`report` falls back to the stock :mod:`repro.checker.properties`
function for that property.  Dirty traces are the buggy ones, where a
full re-check is exactly what you want anyway; clean executions (every
explorer state that finds nothing) never pay it.  The corpus and
hypothesis equivalence tests in ``tests/`` hold the two checkers to the
multiset-equality contract.
"""

from repro.checker.properties import (
    _agreement_violation,
    _global_order_violation,
    _misdelivery_violation,
    _primary_integrity_violation,
    _total_order_violation,
    PropertyReport,
    check_global_primary_order,
    check_integrity,
    check_local_primary_order,
    check_primary_integrity,
)
from repro.checker.trace import BROADCAST_FIELDS, DELIVERY_FIELDS

_B = len(BROADCAST_FIELDS)
_ZXID = BROADCAST_FIELDS.index("zxid_epoch")
_D = len(DELIVERY_FIELDS)
_EPOCH = DELIVERY_FIELDS.index("epoch")


class CheckerState:
    """Online mirror of :func:`~repro.checker.properties.check_all`.

    :meth:`attach` wires it to a live :class:`Trace`, whose ``record_*``
    calls feed it each event's row through :meth:`observe_broadcast` /
    :meth:`observe_delivery` in global index order; read the verdict at
    any point via :attr:`ok`, :meth:`report`, or
    :meth:`violated_properties`.
    """

    def __init__(self):
        self._trace = None
        self._delivered_rows = 0      # deliveries observed so far
        # -- total order: union history, first row per position wins.
        self._history = {}            # position -> delivery row
        self._to_violations = []
        # -- integrity: last broadcast row per txn_id (post-hoc dict
        #    comprehension semantics).  Dirty on re-broadcast or on a
        #    delivery that precedes its broadcast.
        self._txn_broadcast = {}      # txn_id -> broadcast row
        self._delivered_txns = set()
        self._integrity_violations = []
        self._integrity_dirty = False
        # -- agreement: last position per (process, incarnation).
        self._last_position = {}
        self._agreement_violations = []
        # -- local/global primary order over the union history.  Eager
        #    checks assume positions fill in increasing order (true for
        #    every real execution); any regression sets _order_dirty.
        self._epoch_broadcast_txns = {}   # epoch -> [txn_id, ...]
        self._epoch_counts = {}           # epoch -> history inserts so far
        self._max_position = None
        self._last_inserted = None        # delivery row at _max_position
        self._order_dirty = False
        self._lpo_dirty = False
        self._gpo_violations = []
        # -- primary integrity: per-epoch (covered, still-open) entries;
        #    consuming events in index order makes "delivered before the
        #    epoch's first broadcast" a simple running max per process.
        self._txn_position = {}           # txn_id -> history position
        self._process_max_position = {}
        self._pi_open = []                # [epoch, covered, first row]
        self._pi_violations = {}          # epoch -> Violation
        self._pi_dirty = False
        self._report_cache = None

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------

    @classmethod
    def attach(cls, trace):
        """Create a state wired to *trace*: catches up on anything the
        trace already holds (in index order), then observes every
        subsequent ``record_*`` call."""
        state = cls()
        state._trace = trace
        trace.replay_to(state)
        trace.add_observer(state)
        return state

    def observe_broadcast(self, row, primary, epoch, zxid_epoch,
                          zxid_counter, txn):
        """Consume broadcast *row* of the attached trace."""
        self._report_cache = None
        txn_broadcast = self._txn_broadcast
        if txn in txn_broadcast or txn in self._delivered_txns:
            # Re-broadcast (last-wins map shifts under old verdicts) or
            # broadcast-after-delivery: the post-hoc pass judges earlier
            # deliveries against this later event, so eager verdicts for
            # the whole property are void.
            self._integrity_dirty = True
        txn_broadcast[txn] = row
        txns = self._epoch_broadcast_txns.get(epoch)
        if txns is None:
            txns = self._epoch_broadcast_txns[epoch] = []
            self._first_broadcast_of_epoch(row, primary, epoch)
        txns.append(txn)

    def observe_delivery(self, row, process, incarnation, position,
                         zxid_epoch, zxid_counter, epoch, txn):
        """Consume delivery *row* of the attached trace."""
        self._report_cache = None
        self._delivered_rows = row + 1
        prior_delivered = txn in self._delivered_txns
        self._delivered_txns.add(txn)

        # Total order: first event at a position defines it.
        existing = self._history.setdefault(position, row)
        if existing == row:
            self._note_history_insert(row, position, epoch, txn,
                                      prior_delivered)
        elif self._trace.delivery_txns[existing] != txn:
            self._to_violations.append(
                _total_order_violation(self._trace, existing, row))

        # Integrity: judge against the broadcast seen so far; a missing
        # origin might be filled in later, so it defers to report time.
        if not self._integrity_dirty:
            origin = self._txn_broadcast.get(txn)
            if origin is None:
                self._integrity_dirty = True
            else:
                broadcast_ints = self._trace.broadcast_ints
                base = origin * _B + _ZXID
                if (broadcast_ints[base] != zxid_epoch
                        or broadcast_ints[base + 1] != zxid_counter):
                    self._integrity_violations.append(
                        _misdelivery_violation(self._trace, row, origin))

        # Agreement: per-incarnation positions must step by exactly 1.
        key = (process, incarnation)
        previous = self._last_position.get(key)
        if previous is not None and position != previous + 1:
            self._agreement_violations.append(
                _agreement_violation(self._trace, row, previous))
        self._last_position[key] = position

        # Primary integrity: any still-open later epoch is on the hook
        # for this delivery if it belongs to an earlier epoch.
        if self._pi_open and not self._pi_dirty:
            self._check_open_epochs(row, epoch, txn)

        pmax = self._process_max_position
        if position > pmax.get(process, 0):
            pmax[process] = position

    # ------------------------------------------------------------------
    # Per-event helpers
    # ------------------------------------------------------------------

    def _note_history_insert(self, row, position, epoch, txn,
                             prior_delivered):
        """Update order-sensitive state for a new union-history position."""
        txn_position = self._txn_position
        if prior_delivered or txn in txn_position:
            # The txn's final history position may differ from what any
            # earlier primary-integrity comparison used.
            self._pi_dirty = True
        txn_position[txn] = position
        max_position = self._max_position
        if max_position is not None and position < max_position:
            # Out-of-order fill: the sorted union history no longer
            # matches arrival order, so both order properties re-derive
            # from scratch at report time.
            self._order_dirty = True
            return
        last = self._last_inserted
        if last is not None and epoch < self._trace.delivery_ints[
                last * _D + _EPOCH]:
            self._gpo_violations.append(
                _global_order_violation(self._trace, last, row))
        self._max_position = position
        self._last_inserted = row
        if not self._lpo_dirty:
            count = self._epoch_counts.get(epoch, 0)
            txns = self._epoch_broadcast_txns.get(epoch)
            if txns is None or count >= len(txns) or txns[count] != txn:
                self._lpo_dirty = True
            self._epoch_counts[epoch] = count + 1

    def _first_broadcast_of_epoch(self, row, primary, epoch):
        """Open a primary-integrity obligation for a new epoch.

        Because events arrive in index order, "deliveries by the primary
        before this broadcast" is just the current running max — and the
        deliveries observed so far are scanned once, here, in row order
        (exactly the post-hoc scan order)."""
        if self._pi_dirty:
            return
        covered = self._process_max_position.get(primary, 0)
        txn_position = self._txn_position
        trace = self._trace
        scanned = zip(trace.delivery_column("epoch")[:self._delivered_rows],
                      trace.delivery_txns)
        for delivery_row, (delivery_epoch, txn) in enumerate(scanned):
            if delivery_epoch >= epoch:
                continue
            position = txn_position.get(txn)
            if position is not None and position > covered:
                self._pi_violations[epoch] = _primary_integrity_violation(
                    trace, row, epoch, delivery_row, position, covered
                )
                return
        self._pi_open.append((epoch, covered, row))

    def _check_open_epochs(self, row, epoch, txn):
        position = self._txn_position.get(txn)
        if position is None:
            return
        pi_open = self._pi_open
        closed = False
        for open_epoch, covered, first in pi_open:
            # One delivery can be the first violator of several epochs
            # at once (the post-hoc pass scans per epoch independently).
            if epoch < open_epoch and position > covered:
                self._pi_violations[open_epoch] = (
                    _primary_integrity_violation(
                        self._trace, first, open_epoch, row, position,
                        covered))
                closed = True
        if closed:
            violations = self._pi_violations
            pi_open[:] = [
                entry for entry in pi_open if entry[0] not in violations
            ]

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------

    @property
    def ok(self):
        """True when the events so far satisfy all six properties."""
        return not self.report().violations

    def violated_properties(self):
        """The set of property names violated so far."""
        return self.report().violated_properties()

    def report(self):
        """A :class:`~repro.checker.properties.PropertyReport` equal (as
        a violation multiset) to ``check_all`` over the observed events.

        Cached until the next observed event; on a clean in-order trace
        this is O(1), and each dirty property re-derives through the
        stock post-hoc code over the attached trace."""
        cached = self._report_cache
        if cached is not None:
            return cached
        violations = list(self._to_violations)
        trace = self._trace
        if self._integrity_dirty:
            check_integrity(trace, violations)
        else:
            violations.extend(self._integrity_violations)
        violations.extend(self._agreement_violations)
        if self._order_dirty or self._lpo_dirty:
            check_local_primary_order(trace, self._history, violations)
        if self._order_dirty:
            check_global_primary_order(trace, self._history, violations)
        else:
            violations.extend(self._gpo_violations)
        if self._pi_dirty:
            check_primary_integrity(trace, self._history, violations)
        else:
            violations.extend(self._pi_violations.values())
        report = PropertyReport(violations, {   # Trace.stats(), no walk
            "broadcasts": len(trace.broadcast_txns),
            "deliveries": self._delivered_rows,
            # Positions count from 1: every delivering process has a max.
            "processes": len(self._process_max_position),
            "epochs": sorted(self._epoch_broadcast_txns),
        })
        self._report_cache = report
        return report

    def __repr__(self):
        return "<CheckerState %d broadcasts, %d deliveries, %s>" % (
            len(self._trace.broadcast_txns),
            self._delivered_rows,
            "ok" if self.ok else sorted(self.violated_properties()),
        )
