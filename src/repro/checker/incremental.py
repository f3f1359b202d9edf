"""Incremental PO-property checking.

:func:`~repro.checker.properties.check_all` re-reads the whole trace —
six passes, two dict builds, and a sort — every time it is called.  That
is fine once at the end of an experiment, but the bounded explorer
(:mod:`repro.mc`) asks for a verdict at *every* terminal state, so the
post-hoc pass made checking cost O(states × history).

:class:`CheckerState` maintains the same verdict online.  It consumes
broadcast/delivery events one at a time, in global index order (attach
it to a :class:`~repro.checker.trace.Trace` and the trace feeds it), and
keeps per-property running state so that :meth:`report` answers in O(1)
for the overwhelmingly common case — a clean, in-order trace.

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
    PropertyReport,
    Violation,
    check_global_primary_order,
    check_integrity,
    check_local_primary_order,
    check_primary_integrity,
)
from repro.checker.trace import Trace


class CheckerState:
    """Online mirror of :func:`~repro.checker.properties.check_all`.

    Feed it events with :meth:`observe_broadcast` /
    :meth:`observe_delivery` in global index order — or let
    :meth:`attach` wire it to a live :class:`Trace` — and read the
    verdict at any point via :attr:`ok`, :meth:`report`, or
    :meth:`violated_properties`.
    """

    def __init__(self):
        self._broadcasts = []
        self._deliveries = []
        # -- total order: union history, first event per position wins.
        self._history = {}            # position -> DeliveryEvent
        self._to_violations = []
        # -- integrity: last broadcast per txn_id (post-hoc dict
        #    comprehension semantics).  Dirty on re-broadcast or on a
        #    delivery that precedes its broadcast.
        self._txn_broadcast = {}      # txn_id -> BroadcastEvent
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
        self._last_inserted = None        # event at _max_position
        self._order_dirty = False
        self._lpo_dirty = False
        self._gpo_violations = []
        # -- primary integrity: per-epoch (covered, still-open) entries;
        #    consuming events in index order makes "delivered before the
        #    epoch's first broadcast" a simple running max per process.
        self._txn_position = {}           # txn_id -> history position
        self._process_max_position = {}
        self._pi_seen_epochs = set()
        self._pi_open = []                # [epoch, covered, first_event]
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
        backlog = sorted(
            [(event.index, True, event) for event in trace.broadcasts]
            + [(event.index, False, event) for event in trace.deliveries]
        )
        for _index, is_broadcast, event in backlog:
            if is_broadcast:
                state.observe_broadcast(event)
            else:
                state.observe_delivery(event)
        trace.add_observer(state)
        return state

    def observe_broadcast(self, event):
        """Consume one :class:`~repro.checker.trace.BroadcastEvent`."""
        self._report_cache = None
        self._broadcasts.append(event)
        txn = event.txn_id
        txn_broadcast = self._txn_broadcast
        if txn in txn_broadcast or txn in self._delivered_txns:
            # Re-broadcast (last-wins map shifts under old verdicts) or
            # broadcast-after-delivery: the post-hoc pass judges earlier
            # deliveries against this later event, so eager verdicts for
            # the whole property are void.
            self._integrity_dirty = True
        txn_broadcast[txn] = event
        epoch = event.epoch
        txns = self._epoch_broadcast_txns.get(epoch)
        if txns is None:
            txns = self._epoch_broadcast_txns[epoch] = []
        txns.append(txn)
        if epoch not in self._pi_seen_epochs:
            self._pi_seen_epochs.add(epoch)
            self._first_broadcast_of_epoch(event)

    def observe_delivery(self, event):
        """Consume one :class:`~repro.checker.trace.DeliveryEvent`."""
        self._report_cache = None
        self._deliveries.append(event)
        txn = event.txn_id
        position = event.position
        prior_delivered = txn in self._delivered_txns
        self._delivered_txns.add(txn)

        # Total order: first event at a position defines it.
        history = self._history
        existing = history.get(position)
        if existing is None:
            history[position] = event
            self._note_history_insert(event, prior_delivered)
        elif existing.txn_id != txn:
            self._to_violations.append(
                Violation(
                    "total_order",
                    "position %d holds %s at %s but %s at %s"
                    % (
                        position,
                        existing.txn_id,
                        existing.process,
                        txn,
                        event.process,
                    ),
                    [existing, event],
                )
            )

        # Integrity: judge against the broadcast seen so far; a missing
        # origin might be filled in later, so it defers to report time.
        if not self._integrity_dirty:
            origin = self._txn_broadcast.get(txn)
            if origin is None:
                self._integrity_dirty = True
            elif origin.zxid != event.zxid:
                self._integrity_violations.append(
                    Violation(
                        "integrity",
                        "%s delivered under %r but broadcast as %r"
                        % (txn, event.zxid, origin.zxid),
                        [event, origin],
                    )
                )

        # Agreement: per-incarnation positions must step by exactly 1.
        key = (event.process, event.incarnation)
        previous = self._last_position.get(key)
        if previous is not None and position != previous + 1:
            self._agreement_violations.append(
                Violation(
                    "agreement",
                    "%s/inc%d jumped from position %d to %d"
                    % (event.process, event.incarnation, previous, position),
                    [event],
                )
            )
        self._last_position[key] = position

        # Primary integrity: any still-open later epoch is on the hook
        # for this delivery if it belongs to an earlier epoch.
        if self._pi_open and not self._pi_dirty:
            self._check_open_epochs(event)

        pmax = self._process_max_position
        process = event.process
        if position > pmax.get(process, 0):
            pmax[process] = position

    # ------------------------------------------------------------------
    # Per-event helpers
    # ------------------------------------------------------------------

    def _note_history_insert(self, event, prior_delivered):
        """Update order-sensitive state for a new union-history position."""
        position = event.position
        txn = event.txn_id
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
        if last is not None and event.epoch < last.epoch:
            self._gpo_violations.append(
                Violation(
                    "global_primary_order",
                    "epoch %d txn %s delivered after epoch %d txn %s"
                    % (event.epoch, txn, last.epoch, last.txn_id),
                    [last, event],
                )
            )
        self._max_position = position
        self._last_inserted = event
        if not self._lpo_dirty:
            epoch = event.epoch
            count = self._epoch_counts.get(epoch, 0)
            txns = self._epoch_broadcast_txns.get(epoch)
            if txns is None or count >= len(txns) or txns[count] != txn:
                self._lpo_dirty = True
            self._epoch_counts[epoch] = count + 1

    def _first_broadcast_of_epoch(self, event):
        """Open a primary-integrity obligation for a new epoch.

        Because events arrive in index order, "deliveries by the primary
        before this broadcast" is just the current running max — and the
        backlog of earlier-epoch deliveries is scanned once, here, in
        list order (exactly the post-hoc scan order)."""
        if self._pi_dirty:
            return
        epoch = event.epoch
        covered = self._process_max_position.get(event.primary, 0)
        txn_position = self._txn_position
        for delivery in self._deliveries:
            if delivery.epoch >= epoch:
                continue
            position = txn_position.get(delivery.txn_id)
            if position is not None and position > covered:
                self._pi_violations[epoch] = self._pi_violation(
                    event, epoch, delivery, position, covered
                )
                return
        self._pi_open.append((epoch, covered, event))

    def _check_open_epochs(self, delivery):
        epoch = delivery.epoch
        position = self._txn_position.get(delivery.txn_id)
        if position is None:
            return
        pi_open = self._pi_open
        closed = False
        for open_epoch, covered, first in pi_open:
            # One delivery can be the first violator of several epochs
            # at once (the post-hoc pass scans per epoch independently).
            if epoch < open_epoch and position > covered:
                self._pi_violations[open_epoch] = self._pi_violation(
                    first, open_epoch, delivery, position, covered
                )
                closed = True
        if closed:
            violations = self._pi_violations
            pi_open[:] = [
                entry for entry in pi_open if entry[0] not in violations
            ]

    @staticmethod
    def _pi_violation(first, epoch, delivery, position, covered):
        return Violation(
            "primary_integrity",
            "primary %s of epoch %d broadcast before covering "
            "%s (epoch %d, position %d > covered %d)"
            % (
                first.primary,
                epoch,
                delivery.txn_id,
                delivery.epoch,
                position,
                covered,
            ),
            [first, delivery],
        )

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
        stock post-hoc code."""
        cached = self._report_cache
        if cached is not None:
            return cached
        violations = list(self._to_violations)
        view = self._trace_view()
        if self._integrity_dirty:
            check_integrity(view, violations)
        else:
            violations.extend(self._integrity_violations)
        violations.extend(self._agreement_violations)
        if self._order_dirty or self._lpo_dirty:
            check_local_primary_order(view, self._history, violations)
        if self._order_dirty:
            check_global_primary_order(view, self._history, violations)
        else:
            violations.extend(self._gpo_violations)
        if self._pi_dirty:
            check_primary_integrity(view, self._history, violations)
        else:
            violations.extend(self._pi_violations.values())
        report = PropertyReport(violations, {   # Trace.stats(), no walk
            "broadcasts": len(self._broadcasts),
            "deliveries": len(self._deliveries),
            # Positions count from 1: every delivering process has a max.
            "processes": len(self._process_max_position),
            "epochs": sorted(self._epoch_broadcast_txns),
        })
        self._report_cache = report
        return report

    def _trace_view(self):
        """A Trace sharing this state's event lists (no copying), for
        the stock per-property functions."""
        view = Trace.__new__(Trace)
        view.broadcasts = self._broadcasts
        view.deliveries = self._deliveries
        view._observers = ()
        view._next_index = len(self._broadcasts) + len(self._deliveries)
        return view

    def __repr__(self):
        return "<CheckerState %d broadcasts, %d deliveries, %s>" % (
            len(self._broadcasts),
            len(self._deliveries),
            "ok" if self.ok else sorted(self.violated_properties()),
        )
