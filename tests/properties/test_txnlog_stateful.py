"""Stateful property test: TxnLog against a list model.

Hypothesis drives random sequences of appends, truncates, and purges and
checks the log against a plain-list reference model after every step.
"""

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.storage import TxnLog
from repro.zab.zxid import Zxid


class TxnLogModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.log = TxnLog()
        self.model = []          # list of (zxid, txn)
        self.purged = None
        self.next_counter = 1
        self.epoch = 1

    # -- actions ---------------------------------------------------------

    @rule(gap=st.integers(min_value=1, max_value=3))
    def append(self, gap):
        self.next_counter += gap - 1
        zxid = Zxid(self.epoch, self.next_counter)
        self.next_counter += 1
        self.log.append(zxid, "txn-%s" % (zxid,), size=10)
        self.model.append((zxid, "txn-%s" % (zxid,)))

    @rule()
    def bump_epoch(self):
        self.epoch += 1
        self.next_counter = 1

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def truncate_at_existing(self, data):
        index = data.draw(
            st.integers(min_value=0, max_value=len(self.model) - 1)
        )
        zxid = self.model[index][0]
        self.log.truncate(zxid)
        self.model = self.model[: index + 1]

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def purge_at_existing(self, data):
        index = data.draw(
            st.integers(min_value=0, max_value=len(self.model) - 1)
        )
        zxid = self.model[index][0]
        self.log.purge_through(zxid)
        self.model = self.model[index + 1:]
        if self.purged is None or zxid > self.purged:
            self.purged = zxid

    # -- invariants --------------------------------------------------------

    @invariant()
    def contents_match_model(self):
        assert [
            (record.zxid, record.txn) for record in self.log.all_entries()
        ] == self.model

    @invariant()
    def last_durable_matches(self):
        if self.model:
            assert self.log.last_durable() == self.model[-1][0]
        else:
            assert self.log.last_durable() == self.purged

    @invariant()
    def zxids_strictly_increasing(self):
        zxids = [record.zxid for record in self.log.all_entries()]
        assert all(a < b for a, b in zip(zxids, zxids[1:]))

    @invariant()
    def membership_queries_agree(self):
        members = {zxid for zxid, _txn in self.model}
        for zxid, _txn in self.model:
            assert self.log.contains(zxid)
        probe = Zxid(self.epoch, self.next_counter + 100)
        assert (probe in members) == self.log.contains(probe)

    @invariant()
    def entries_after_is_a_suffix(self):
        if not self.model:
            return
        midpoint = self.model[len(self.model) // 2][0]
        tail = self.log.entries_after(midpoint)
        expected = [
            (zxid, txn) for zxid, txn in self.model if zxid > midpoint
        ]
        assert [(record.zxid, record.txn) for record in tail] == expected


TestTxnLogStateful = TxnLogModel.TestCase
