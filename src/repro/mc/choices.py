"""Decision-sequence bookkeeping for prefix-driven exploration.

One execution of the system is a pure function of the decision
sequence fed to it — which fault to inject at each step, which of
several same-timestamp events fires first — and the search walks the
tree of decision sequences by running each chosen *prefix* and taking
the default (index 0) everywhere beyond it.  This is the classic
CHESS/dBug recipe, and it works here because the simulator is
bit-deterministic.  The explorer does not replay a prefix from the
start when it can help it: it resumes from a pickled image of the
deepest step boundary on the prefix's path that an earlier execution
passed (:mod:`repro.mc.explorer`), with the chooser's ``prefix`` swapped
for the new one, and only the decisions after that boundary run again.

:class:`Chooser` is the per-run decision stream; :class:`DfsFrontier`
is the driver that turns one run's recorded choice points into the
sibling prefixes still to explore.
"""

from repro.common.errors import ReproError


class DivergentReplayError(ReproError):
    """A prefix replay asked for a choice outside the recorded arity.

    Exploration assumes executions are deterministic functions of the
    decision sequence; this error means two runs with the same prefix
    disagreed about the shape of a choice point, which would make every
    conclusion of the search unsound — so it is fatal, never swallowed.
    """


class Chooser:
    """One run's decision stream: scripted prefix, then defaults.

    ``next(arity, label)`` returns the decision for the current choice
    point: the scripted value while inside *prefix*, index 0 beyond it.
    Every call is recorded (value and arity), so after the run the
    explorer knows exactly which alternatives were not taken.
    """

    __slots__ = ("prefix", "taken", "arities", "labels")

    def __init__(self, prefix=()):
        self.prefix = list(prefix)
        self.taken = []
        self.arities = []
        self.labels = []

    def next(self, arity, label=None):
        """Decide the next choice point with *arity* alternatives."""
        if arity < 1:
            raise ValueError("choice point needs at least one alternative")
        index = len(self.taken)
        if index < len(self.prefix):
            value = self.prefix[index]
            if not 0 <= value < arity:
                raise DivergentReplayError(
                    "prefix[%d]=%r but choice point %r has arity %d"
                    % (index, value, label, arity)
                )
        else:
            value = 0
        self.taken.append(value)
        self.arities.append(arity)
        self.labels.append(label)
        return value

    def __len__(self):
        return len(self.taken)


class DfsFrontier:
    """Depth-first frontier over decision-sequence prefixes.

    ``pop()`` yields the next prefix to execute; after the run,
    ``expand(prefix, chooser)`` pushes every sibling alternative that
    the run left untaken.  Alternatives of the *deepest* choice point
    are pushed last, so they pop first — depth-first order, which keeps
    fingerprint pruning effective (nearby states are revisited while
    still hot in the visited set).
    """

    def __init__(self):
        self._stack = [[]]

    def __len__(self):
        return len(self._stack)

    def pop(self):
        return self._stack.pop()

    def peek(self, count):
        """The top *count* prefixes, the one ``pop()`` yields next first."""
        return self._stack[-count:][::-1]

    def expand(self, prefix, chooser):
        """Queue the untaken siblings discovered by one run.

        *chooser* is anything with the run's ``taken``/``arities``.
        Only choice points at or beyond ``len(prefix)`` spawn siblings:
        everything shallower was scripted, and its alternatives were
        queued when the scripting run itself was expanded.
        """
        added = 0
        for depth in range(len(prefix), len(chooser.taken)):
            arity = chooser.arities[depth]
            base = chooser.taken[:depth]
            for value in range(1, arity):
                self._stack.append(base + [value])
                added += 1
        return added
