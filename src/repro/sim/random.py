"""Deterministic, splittable randomness.

Each simulated component gets its own :class:`random.Random` stream derived
from the root seed and a stable label.  This keeps components independent:
adding a random draw in the network model does not perturb the sequence seen
by, say, the election module, so experiments stay comparable across code
changes.
"""

import hashlib
import random


class SplitRandom:
    """A root seed from which per-component PRNG streams are derived."""

    def __init__(self, seed=0):
        self.seed = seed
        self._streams = {}

    def stream(self, label):
        """Return the (cached) PRNG stream for *label*."""
        if label not in self._streams:
            digest = hashlib.sha256(
                ("%s/%s" % (self.seed, label)).encode("utf-8")
            ).digest()
            self._streams[label] = random.Random(
                int.from_bytes(digest[:8], "big")
            )
        return self._streams[label]

    def split(self, label):
        """Derive a child :class:`SplitRandom` rooted at *label*."""
        return SplitRandom("%s/%s" % (self.seed, label))
