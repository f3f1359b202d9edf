"""Small generic helpers shared by several subpackages."""

import contextlib
import io
import os
import tempfile


def majority(n):
    """Smallest number of members that forms a majority of *n*."""
    return n // 2 + 1


def pairwise_disjoint(groups):
    """True if the given iterables share no elements."""
    seen = set()
    for group in groups:
        for member in group:
            if member in seen:
                return False
            seen.add(member)
    return True


def clamp(value, low, high):
    """Restrict *value* to the inclusive range [low, high]."""
    if low > high:
        raise ValueError("empty range: low=%r high=%r" % (low, high))
    return max(low, min(high, value))


def fmt_bytes(n):
    """Human-readable byte count, e.g. ``fmt_bytes(2048) == '2.0KiB'``."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            if unit == "B":
                return "%d%s" % (int(value), unit)
            return "%.1f%s" % (value, unit)
        value /= 1024.0
    raise AssertionError("unreachable")


@contextlib.contextmanager
def atomic_write(path):
    """Open a text handle whose contents replace *path* all at once.

    The lines go to a temporary file in *path*'s directory, renamed over
    *path* (``os.replace``) only when the block exits cleanly, so an
    interrupted run (crash, ^C, full disk) never leaves a truncated
    file behind — the old one, if any, survives intact.
    """
    path = os.fspath(path)
    fd, temp_path = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".",
        prefix=os.path.basename(path) + ".",
        suffix=".tmp",
    )
    try:
        with io.open(fd, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
