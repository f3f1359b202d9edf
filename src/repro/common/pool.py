"""The process pool behind ``repro campaign --workers``: campaign seeds
fan out through :func:`process_pool`.

Work handed to a pool must be a pure function of its inputs — the whole
simulation runs in virtual time on seeded PRNG streams — so what a
caller merges back never depends on which process ran what, or when.
"""

import multiprocessing


def partition_items(items, workers):
    """Round-robin split of *items* into ``workers`` stable chunks.

    ``partition_items(xs, w)[k]`` is ``xs[k::w]`` — every item lands in
    exactly one chunk (nothing lost, nothing duplicated) and the
    assignment depends only on ``(len(items), workers)``, never on
    timing.  Chunks for ``workers > len(items)`` come back empty.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    items = list(items)
    return [items[worker::workers] for worker in range(workers)]


def process_pool(workers, initializer=None, initargs=()):
    """A pool of *workers* processes; the caller terminates it.

    Prefers fork (cheap, inherits the loaded modules, and *initargs*
    reach the children without pickling), else spawn.
    """
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:          # pragma: no cover - non-POSIX fallback
        context = multiprocessing.get_context("spawn")
    return context.Pool(
        processes=workers, initializer=initializer, initargs=initargs,
    )
