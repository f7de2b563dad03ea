"""Worker processes for the sweeps.

``worker_count`` is the one place a ``jobs`` value is checked; ``ordered_map``
is the one place a process pool is made. Results come back in input order,
so the number of workers never changes what a sweep returns, and only a
fixed window of chunks is in flight, so memory does not grow with the
length of the input.

The pool is a ``concurrent.futures.ProcessPoolExecutor``, imported only
when a sweep runs with more than one job, so a serial run never loads it
(or the ``logging`` it imports). ``multiprocessing.Pool`` imports about
5 ms faster, but a worker that dies (killed, or out of memory) leaves its
chunk unanswered there and the sweep waits forever; the executor raises
``BrokenProcessPool`` instead.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Iterator

from .errors import DomainError


def worker_count(jobs: int) -> int:
    """A validated ``jobs`` value: at least 1, at most this host's CPU count.

    More workers than CPUs only adds process start-up and memory, so a
    larger request is clamped instead of honoured.
    """
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


# chunks in flight per worker, submitted and not yet read by the caller
_CHUNKS_PER_JOB = 4


def _map_chunk(worker: Callable, chunk: list) -> list:
    return [worker(item) for item in chunk]


def ordered_map(worker: Callable, items: Iterable, jobs: int, chunksize: int) -> Iterator:
    """Yield ``worker(item)`` for each item, in order, using ``jobs`` processes.

    Items go to the workers ``chunksize`` at a time, at most
    ``_CHUNKS_PER_JOB * jobs`` chunks ahead of the caller: the next chunk
    is taken from ``items`` as the oldest one's results are read. Results
    are yielded as they arrive, so the caller's work overlaps the
    workers'. When the caller stops early (closes the generator, or an
    exception ends the iteration), chunks not yet started are cancelled
    and the pool is shut down before control returns. ``jobs`` must
    already have been through ``worker_count``.
    """
    if jobs == 1:
        yield from map(worker, items)
        return
    import signal
    from collections import deque
    from concurrent.futures import ProcessPoolExecutor
    from functools import partial
    from itertools import islice

    items = iter(items)
    chunks = iter(lambda: list(islice(items, chunksize)), [])
    # Ctrl-C reaches every process in the group. A worker interrupted while
    # it holds the result queue's lock never releases it, and the shutdown
    # below then waits forever; so only the caller takes the interrupt. It
    # is held back while the first chunks start the workers: there it could
    # be lost in a fork hook, or leave workers running that shutdown cannot
    # stop.
    pool = ProcessPoolExecutor(
        max_workers=jobs, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN)
    )
    submit = partial(pool.submit, _map_chunk, worker)
    sigmask = getattr(signal, "pthread_sigmask", None)  # POSIX only
    try:
        held = sigmask and sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            pending = deque(map(submit, islice(chunks, _CHUNKS_PER_JOB * jobs)))
        finally:
            if sigmask:
                sigmask(signal.SIG_SETMASK, held)
        while pending:
            results = pending.popleft().result()
            pending.extend(map(submit, islice(chunks, 1)))  # the next chunk, if any
            yield from results
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
