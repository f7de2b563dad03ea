"""Worker processes for the sweeps.

``worker_count`` is the one place a ``jobs`` value is checked; ``ordered_map``
is the one place a process pool is made. Results come back in input order,
so the number of workers never changes what a sweep returns.
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


def ordered_map(worker: Callable, items: Iterable, jobs: int, chunksize: int) -> Iterator:
    """Yield ``worker(item)`` for each item, in order, using ``jobs`` processes.

    Results are yielded as they arrive, so the caller's work overlaps the
    workers'. When the caller stops early (closes the generator, or an
    exception ends the iteration), chunks not yet started are cancelled
    and the pool is shut down before control returns. ``jobs`` must
    already have been through ``worker_count``.
    """
    if jobs == 1:
        yield from map(worker, items)
        return
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        yield from pool.map(worker, items, chunksize=chunksize)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
