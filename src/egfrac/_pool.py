"""Worker processes for the sweeps.

``worker_count`` is the one place a ``jobs`` value is checked; ``ordered_map``
is the one place worker processes are made. Results come back in input
order, so the number of workers never changes what a sweep returns, and
only a fixed window of chunks is in flight, so memory does not grow with
the length of the input.

``jobs`` counts the caller: ``jobs - 1`` ``multiprocessing`` workers each
get chunks over a ``Pipe`` of their own, and the caller computes a chunk
itself whenever the oldest one's results have not come back yet. So no
executor and no thread is made, and ``--jobs N`` keeps N processes busy.
``multiprocessing`` is imported only when a sweep runs with more than one
job. A worker that dies (killed, or out of memory) ends the map with
``BrokenProcessPool`` rather than leaving its chunk unanswered.

Each end of a pipe has one holder, under every start method: the parent
closes a worker's end once the worker has started, and a forked worker
closes the parent's ends it inherits. So a worker stops when its pipe
closes: when the map ends, and when the caller exits or is killed, once
the chunk in hand is done.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Iterator

from .errors import DomainError


def worker_count(jobs: int) -> int:
    """A validated ``jobs`` value: at least 1, at most the CPUs this process may use.

    More workers than CPUs only adds process start-up and memory, so a
    larger request is clamped instead of honoured. The CPUs are those of
    the process's affinity mask where the platform has one (``taskset``,
    a container's cpuset), else the host's count.
    """
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    affinity = getattr(os, "sched_getaffinity", None)  # Linux and some Unixes
    return min(jobs, len(affinity(0)) if affinity else os.cpu_count() or 1)


# chunks per job in the window: sent to a worker or computed by the caller,
# and not yet yielded
_CHUNKS_PER_JOB = 4


def ordered_map(worker: Callable, items: Iterable, jobs: int, chunksize: int) -> Iterator:
    """Yield ``worker(item)`` for each item, in order, using ``jobs`` processes.

    Items go out ``chunksize`` at a time, at most ``_CHUNKS_PER_JOB * jobs``
    chunks ahead of the caller. Each worker holds up to ``_CHUNKS_PER_JOB``
    of them and gets the next chunk as the oldest one's results are read;
    while the oldest chunk is still out, the caller takes the next chunk
    and computes it itself. Results are yielded as they arrive, so the
    caller's work overlaps the workers'. An exception raised by ``worker``
    in a worker is raised here, as itself. When the caller stops early
    (closes the generator, or an exception ends the iteration), workers
    still computing a chunk are terminated and the others stopped before
    control returns. ``jobs`` must already have been through
    ``worker_count``.
    """
    if jobs == 1:
        yield from map(worker, items)
        return
    import signal
    from collections import deque
    from itertools import islice
    from multiprocessing import Pipe, Process, util

    items = iter(items)
    chunks = iter(lambda: list(islice(items, chunksize)), [])
    window = _CHUNKS_PER_JOB * jobs
    workers = []
    # per chunk, in input order: its results, or the connection of the
    # worker computing it
    pending = deque()
    # Ctrl-C reaches every process in the group. The workers ignore it, so
    # that it ends the map as the caller's KeyboardInterrupt, not as a lost
    # worker, and the caller stops them. It is held back while the workers
    # start, where it could be lost in a fork hook.
    sigmask = getattr(signal, "pthread_sigmask", None)  # POSIX only
    try:
        held = sigmask and sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for _ in range(jobs - 1):
                conn, child_conn = Pipe()
                # a forked worker closes the parent's end of its own pipe and
                # of every earlier one (spawn and forkserver inherit none), so
                # a worker sees EOF when the parent closes ``conn`` or dies
                util.register_after_fork(conn, type(conn).close)
                process = Process(target=_serve, args=(worker, child_conn), daemon=True)
                process.start()
                # the worker then holds the only copy of its end, so the
                # parent sees EOF on ``conn`` if the worker dies
                child_conn.close()
                workers.append((process, conn))
        finally:
            if sigmask:
                sigmask(signal.SIG_SETMASK, held)
        for _, conn in workers * _CHUNKS_PER_JOB:
            for chunk in islice(chunks, 1):
                _send(conn, chunk)
                pending.append(conn)
        while pending:
            oldest = pending[0]
            if isinstance(oldest, list):
                results = oldest
            elif len(pending) < window and not oldest.poll() and (chunk := next(chunks, None)):
                # its worker is not done: compute the next chunk here meanwhile
                pending.append([worker(item) for item in chunk])
                continue
            else:
                results = _receive(oldest)
                for chunk in islice(chunks, 1):  # the worker's next chunk, if any
                    _send(oldest, chunk)
                    pending.append(oldest)
            pending.popleft()
            yield from results
    finally:
        # a worker still computing is terminated; an idle one stops when its
        # pipe closes
        for process, conn in workers:
            if any(entry is conn for entry in pending):
                process.terminate()
            conn.close()
        for process, _ in workers:
            process.join()


def _serve(worker: Callable, conn) -> None:
    """A worker's loop: send back ``worker`` mapped over each chunk, until EOF.

    Each reply is ``(True, results)``, or ``(False, exception)`` if
    ``worker`` raised. EOF on ``recv`` or a failed ``send`` means the
    parent closed its end, exited or was killed: the loop then returns
    without output.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        while True:
            chunk = conn.recv()
            try:
                reply = (True, [worker(item) for item in chunk])
            except Exception as exc:
                reply = (False, exc)
            conn.send(reply)
    except (EOFError, OSError):
        return


def _send(conn, chunk: list) -> None:
    try:
        conn.send(chunk)
    except OSError:
        raise _lost_worker() from None


def _receive(conn) -> list:
    try:
        ok, payload = conn.recv()
    except (EOFError, OSError):
        raise _lost_worker() from None
    if not ok:
        raise payload
    return payload


def _lost_worker() -> Exception:
    from concurrent.futures.process import BrokenProcessPool

    return BrokenProcessPool("a worker process ended before returning its chunk")
