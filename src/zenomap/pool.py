"""The thread budget and the one way the package spreads work over it.

``ZENO_MAP_THREADS`` caps the number of threads (default: the CPUs the
process may run on). :func:`map_chunks` alone decides how many items each
thread takes; callers write each chunk into their own slice of the output,
so what they build does not depend on the thread count. The executor
(``concurrent.futures``, which loads ``logging`` and ``queue`` with it) is
imported at the first call that starts threads, so ``import zenomap``, a
kicked run and a one-thread run never load it.
"""

from __future__ import annotations

import contextvars
import os
from typing import Callable, Optional

from .errors import ConfigError

THREADS_ENV = "ZENO_MAP_THREADS"


def thread_budget() -> int:
    """Threads a run may use; raises :class:`ConfigError` for a bad setting."""
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got '{raw}'") from None
    if threads < 1:
        raise ConfigError(f"{THREADS_ENV} must be >= 1, got {threads}")
    return threads


def map_chunks(fn: Callable[[int, int], None], total: int, cap: Optional[int] = None) -> None:
    """Call ``fn(lo, hi)`` on contiguous chunks that cover ``range(total)``.

    A chunk holds ``min(cap, ceil(total / thread_budget()))`` items (the last
    one may hold fewer). The chunks start in order on a pool of ``min(threads,
    chunks)`` threads, each in a copy of the caller's context, so
    ``np.errstate`` carries over; one chunk or one thread runs inline. When a
    chunk raises, the chunks not yet started are cancelled and the lowest
    failing chunk's error is raised, as in a serial run.
    """
    threads = thread_budget()
    size = min(cap or total, -(-total // threads))
    chunks = [(lo, min(lo + size, total)) for lo in range(0, total, size)]
    workers = min(threads, len(chunks))
    if workers <= 1:
        for lo, hi in chunks:
            fn(lo, hi)
        return
    # imported here, so that a run that never starts threads never loads it
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(contextvars.copy_context().run, fn, lo, hi) for lo, hi in chunks]
        wait(futures, return_when=FIRST_EXCEPTION)
        for future in futures:
            future.cancel()
        for future in futures:
            future.result()
