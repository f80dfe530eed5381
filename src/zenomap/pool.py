"""The thread budget and the one way the package spreads work over it.

``ZENO_MAP_THREADS`` caps the number of threads (default: the CPUs the
process may run on). Work is split into indexed pieces whose results come
back in index order, so what a caller builds from them does not depend on
the thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from typing import Callable, TypeVar

from .errors import ConfigError

THREADS_ENV = "ZENO_MAP_THREADS"

T = TypeVar("T")


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


def map_ordered(fn: Callable[[int], T], count: int, max_threads: int | None = None) -> list[T]:
    """``[fn(0), ..., fn(count - 1)]``, on up to :func:`thread_budget` threads,
    or ``max_threads`` if that is fewer; the budget is checked either way.

    With one usable thread (or one piece) no pool is started. When a piece
    raises, the pieces not yet started are cancelled and the error of the
    lowest failing index is raised, as in a serial run: pieces start in index
    order, so every piece before a failed one runs to its end.
    """
    workers = min(thread_budget(), count, max_threads or count)
    if workers <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, i) for i in range(count)]
        wait(futures, return_when=FIRST_EXCEPTION)
        for future in futures:
            future.cancel()
        return [future.result() for future in futures]
