"""The thread budget and the one way the package spreads work over it.

``ZENO_MAP_THREADS`` caps the number of threads (default: the CPUs the
process may run on; a setting above ``MAX_THREADS`` is refused).
:func:`map_chunks` alone decides how many items each thread takes; callers
write each chunk into their own slice of the output, so what they build does
not depend on the thread count. The calling thread works too, beside plain
``threading.Thread`` helpers; there is no executor, so no run loads
``concurrent.futures`` (and the ``logging`` and ``queue`` it brings).
"""

from __future__ import annotations

import contextvars
import os
from threading import Lock, Thread
from typing import Callable, Optional

from .errors import ConfigError

THREADS_ENV = "ZENO_MAP_THREADS"
# A set budget is checked before any thread starts: a failed Thread.start
# would be a RuntimeError that maps to no exit code.
MAX_THREADS = 256


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
    if threads > MAX_THREADS:
        raise ConfigError(f"{THREADS_ENV} must be <= {MAX_THREADS}, got {threads}")
    return threads


def map_chunks(fn: Callable[[int, int], None], total: int, cap: Optional[int] = None) -> None:
    """Call ``fn(lo, hi)`` on contiguous chunks that cover ``range(total)``.

    A chunk holds ``min(cap, ceil(total / thread_budget()))`` items (the last
    one may hold fewer). The calling thread and ``min(threads, chunks) - 1``
    helper threads, each helper in a copy of the caller's context (so
    ``np.errstate`` carries over), take the chunks in order from one shared
    list; one chunk or one thread starts no helper. Once a chunk raises, no
    worker takes another, so every chunk below a failing one has run; after
    every helper is joined, the lowest failing chunk's error is raised, as in
    a serial run.
    """
    threads = thread_budget()
    size = min(cap or total, -(-total // threads))
    chunks = [(lo, min(lo + size, total)) for lo in range(0, total, size)]
    pending = iter(chunks)
    failed: dict[tuple[int, int], BaseException] = {}
    lock = Lock()

    def work() -> None:
        while True:
            # the check and the take are one step, so no chunk is taken
            # after a failure is recorded
            with lock:
                chunk = None if failed else next(pending, None)
            if chunk is None:
                return
            try:
                fn(*chunk)
            except BaseException as error:  # re-raised below, after the join
                with lock:
                    failed[chunk] = error

    helpers = []
    try:
        for _ in range(min(threads, len(chunks)) - 1):
            helper = Thread(target=contextvars.copy_context().run, args=(work,))
            helper.start()
            helpers.append(helper)
        work()
    finally:
        # a helper may still be writing its chunk into the caller's output
        for helper in helpers:
            helper.join()
    if failed:
        raise failed[min(failed)]
