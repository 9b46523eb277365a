"""Ordered concurrent map on plain threads, the calling thread one of them.

Results always come back in input order, so anything built from them
(reports, CSV rows) is byte-identical whether jobs is 1 or 8. Threads are
fine here: the heavy work is numpy, which releases the GIL. The calling
thread works alongside min(jobs, len(items)) - 1 helpers, all taking items
from one shared counter, so jobs=2 runs one extra thread, not two, and no
executor (concurrent.futures and its logging, about 0.4 MB) is loaded.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Iterable


def parallel_map(fn: Callable, items: Iterable, jobs: int = 1) -> list:
    """[fn(x) for x in items] on up to jobs threads.

    Every item runs; then the exception of the earliest failing item, in
    input order, is raised. An interrupt in the calling thread stops it
    taking new items, and the call returns or raises only after every
    helper has finished its current item.
    """
    items = list(items)
    helpers = min(jobs, len(items)) - 1
    if helpers < 1:
        return [fn(x) for x in items]
    results, failures = [None] * len(items), {}
    # Item 0 is the calling thread's; next() on the counter is atomic under the GIL.
    claims, stop = itertools.count(1), threading.Event()

    def work(i):
        while i < len(items) and not stop.is_set():
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                failures[i] = exc
                if not isinstance(exc, Exception):  # an interrupt or exit ends the map
                    stop.set()
                    raise
            i = next(claims)

    threads = [threading.Thread(target=lambda: work(next(claims))) for _ in range(helpers)]
    for thread in threads:
        thread.start()
    try:
        work(0)
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    if failures:
        raise failures[min(failures)]
    return results
