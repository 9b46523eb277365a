"""Ordered concurrent map.

Results always come back in input order, so anything built from them
(reports, CSV rows) is byte-identical whether jobs is 1 or 8. Threads are
fine here: the heavy work is numpy, which releases the GIL. The thread pool
is imported on the first map that uses one, so a single-job run never loads
concurrent.futures and its logging (about 0.4 MB resident).
"""

from __future__ import annotations

from typing import Callable, Iterable

__all__ = ["parallel_map"]


def parallel_map(fn: Callable, items: Iterable, jobs: int = 1) -> list:
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))
