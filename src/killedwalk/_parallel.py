"""Order-preserving work mapping for the chunks of sites whose branch
forests tree.rho_environment builds, the one workload where a second
thread measured faster.

Thread count never changes numbers: every work item is a pure function of
its index key, and results are merged in input order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def ordered_map(fn, items, threads: int = 1) -> list:
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
