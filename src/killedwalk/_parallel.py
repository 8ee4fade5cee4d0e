"""In-order map over the groups of sites whose branch forests
tree._site_brackets builds, one group after another: a second worker
measured no faster.  The module stays only because the benchmark tracer
loads it by name and gives each group a span through ordered_map; it can
go, with its call, once the tracer drops its `parallel` layer.
"""

from __future__ import annotations


def ordered_map(fn, items) -> list:
    return [fn(item) for item in items]
