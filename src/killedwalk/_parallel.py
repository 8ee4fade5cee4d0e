"""In-order map over the chunks of sites whose branch forests
tree._site_brackets builds.

The chunks run one after another: a second worker measured no faster on
the tree reduction.  The module stays only because the benchmark tracer
loads it by name and gives each chunk a span through ordered_map; it can
go, with its call, once the tracer drops its `parallel` layer.
"""

from __future__ import annotations


def ordered_map(fn, items) -> list:
    return [fn(item) for item in items]
