"""In-memory timing spans recorded around calls into the program's layers."""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Nested named spans of one traced operation.

    Each span stores its name, start, end and nesting depth; depth-0 spans
    partition the traced wall, so whatever they do not cover is time the
    trace cannot attribute to any layer.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self._depth = 0

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1
            self.spans.append((name, start, time.perf_counter(), self._depth))

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def count(self, name: str) -> int:
        return sum(1 for n, *_ in self.spans if n == name)

    def attributed(self) -> float:
        return sum(end - start for _, start, end, depth in self.spans if depth == 0)


class TimedFilters:
    """Stand-in for PairwiseFilters that spans each filter call.

    mean_field_step only validates the cache and calls the two filter
    methods, so forwarding those keeps the program's own step code on the
    traced path while the benchmark times the filtering inside it.
    """

    def __init__(self, filters, tracer: Tracer) -> None:
        self._filters = filters
        self._tracer = tracer

    def require(self, *args, **kwargs):
        return self._filters.require(*args, **kwargs)

    def filter_bilateral(self, values, timer=None):
        with self._tracer.span("hdfilter.filter"):
            return self._filters.filter_bilateral(values, timer=timer)

    def filter_spatial(self, values, timer=None):
        with self._tracer.span("hdfilter.filter"):
            return self._filters.filter_spatial(values, timer=timer)
