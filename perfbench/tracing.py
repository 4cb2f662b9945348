"""Spans recorded from outside the program, around calls into its modules.

The benchmark does not edit qident.  For a traced pass it rebinds, for the
duration of the pass only, the names the ``identities`` module looks up at
call time (the ``gf_*`` builders, ``FAMILY_SERIES`` and ``count_oracle``)
and ``TruncatedSeries.first_mismatch``, so that every family build, oracle
count and coefficient comparison an operation makes becomes a child span of
that operation.  Spans stay in memory and are summarised when the pass ends.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from qident import FAMILY_SPECS, identities, partitions
from qident.series import TruncatedSeries

from workloads import GROUPS


@dataclass
class Span:
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    value: int = 0  # a count the span carries: coefficients compared, partitions counted

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._open: List[int] = []

    def call(self, name: str, fn: Callable[[], Any], value: Optional[Callable[[Any], int]] = None):
        """Run fn() inside a span named name; value(result) sets the span's count."""
        span = Span(name, self._open[-1] if self._open else None, perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn()
        finally:
            span.end = perf_counter()
            self._open.pop()
        if value is not None:
            span.value = value(result)
        return result

    def wrap(self, name: str, fn: Callable, value: Optional[Callable[[Any], int]] = None) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, lambda: fn(*args, **kwargs), value)

        return traced

    def by_prefix(self, prefix: str) -> List[Span]:
        return [s for s in self.spans if s.name.startswith(prefix)]


def _compared(order_a: int, order_b: int, mismatch) -> int:
    return mismatch[0] + 1 if mismatch else min(order_a, order_b) + 1


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Route the identities module's calls into the partitions layer, and
    every series comparison, through tracer spans while the block runs."""
    family_of = {fn: key for key, fn in partitions.FAMILY_SERIES.items()}
    builders = {name: fn for name, fn in vars(identities).items() if callable(fn) and fn in family_of}
    saved = dict(builders, FAMILY_SERIES=identities.FAMILY_SERIES, count_oracle=identities.count_oracle)
    first_mismatch = TruncatedSeries.first_mismatch

    for name, fn in builders.items():
        setattr(identities, name, tracer.wrap(f"family.{family_of[fn]}", fn))
    identities.FAMILY_SERIES = {key: tracer.wrap(f"family.{key}", fn) for key, fn in partitions.FAMILY_SERIES.items()}
    identities.count_oracle = tracer.wrap("oracle.count", saved["count_oracle"], value=int)

    def traced_mismatch(self, other):
        return tracer.call(
            "identities.compare",
            lambda: first_mismatch(self, other),
            lambda mm: _compared(self.order, other.order, mm),
        )

    TruncatedSeries.first_mismatch = traced_mismatch
    try:
        yield
    finally:
        TruncatedSeries.first_mismatch = first_mismatch
        for name, fn in saved.items():
            setattr(identities, name, fn)


def summarize(tracer: Tracer) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-layer times (ms, or us where named) and exact counts from one traced pass."""

    def ms(spans):
        return 1e3 * sum(s.seconds for s in spans)

    times: Dict[str, float] = {}
    for group in GROUPS:
        for side in ("lhs", "rhs"):
            spans = tracer.by_prefix(f"identities.{group}.{side}")
            if spans:
                times[f"identities.{group}.{side}_ms"] = ms(spans)
    compares = tracer.by_prefix("identities.compare")
    relations = tracer.by_prefix("op.relation.")
    identity_ops = tracer.by_prefix("op.case.") + relations
    builds = tracer.by_prefix("family.")
    nested_counts = tracer.by_prefix("oracle.count")
    oracle_ops = tracer.by_prefix("op.oracle.")
    if compares:
        times["identities.compare_ms"] = ms(compares)
    if relations:
        times["identities.relations_ms"] = ms(relations)
    if builds:
        times["identities.family_build_ms"] = ms(builds)
    if identity_ops:
        times["identities.self_ms"] = ms(identity_ops) - ms(builds) - ms(nested_counts)
    for family in FAMILY_SPECS:
        spans = tracer.by_prefix(f"op.oracle.{family}")
        if spans:
            times[f"partitions.oracle_family_ms.{family}"] = ms(spans)
    enumerated = sum(s.value for s in oracle_ops + nested_counts)
    if enumerated:
        times["partitions.oracle_us_per_partition"] = 1e3 * ms(oracle_ops + nested_counts) / enumerated
    for span in tracer.by_prefix("op.cli."):
        times[f"cli.cmd_ms.{span.name[len('op.cli.'):]}"] = 1e3 * span.seconds
    counts = {
        "identities.family_builds": len(builds),
        "identities.coeffs_compared": sum(s.value for s in compares + relations),
        "partitions.partitions_enumerated": enumerated,
    }
    return times, counts
