"""Constrained integer partitions: brute-force enumeration and series counts.

Two deliberately independent routes to the same numbers live here.  The
enumerator walks part choices recursively and is the ground-truth oracle for
small n; the ``gf_*`` builders assemble each family's generating function
term by term out of the series module, never from the closed product forms
(those closed forms are exactly what the identity registry is asked to
confirm, so the builders must not assume them).  Counting walks the
enumerator's tree without building partitions, so each counted partition is
still reached by its own path.

Families, keyed as the CLI spells them:

==============  =====================================================
key             partitions of n counted
==============  =====================================================
DE1             no even part repeated, largest part odd
DE2             as DE1, and the largest part appears at least twice
DE3             as DE1, and the largest part appears exactly once
ped             no even part repeated
regular4        no part divisible by 4
regular4min2    no part divisible by 4, every part at least 2
==============  =====================================================
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .series import (
    QMonomial,
    TruncatedSeries,
    binomial_quotient,
    poch_binomials,
    ratio_sum,
)

LARGEST_PARITIES = ("any", "odd")
LARGEST_MULTIPLICITIES = ("any", "at_least_two", "exactly_one")


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive parts."""

    parts: Tuple[int, ...]

    def __post_init__(self):
        for i, p in enumerate(self.parts):
            if p < 1:
                raise ValueError(f"parts must be positive, got {p}")
            if i and self.parts[i - 1] < p:
                raise ValueError(f"parts must be nonincreasing: {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __str__(self):
        return "+".join(str(p) for p in self.parts) if self.parts else "(empty)"


@dataclass(frozen=True)
class ConstraintSpec:
    """Declarative restriction on which partitions count.

    ``largest_multiplicity`` only has meaning once a largest part is pinned
    down, so it may differ from "any" only when ``largest_parity`` is "odd".
    The empty partition has no largest part at all: it satisfies a spec only
    when ``largest_parity`` is "any".
    """

    distinct_even: bool = False
    largest_parity: str = "any"
    largest_multiplicity: str = "any"
    regular_modulus: Optional[int] = None
    min_part: int = 1

    def __post_init__(self):
        if self.largest_parity not in LARGEST_PARITIES:
            raise ValueError(f"largest_parity must be one of {LARGEST_PARITIES}")
        if self.largest_multiplicity not in LARGEST_MULTIPLICITIES:
            raise ValueError(
                f"largest_multiplicity must be one of {LARGEST_MULTIPLICITIES}"
            )
        if self.largest_multiplicity != "any" and self.largest_parity != "odd":
            raise ValueError(
                "largest_multiplicity constraints require largest_parity='odd'"
            )
        if self.regular_modulus is not None and self.regular_modulus < 2:
            raise ValueError("regular_modulus must be >= 2")
        if self.min_part < 1:
            raise ValueError("min_part must be >= 1")


FAMILY_SPECS = {
    "DE1": ConstraintSpec(distinct_even=True, largest_parity="odd"),
    "DE2": ConstraintSpec(
        distinct_even=True, largest_parity="odd", largest_multiplicity="at_least_two"
    ),
    "DE3": ConstraintSpec(
        distinct_even=True, largest_parity="odd", largest_multiplicity="exactly_one"
    ),
    "ped": ConstraintSpec(distinct_even=True),
    "regular4": ConstraintSpec(regular_modulus=4),
    "regular4min2": ConstraintSpec(regular_modulus=4, min_part=2),
}


def satisfies(partition: Partition, spec: ConstraintSpec) -> bool:
    """Direct predicate check, independent of how enumeration prunes."""
    parts = partition.parts
    if any(p < spec.min_part for p in parts):
        return False
    if spec.regular_modulus is not None:
        if any(p % spec.regular_modulus == 0 for p in parts):
            return False
    if spec.distinct_even:
        counts = Counter(parts)
        if any(p % 2 == 0 and c > 1 for p, c in counts.items()):
            return False
    if spec.largest_parity == "odd":
        if not parts:
            return False  # no largest part to be odd
        top = parts[0]
        if top % 2 == 0:
            return False
        mult = parts.count(top)
        if spec.largest_multiplicity == "at_least_two" and mult < 2:
            return False
        if spec.largest_multiplicity == "exactly_one" and mult != 1:
            return False
    return True


def _heads(n: int, spec: ConstraintSpec) -> Iterator[Tuple[Tuple[int, ...], int, int]]:
    # The largest-part choices for n, largest first: (head, budget, cap) where
    # head holds the largest part once (or twice, when at least two copies are
    # required), budget is n minus the head, and cap bounds every later part.
    # The empty partition is a head of its own; n < 0 yields nothing.
    if n == 0:
        if spec.largest_parity == "any":
            yield (), 0, 0
        return
    for k in range(n, spec.min_part - 1, -1):
        if spec.largest_parity == "odd" and k % 2 == 0:
            continue
        if spec.regular_modulus is not None and k % spec.regular_modulus == 0:
            continue
        if spec.largest_multiplicity == "exactly_one":
            yield (k,), n - k, k - 1
        elif spec.largest_multiplicity == "at_least_two":
            if 2 * k <= n:
                yield (k, k), n - 2 * k, k
        else:
            cap = k - 1 if (spec.distinct_even and k % 2 == 0) else k
            yield (k,), n - k, cap


def _run_completes(remaining: int, cap: int, spec: ConstraintSpec) -> bool:
    # Whether remaining > 0 is exactly a run of the smallest allowed part.
    lo = spec.min_part
    return (
        lo <= cap
        and remaining % lo == 0
        and (spec.regular_modulus is None or lo % spec.regular_modulus != 0)
        and not (spec.distinct_even and lo % 2 == 0 and remaining != lo)
    )


def _tails(remaining: int, cap: int, spec: ConstraintSpec) -> Iterator[Tuple[int, ...]]:
    # Nonincreasing part tuples summing to `remaining` with parts <= cap,
    # honoring min_part / regular_modulus / distinct_even.  Descending choice
    # of the next part yields lexicographically decreasing output; the
    # smallest part can only close a tail, so its run is taken in one step.
    if remaining == 0:
        yield ()
        return
    lo = spec.min_part
    for k in range(min(remaining, cap), lo, -1):
        if spec.regular_modulus is not None and k % spec.regular_modulus == 0:
            continue
        next_cap = k - 1 if (spec.distinct_even and k % 2 == 0) else k
        for rest in _tails(remaining - k, next_cap, spec):
            yield (k,) + rest
    if _run_completes(remaining, cap, spec):
        yield (lo,) * (remaining // lo)


def _count_tails(remaining: int, cap: int, spec: ConstraintSpec) -> int:
    # The number of tuples _tails(remaining, cap, spec) yields, walking the
    # same tree without building them.
    if remaining == 0:
        return 1
    total = 0
    for k in range(min(remaining, cap), spec.min_part, -1):
        if spec.regular_modulus is not None and k % spec.regular_modulus == 0:
            continue
        next_cap = k - 1 if (spec.distinct_even and k % 2 == 0) else k
        total += _count_tails(remaining - k, next_cap, spec)
    return total + _run_completes(remaining, cap, spec)


def enumerate_partitions(n: int, spec: ConstraintSpec) -> List[Partition]:
    """All partitions of n satisfying spec, lexicographically decreasing."""
    return [
        Partition(head + tail)
        for head, budget, cap in _heads(n, spec)
        for tail in _tails(budget, cap, spec)
    ]


def count_oracle(n: int, spec: ConstraintSpec) -> int:
    """Brute-force count; n < 0 counts nothing (handy for shifted relations).

    Every counted partition is reached by its own path through the tree that
    :func:`enumerate_partitions` walks, but no partition is built.
    """
    return sum(_count_tails(budget, cap, spec) for _, budget, cap in _heads(n, spec))


# -- generating functions ---------------------------------------------------
#
# Each distinct-even family is a sum over n of
#     (-q^2;q^2)_n * q^(min exponent) / (q;q^2)_(n + den_extra)
# whose term ratio is one binomial over another, so each term costs two
# in-place binomial updates of the running term.


def _distinct_even_sum(order: int, min_exp, den_extra: int) -> TruncatedSeries:
    return ratio_sum(
        order,
        min_exp,
        start=((), poch_binomials(QMonomial(1, 1), 2, order, den_extra)),
        num=lambda n: [(-1, 2 * n + 2)],
        den=lambda n: [(1, 2 * (n + den_extra) + 1)],
    )


def gf_de1(order: int) -> TruncatedSeries:
    """Sum of (-q^2;q^2)_n q^(2n+1) / (q;q^2)_(n+1): counts the DE1 family."""
    return _distinct_even_sum(order, lambda n: 2 * n + 1, den_extra=1)


def gf_de2(order: int) -> TruncatedSeries:
    """Sum of (-q^2;q^2)_n q^(4n+2) / (q;q^2)_(n+1): counts the DE2 family."""
    return _distinct_even_sum(order, lambda n: 4 * n + 2, den_extra=1)


def gf_de3(order: int) -> TruncatedSeries:
    """Sum of (-q^2;q^2)_n q^(2n+1) / (q;q^2)_n: counts the DE3 family."""
    return _distinct_even_sum(order, lambda n: 2 * n + 1, den_extra=0)


def gf_ped(order: int) -> TruncatedSeries:
    """(-q^2;q^2)_inf / (q;q^2)_inf: partitions with distinct even parts."""
    return binomial_quotient(
        order,
        poch_binomials(QMonomial(-1, 2), 2, order),
        poch_binomials(QMonomial(1, 1), 2, order),
    )


def gf_regular4(order: int) -> TruncatedSeries:
    """(q^4;q^4)_inf / (q;q)_inf: partitions with no part divisible by 4."""
    return binomial_quotient(
        order,
        poch_binomials(QMonomial(1, 4), 4, order),
        poch_binomials(QMonomial(1, 1), 1, order),
    )


def gf_regular4_min2(order: int) -> TruncatedSeries:
    """(q^4;q^4)_inf / (q^2;q)_inf: 4-regular partitions with parts > 1."""
    return binomial_quotient(
        order,
        poch_binomials(QMonomial(1, 4), 4, order),
        poch_binomials(QMonomial(1, 2), 1, order),
    )


FAMILY_SERIES = {
    "DE1": gf_de1,
    "DE2": gf_de2,
    "DE3": gf_de3,
    "ped": gf_ped,
    "regular4": gf_regular4,
    "regular4min2": gf_regular4_min2,
}
