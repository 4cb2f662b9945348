"""Constrained integer partitions: brute-force enumeration and series counts.

Independent routes to the same numbers live here.  The enumerator walks
part choices recursively and is the ground-truth oracle for small n; the
``gf_*`` builders assemble each family's generating function term by term
out of the series module, never from the closed product forms (those
closed forms are exactly what the identity registry is asked to confirm,
so the builders must not assume them).

Two ways of counting sit beside the enumerator, neither building a
partition nor keeping a memo.  Times below are medians on a shared 2-core
Intel Xeon VM with Python 3.11.7.

- :func:`count_oracle` counts the enumerator's tree for one n, and each
  counted partition is reached by its own path.  It reads a plan built once
  per call, so a node does only list lookups: the allowed parts above the
  smallest part lo, largest first; the cap each part leaves for the parts
  after it; and, for every m, where the parts <= m start.  A node with r
  left and parts capped at c adds its leaf children in place, without a
  call: the run of lo alone, the part r alone, and the part r - lo closed
  by one lo.  It descends only into parts k <= r - lo - 1, the ones that
  leave more than lo.  The six families at n = 50 take about 0.04 s, and
  the time grows exponentially with n.
- :func:`count_oracle_table` counts every n up to a bound part by part,
  straight from the spec's rules, and enumerates nothing: a knapsack over
  the allowed part sizes in ascending order, in which an even part that may
  be used once is added for descending n, and the partitions whose largest
  part is an odd k are read off as the count after k less the count
  before it.  It shares no counting code with the walk or the builders, so
  the tests check each against the others.  The six families to n = 60
  take about 1 ms, and to n = 1000 about 0.5 s.

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
    check_int,
    check_type,
    ratio_sum,
)

LARGEST_PARITIES = ("any", "odd")
LARGEST_MULTIPLICITIES = ("any", "at_least_two", "exactly_one")


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive parts."""

    parts: Tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.parts, tuple):
            raise TypeError(f"parts must be a tuple, got {type(self.parts).__name__}")
        for i, p in enumerate(self.parts):
            check_int("part", p, 1)
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
        check_type("distinct_even", self.distinct_even, bool)
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
        if self.regular_modulus is not None:
            check_int("regular_modulus", self.regular_modulus, 2)
        check_int("min_part", self.min_part, 1)


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


def _check_spec(spec: ConstraintSpec) -> None:
    if not isinstance(spec, ConstraintSpec):
        raise TypeError(f"spec must be a ConstraintSpec, got {type(spec).__name__}")


def satisfies(partition: Partition, spec: ConstraintSpec) -> bool:
    """Direct predicate check, independent of how enumeration prunes."""
    if not isinstance(partition, Partition):
        raise TypeError(f"partition must be a Partition, got {type(partition).__name__}")
    _check_spec(spec)
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


def _heads(n: int, spec: ConstraintSpec, next_cap: List[int]) -> Iterator[Tuple[Tuple[int, ...], int, int]]:
    # The largest-part choices for n, largest first: (head, budget, cap) where
    # head holds the largest part once (or twice, when at least two copies are
    # required), budget is n minus the head, and cap bounds every later part:
    # _plan's next_cap[k] when the largest part's multiplicity is free.
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
            yield (k,), n - k, next_cap[k]


def _plan(n: int, spec: ConstraintSpec) -> tuple:
    # What a node of the part tree looks up, for parts and sums up to n, as
    # (lo, parts, next_cap, first, is_part, lo_runs):
    #   lo: the smallest allowed part size, spec.min_part;
    #   parts: the allowed parts above lo, largest first;
    #   next_cap[k]: the bound on the parts after a part k;
    #   first[m]: the index in parts of the largest part <= m;
    #   is_part[k]: whether k is in parts;
    #   lo_runs: how many copies of lo may close a tail.
    lo, modulus = spec.min_part, spec.regular_modulus
    size = max(n, 0) + 1
    is_part = [k > lo and (modulus is None or k % modulus != 0) for k in range(size)]
    parts = [k for k in range(size - 1, lo, -1) if is_part[k]]
    next_cap = [k - 1 if spec.distinct_even and k % 2 == 0 else k for k in range(size)]
    first, i = [], len(parts)
    for m in range(size):
        while i and parts[i - 1] <= m:
            i -= 1
        first.append(i)
    if modulus is not None and lo % modulus == 0:
        lo_runs = 0
    elif spec.distinct_even and lo % 2 == 0:
        lo_runs = 1
    else:
        lo_runs = size
    return lo, parts, next_cap, first, is_part, lo_runs


def _tails(remaining: int, cap: int, plan: tuple) -> Iterator[Tuple[int, ...]]:
    # Nonincreasing part tuples summing to `remaining` with parts <= cap,
    # honoring min_part / regular_modulus / distinct_even.  Descending choice
    # of the next part yields lexicographically decreasing output; the
    # smallest part can only close a tail, so its run is taken in one step.
    if remaining == 0:
        yield ()
        return
    lo, parts, next_cap, first, _, lo_runs = plan
    top = min(remaining, cap)
    if top > lo:
        for k in parts[first[top]:]:
            for rest in _tails(remaining - k, next_cap[k], plan):
                yield (k,) + rest
    if lo <= cap and remaining % lo == 0 and remaining // lo <= lo_runs:
        yield (lo,) * (remaining // lo)


def enumerate_partitions(n: int, spec: ConstraintSpec) -> List[Partition]:
    """All partitions of n satisfying spec, lexicographically decreasing.

    A small-n reference: the list, and the time, grow exponentially with n.
    Only ``enumerate`` is capped in the CLI, by ``--oracle-limit``;
    :func:`count_oracle_table` is the route for depth.
    """
    check_int("n", n)
    _check_spec(spec)
    plan = _plan(n, spec)
    return [
        Partition(head + tail)
        for head, budget, cap in _heads(n, spec, plan[2])
        for tail in _tails(budget, cap, plan)
    ]


def count_oracle(n: int, spec: ConstraintSpec) -> int:
    """Brute-force count; n < 0 counts nothing (handy for shifted relations).

    Every counted partition is reached by its own path through the tree that
    :func:`enumerate_partitions` walks, but no partition is built.  A node
    adds its leaf children (the run of the smallest part lo alone, the rest
    as one part, the rest less one lo closed by that lo) without a call and
    recurses only into parts that leave more than lo.  Each family at
    n = 40 takes about 2 ms (2-core Intel Xeon VM, Python 3.11.7).

    A small-n reference, like the enumerator: its time grows exponentially
    with n.  Only ``enumerate`` is capped in the CLI, by ``--oracle-limit``;
    :func:`count_oracle_table` is the route for depth, and the tests check
    it against this walk.
    """
    check_int("n", n)
    _check_spec(spec)
    lo, parts, next_cap, first, is_part, lo_runs = _plan(n, spec)
    # Whether r is a leaf child of a node with r left: as a run of lo alone
    # (when lo <= the node's cap), and as the part r - lo closed by one lo
    # (when r - lo <= the cap).
    run = [r % lo == 0 and r // lo <= lo_runs for r in range(len(is_part))]
    closed = [lo_runs > 0 and r > lo and is_part[r - lo] for r in range(len(is_part))]

    def tails(r: int, c: int) -> int:
        # The tails of a node with r > 0 left and parts <= c: its leaf
        # children are added here, and only parts k <= r - lo - 1, whose
        # nodes have more than lo left, are descended into.
        total = run[r] if lo <= c else 0
        if r <= c:
            total += is_part[r]
        m = r - lo
        if m <= c:
            total += closed[r]
            m -= 1
        else:
            m = c
        if m > lo:
            for k in parts[first[m]:]:
                total += tails(r - k, next_cap[k])
        return total

    return sum(tails(budget, cap) if budget else 1 for _, budget, cap in _heads(n, spec, next_cap))


def count_oracle_table(up_to: int, spec: ConstraintSpec) -> List[int]:
    """``[count_oracle(n, spec) for n in range(up_to + 1)]``, counted part by part.

    A negative ``up_to`` is a ``ValueError``, as a negative order is for the
    ``gf_*`` builders.  The count reads the spec's rules directly and enumerates nothing.  It
    takes the allowed part sizes k in ascending order and keeps T[n], the
    number of partitions of n into the sizes taken so far.  Taking k adds
    T[n - k] to T[n]: for descending n when k is an even part that may be
    used only once, for ascending n otherwise.  When the largest part must
    be odd, each odd k also adds the partitions whose largest part is k:
    T after k less T before it, of which T-before[n - k] hold k exactly
    once.  It shares no counting code with :func:`count_oracle`, which the
    tests check it against, nor with the ``gf_*`` builders.  The six
    families to n = 60 take about 1 ms, and to n = 1000 about 0.5 s (2-core
    Intel Xeon VM, Python 3.11.7).
    """
    _check_spec(spec)
    check_int("up_to", up_to, 0)
    table = [1] + [0] * up_to
    odd_largest = spec.largest_parity == "odd"
    counts = [0] * (up_to + 1) if odd_largest else table
    # Of the partitions of n with largest part k (the table after k less the
    # table before it), before[n - k] hold k once: the weights pick the ones
    # the multiplicity rule counts.
    new, once = {"any": (1, 0), "exactly_one": (0, 1), "at_least_two": (1, -1)}[spec.largest_multiplicity]
    for k in range(spec.min_part, up_to + 1):
        if spec.regular_modulus is not None and k % spec.regular_modulus == 0:
            continue
        largest = odd_largest and k % 2 == 1
        if largest:
            before = table[:]
        # Descending n reads only counts without k, so k is used at most once.
        for n in range(up_to, k - 1, -1) if spec.distinct_even and k % 2 == 0 else range(k, up_to + 1):
            table[n] += table[n - k]
        if largest:
            for n in range(k, up_to + 1):
                counts[n] += new * (table[n] - before[n]) + once * before[n - k]
    return counts


# -- generating functions ---------------------------------------------------
#
# Each distinct-even family is the basic hypergeometric sum
#     sum_n q^(first + step*n) * (-q^2;q^2)_n / (q;q^2)_(n + den_extra),
# one Pochhammer symbol over another, so each term costs two in-place
# binomial updates of the running term.


def _distinct_even_sum(order: int, first: int, step: int, den_extra: int) -> TruncatedSeries:
    return ratio_sum(
        order,
        first,
        step,
        start=((), [(QMonomial(1, 1), 2, den_extra)]),
        num=[(QMonomial(-1, 2), 2)],
        den=[(QMonomial(1, 2 * den_extra + 1), 2)],
    )


def gf_de1(order: int) -> TruncatedSeries:
    """Sum of (-q^2;q^2)_n q^(2n+1) / (q;q^2)_(n+1): counts the DE1 family."""
    return _distinct_even_sum(order, 1, 2, den_extra=1)


def gf_de2(order: int) -> TruncatedSeries:
    """Sum of (-q^2;q^2)_n q^(4n+2) / (q;q^2)_(n+1): counts the DE2 family."""
    return _distinct_even_sum(order, 2, 4, den_extra=1)


def gf_de3(order: int) -> TruncatedSeries:
    """Sum of (-q^2;q^2)_n q^(2n+1) / (q;q^2)_n: counts the DE3 family."""
    return _distinct_even_sum(order, 1, 2, den_extra=0)


def gf_ped(order: int) -> TruncatedSeries:
    """(-q^2;q^2)_inf / (q;q^2)_inf: partitions with distinct even parts."""
    return binomial_quotient(order, [(QMonomial(-1, 2), 2, None)], [(QMonomial(1, 1), 2, None)])


def gf_regular4(order: int) -> TruncatedSeries:
    """(q^4;q^4)_inf / (q;q)_inf: partitions with no part divisible by 4."""
    return binomial_quotient(order, [(QMonomial(1, 4), 4, None)], [(QMonomial(1, 1), 1, None)])


def gf_regular4_min2(order: int) -> TruncatedSeries:
    """(q^4;q^4)_inf / (q^2;q)_inf: 4-regular partitions with parts > 1."""
    return binomial_quotient(order, [(QMonomial(1, 4), 4, None)], [(QMonomial(1, 2), 1, None)])


FAMILY_SERIES = {
    "DE1": gf_de1,
    "DE2": gf_de2,
    "DE3": gf_de3,
    "ped": gf_ped,
    "regular4": gf_regular4,
    "regular4min2": gf_regular4_min2,
}
