"""Constrained integer partitions: brute-force enumeration and series counts.

Independent routes to the same numbers live here.  The enumerator walks
part choices recursively and is the ground-truth oracle for small n; the
``gf_*`` builders assemble each family's generating function term by term
out of the series module, never from the closed product forms (those
closed forms are exactly what the identity registry is asked to confirm,
so the builders must not assume them).

Two ways of counting sit beside the enumerator, neither building a
partition nor keeping a memo.

- :func:`count_oracle` counts the enumerator's tree for one n, and each
  counted partition is reached by its own path.  It reads a plan built once
  per call, so a node does only list lookups: for every m, the allowed
  parts k with lo < k <= m, where lo is the smallest part, largest first
  and each paired with the cap it leaves for the parts after it; and two
  per-r leaf tables.  ``near[r]`` counts the run of lo alone and the part
  r - lo closed by one lo, and ``full[r]`` adds the part r alone.  A node
  with r left and parts capped at c adds its own leaves and those of each
  child from these tables, whichever the cap allows, and calls only for its
  grandchildren, the nodes with more than lo left two levels down.  Each
  table entry sums at most three indicators of distinct leaf partitions,
  so every counted partition is still one indicator.  Its time grows
  exponentially with n; the benchmark's ``oracle-40`` workload measures it.
- :func:`count_oracle_table` counts every n up to a bound part by part,
  straight from the spec's rules, and enumerates nothing: a knapsack over
  the allowed part sizes in ascending order, in which an even part that may
  be used once is added for descending n.  Once an odd k is added, the
  partitions of n whose largest part is k are read off the same table
  T: T[n - k] of them hold k at least once, and T[n - 2k] at least twice.
  It shares no counting code with the walk or the builders, so the tests
  check each against the others.  Its time grows as O(n^2); the
  benchmark's ``oracle-40`` workload measures it.

Families, keyed as the CLI spells them.  Each is a :class:`ConstraintSpec`
in ``FAMILY_SPECS``, and the rule on its largest part is the one field
``largest``: "odd" for DE1, "odd_at_least_two" for DE2, "odd_exactly_one"
for DE3 and "any" for the other three.

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
from itertools import accumulate
from typing import Iterator, List, Optional, Tuple

from .series import (
    QMonomial,
    TruncatedSeries,
    binomial_quotient,
    check_int,
    check_type,
    ratio_sum,
)

LARGEST_RULES = ("any", "odd", "odd_at_least_two", "odd_exactly_one")


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive parts."""

    parts: Tuple[int, ...]

    def __post_init__(self):
        check_type("parts", self.parts, tuple)
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

    ``largest`` is the rule on the largest part, one of ``LARGEST_RULES``:
    "any" (no rule), "odd", "odd_at_least_two" (odd, and it appears at
    least twice) or "odd_exactly_one" (odd, and it appears once).  The
    empty partition has no largest part at all: it satisfies a spec only
    when ``largest`` is "any".
    """

    distinct_even: bool = False
    largest: str = "any"
    regular_modulus: Optional[int] = None
    min_part: int = 1

    def __post_init__(self):
        check_type("distinct_even", self.distinct_even, bool)
        if self.largest not in LARGEST_RULES:
            raise ValueError(f"largest must be one of {LARGEST_RULES}")
        if self.regular_modulus is not None:
            check_int("regular_modulus", self.regular_modulus, 2)
        check_int("min_part", self.min_part, 1)


FAMILY_SPECS = {
    "DE1": ConstraintSpec(distinct_even=True, largest="odd"),
    "DE2": ConstraintSpec(distinct_even=True, largest="odd_at_least_two"),
    "DE3": ConstraintSpec(distinct_even=True, largest="odd_exactly_one"),
    "ped": ConstraintSpec(distinct_even=True),
    "regular4": ConstraintSpec(regular_modulus=4),
    "regular4min2": ConstraintSpec(regular_modulus=4, min_part=2),
}


def satisfies(partition: Partition, spec: ConstraintSpec) -> bool:
    """Direct predicate check, independent of how enumeration prunes."""
    check_type("partition", partition, Partition)
    check_type("spec", spec, ConstraintSpec)
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
    if spec.largest != "any":
        if not parts:
            return False  # no largest part to be odd
        top = parts[0]
        if top % 2 == 0:
            return False
        mult = parts.count(top)
        if spec.largest == "odd_at_least_two" and mult < 2:
            return False
        if spec.largest == "odd_exactly_one" and mult != 1:
            return False
    return True


def _plan(n: int, spec: ConstraintSpec) -> tuple:
    # The walks' one reading of the spec and n, refused in that order, as
    # (heads, lo, below, is_part, run) for parts and sums up to n:
    #   heads: the heads of the partitions of n, largest first, as (head,
    #     budget, cap): budget is n minus the head, and cap bounds every later
    #     part.  A spec with no rule on its largest part has the one head
    #     (), n, n: the whole partition is a tail.  Otherwise head holds
    #     `copies` of an odd largest part k <= n // copies, and cap is k less
    #     `cap_drop`: 1 when k may appear only once, 0 when it may repeat, as
    #     an odd part may;
    #   lo: spec.min_part, the smallest allowed part size unless it is a
    #     multiple of the modulus: then lo is no part, and run holds r = 0 alone;
    #   below[m]: the allowed parts k with lo < k <= m, largest first, each
    #     paired with the bound it leaves on the parts after it, as (k, cap);
    #   is_part[k]: whether k is an allowed part above lo;
    #   run[r]: whether a run of lo alone can make up r.
    # Each below[m] is a slice of below[n]: a Python filter per m would cost O(n^2) steps per call.
    check_type("spec", spec, ConstraintSpec)
    check_int("n", n, 0)
    lo, modulus = spec.min_part, spec.regular_modulus
    if spec.largest == "any":
        heads = [((), n, n)]
    else:
        copies, cap_drop = {"odd": (1, 0), "odd_at_least_two": (2, 0), "odd_exactly_one": (1, 1)}[spec.largest]
        heads = [
            ((k,) * copies, n - copies * k, k - cap_drop)
            for k in range(n // copies, lo - 1, -1)
            if k % 2 == 1 and (modulus is None or k % modulus != 0)
        ]
    size = n + 1
    is_part = [k > lo and (modulus is None or k % modulus != 0) for k in range(size)]
    parts = [(k, k - 1 if spec.distinct_even and k % 2 == 0 else k) for k in range(size - 1, lo, -1) if is_part[k]]
    # accumulate(is_part) counts the allowed parts above lo up to each m: the last that many of parts.
    below = [parts[len(parts) - j :] for j in accumulate(is_part)]
    # A run holds no lo when lo is a multiple of the modulus, and one when lo is an even part that may not repeat.
    lo_runs = 0 if modulus is not None and lo % modulus == 0 else 1 if spec.distinct_even and lo % 2 == 0 else size
    run = [r % lo == 0 and r // lo <= lo_runs for r in range(size)]
    return heads, lo, below, is_part, run


def _tails(remaining: int, cap: int, plan: tuple) -> Iterator[Tuple[int, ...]]:
    # Nonincreasing part tuples summing to `remaining` with parts <= cap,
    # honoring min_part / regular_modulus / distinct_even.  Descending choice
    # of the next part yields lexicographically decreasing output; the
    # smallest part can only close a tail, so its run is taken in one step.
    if remaining == 0:
        yield ()
        return
    _, lo, below, _, run = plan
    for k, after in below[min(remaining, cap)]:
        for rest in _tails(remaining - k, after, plan):
            yield (k,) + rest
    if lo <= cap and run[remaining]:
        yield (lo,) * (remaining // lo)


def enumerate_partitions(n: int, spec: ConstraintSpec) -> List[Partition]:
    """All partitions of n satisfying spec, lexicographically decreasing.

    A negative n is a ``ValueError``, refused after the spec, as
    :func:`count_oracle_table` refuses a negative bound.  A small-n
    reference: the list, and the time, grow exponentially with n.  Only
    ``enumerate`` is capped in the CLI, by ``--oracle-limit``;
    :func:`count_oracle_table` is the route for depth.
    """
    plan = _plan(n, spec)
    return [
        Partition(head + tail)
        for head, budget, cap in plan[0]
        for tail in _tails(budget, cap, plan)
    ]


def count_oracle(n: int, spec: ConstraintSpec) -> int:
    """Brute-force count of the partitions of n that satisfy spec.

    Every counted partition is reached by its own path through the tree that
    :func:`enumerate_partitions` walks, but no partition is built.  The
    leaves of a node are the run of the smallest part lo alone, the rest as
    one part and the rest less one lo closed by that lo; two per-r tables,
    ``near`` and ``full``, sum their indicators.  A node adds its own and
    its children's leaves from them, one indicator per counted partition,
    and calls only for its grandchildren, so each call walks two levels.

    A small-n reference, like the enumerator: its time grows exponentially
    with n, and the benchmark's ``oracle-40`` workload measures it.  Only
    ``enumerate`` is capped in the CLI, by ``--oracle-limit``;
    :func:`count_oracle_table` is the route for depth, and the tests check
    it against this walk.  A negative n is a ``ValueError``, refused after
    the spec, as :func:`count_oracle_table` refuses a negative bound.
    """
    heads, lo, below, is_part, run = _plan(n, spec)
    # The leaves of a node with r left, as sums of indicators of distinct
    # partitions: near[r] counts the run of lo alone and the part r - lo
    # closed by one lo (r > lo keeps run[lo] in range), and full[r] also the
    # part r alone.  A node with parts <= c adds full[r] when r <= c, near[r]
    # when r - lo <= c < r, and only run[r] otherwise; no table tests lo <= c,
    # so the node's cap must be at least lo.
    near = [run[r] + (r > lo and run[lo] and is_part[r - lo]) for r in range(len(run))]
    full = [near[r] + is_part[r] for r in range(len(run))]

    def tails(r: int, c: int) -> int:
        # The tails of a node with r > 0 left and parts <= c, where c >= lo:
        # it adds its own leaves and its children's, and calls only for its
        # grandchildren.  Only parts k <= r - lo - 1 are descended into; a
        # larger part leaves lo or less, a leaf or nothing.  So every node
        # below has more than lo left, and a cap of at least lo as k > lo.
        if r - lo > c:
            total, m = run[r], c
        else:
            total, m = full[r] if r <= c else near[r], r - lo - 1
        if m > lo:
            for k, after in below[m]:
                r2 = r - k
                if r2 - lo > after:
                    total += run[r2]
                    m2 = after
                else:
                    total += full[r2] if r2 <= after else near[r2]
                    m2 = r2 - lo - 1
                if m2 > lo:
                    for k2, after2 in below[m2]:
                        total += tails(r2 - k2, after2)
        return total

    # Only a head can have a cap below lo, and then no part fits its budget.
    total = sum((tails(budget, cap) if cap >= lo else 0) if budget else 1 for _, budget, cap in heads)
    del tails  # tails refers to itself, so the plan would otherwise wait for the cycle collector
    return total


def count_oracle_table(up_to: int, spec: ConstraintSpec) -> List[int]:
    """``[count_oracle(n, spec) for n in range(up_to + 1)]``, counted part by part.

    A negative ``up_to`` is a ``ValueError``, as a negative order is for the
    ``gf_*`` builders.  The count reads the spec's rules directly and enumerates nothing.  It
    takes the allowed part sizes k in ascending order and keeps T[n], the
    number of partitions of n into the sizes taken so far.  Taking k adds
    T[n - k] to T[n]: for descending n when k is an even part that may be
    used only once, for ascending n otherwise.  When the largest part must
    be odd, each odd k then adds the partitions whose largest part is k:
    taking one k off leaves a partition of n - k into the sizes taken so far,
    so T[n - k] of them hold k at least once, and T[n - 2k] (0 when n < 2k)
    at least twice.  It shares no counting code with :func:`count_oracle`,
    which the tests check it against, nor with the ``gf_*`` builders.  Its
    time grows as O(up_to^2); the benchmark's ``oracle-40`` workload
    measures it.
    """
    check_type("spec", spec, ConstraintSpec)
    check_int("up_to", up_to, 0)
    table = [1] + [0] * up_to
    counts = [0] * (up_to + 1) if spec.largest != "any" else table
    # The weights on table[n - k] (largest part k) and table[n - 2k] (k at
    # least twice) pick the partitions the largest-part rule counts.
    one, two = {"any": (1, 0), "odd": (1, 0), "odd_at_least_two": (0, 1), "odd_exactly_one": (1, -1)}[spec.largest]
    for k in range(spec.min_part, up_to + 1):
        if spec.regular_modulus is not None and k % spec.regular_modulus == 0:
            continue
        # Descending n reads only counts without k, so k is used at most once.
        for n in range(up_to, k - 1, -1) if spec.distinct_even and k % 2 == 0 else range(k, up_to + 1):
            table[n] += table[n - k]
        if spec.largest != "any" and k % 2 == 1:
            for n in range(k, up_to + 1):
                counts[n] += one * table[n - k] + (two * table[n - 2 * k] if n >= 2 * k else 0)
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
