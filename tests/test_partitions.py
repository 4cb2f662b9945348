import gc
import inspect
import itertools
import random
import re
import sys

import pytest

from qident.partitions import (
    ConstraintSpec,
    FAMILY_SERIES,
    FAMILY_SPECS,
    Partition,
    count_oracle,
    count_oracle_table,
    enumerate_partitions,
    gf_de1,
    gf_de2,
    gf_de3,
    gf_ped,
    gf_regular4,
    gf_regular4_min2,
    satisfies,
)

from oracles import all_partitions

GOLDEN_COUNTS = [
    ("DE1", 8, 9),
    ("DE1", 7, 7),
    ("DE2", 10, 5),
    ("DE2", 7, 2),
    ("DE3", 10, 11),
    ("DE3", 7, 5),
    ("regular4", 8, 16),
    ("regular4min2", 10, 7),
]

# Worked example listings, as part tuples.
GOLDEN_LISTS = {
    ("DE1", 8): [
        (7, 1),
        (5, 3),
        (5, 2, 1),
        (5, 1, 1, 1),
        (3, 3, 2),
        (3, 3, 1, 1),
        (3, 2, 1, 1, 1),
        (3, 1, 1, 1, 1, 1),
        (1,) * 8,
    ],
    ("DE1", 7): [
        (7,),
        (5, 2),
        (5, 1, 1),
        (3, 3, 1),
        (3, 2, 1, 1),
        (3, 1, 1, 1, 1),
        (1,) * 7,
    ],
    ("DE2", 10): [
        (5, 5),
        (3, 3, 3, 1),
        (3, 3, 2, 1, 1),
        (3, 3, 1, 1, 1, 1),
        (1,) * 10,
    ],
    ("DE2", 7): [(3, 3, 1), (1,) * 7],
    ("DE3", 10): [
        (9, 1),
        (7, 3),
        (7, 2, 1),
        (7, 1, 1, 1),
        (5, 4, 1),
        (5, 3, 2),
        (5, 3, 1, 1),
        (5, 2, 1, 1, 1),
        (5, 1, 1, 1, 1, 1),
        (3, 2, 1, 1, 1, 1, 1),
        (3, 1, 1, 1, 1, 1, 1, 1),
    ],
    ("DE3", 7): [(7,), (5, 2), (5, 1, 1), (3, 2, 1, 1), (3, 1, 1, 1, 1)],
    ("regular4", 8): [
        (7, 1),
        (6, 2),
        (6, 1, 1),
        (5, 3),
        (5, 2, 1),
        (5, 1, 1, 1),
        (3, 3, 2),
        (3, 3, 1, 1),
        (3, 2, 2, 1),
        (3, 2, 1, 1, 1),
        (3, 1, 1, 1, 1, 1),
        (2, 2, 2, 2),
        (2, 2, 2, 1, 1),
        (2, 2, 1, 1, 1, 1),
        (2, 1, 1, 1, 1, 1, 1),
        (1,) * 8,
    ],
    ("regular4min2", 10): [
        (10,),
        (7, 3),
        (6, 2, 2),
        (5, 5),
        (5, 3, 2),
        (3, 3, 2, 2),
        (2, 2, 2, 2, 2),
    ],
}


# -- domain types ---------------------------------------------------------------


def test_partition_validation():
    assert Partition((3, 2, 2)).n == 7
    assert str(Partition((5, 2, 1))) == "5+2+1"
    assert str(Partition(())) == "(empty)"
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((1, 0))


def test_constraint_spec_validation():
    with pytest.raises(ValueError):
        ConstraintSpec(largest_multiplicity="exactly_one")  # needs odd parity
    with pytest.raises(ValueError):
        ConstraintSpec(largest_parity="even")
    with pytest.raises(ValueError):
        ConstraintSpec(regular_modulus=1)
    with pytest.raises(ValueError):
        ConstraintSpec(min_part=0)
    # The exact text: without its own check an unknown value fails the parity check with another one.
    message = "largest_multiplicity must be one of ('any', 'at_least_two', 'exactly_one')"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ConstraintSpec(largest_multiplicity="bogus")


# -- golden examples --------------------------------------------------------------


@pytest.mark.parametrize("family,n,expected", GOLDEN_COUNTS)
def test_golden_counts_oracle(family, n, expected):
    assert count_oracle(n, FAMILY_SPECS[family]) == expected


@pytest.mark.parametrize("family,n,expected", GOLDEN_COUNTS)
def test_golden_counts_series(family, n, expected):
    assert FAMILY_SERIES[family](n).coeff(n) == expected


@pytest.mark.parametrize("family,n", sorted(GOLDEN_LISTS))
def test_golden_listings(family, n):
    got = enumerate_partitions(n, FAMILY_SPECS[family])
    assert [p.parts for p in got] == GOLDEN_LISTS[(family, n)]


def test_enumerate_derived_examples():
    got = enumerate_partitions(4, ConstraintSpec(regular_modulus=4))
    assert [p.parts for p in got] == [(3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert enumerate_partitions(0, FAMILY_SPECS["DE1"]) == []


def test_empty_partition_semantics():
    # No largest part: rejected whenever a largest-part predicate is active.
    for family in ("DE1", "DE2", "DE3"):
        assert count_oracle(0, FAMILY_SPECS[family]) == 0
    for family in ("ped", "regular4", "regular4min2"):
        parts = enumerate_partitions(0, FAMILY_SPECS[family])
        assert parts == [Partition(())]


def test_negative_n():
    for walk in (count_oracle, enumerate_partitions):
        with pytest.raises(ValueError, match=r"^n must be nonnegative, got -1$"):
            walk(-1, FAMILY_SPECS["DE2"])


# -- enumeration vs direct predicate filtering ------------------------------------


def sample_specs(rng):
    parity = rng.choice(["any", "odd"])
    mult = rng.choice(["any", "at_least_two", "exactly_one"]) if parity == "odd" else "any"
    return ConstraintSpec(
        distinct_even=rng.choice([True, False]),
        largest_parity=parity,
        largest_multiplicity=mult,
        regular_modulus=rng.choice([None, 2, 3, 4, 5]),
        min_part=rng.choice([1, 1, 1, 2, 3]),
    )


def test_enumeration_matches_filtered_brute_force():
    rng = random.Random(31337)
    for _ in range(80):
        n = rng.randint(0, 18)
        spec = sample_specs(rng)
        got = enumerate_partitions(n, spec)
        want = [
            t for t in all_partitions(n) if satisfies(Partition(t), spec)
        ]
        assert [p.parts for p in got] == want  # same contents, same lex order
        assert len(set(got)) == len(got)


LARGEST_SHAPES = [
    ("any", "any"),
    ("odd", "any"),
    ("odd", "at_least_two"),
    ("odd", "exactly_one"),
]


@pytest.mark.parametrize("distinct_even", [False, True])
@pytest.mark.parametrize("parity,mult", LARGEST_SHAPES)
def test_count_oracle_walk_matches_enumeration(distinct_even, parity, mult):
    # The grid includes an even smallest part under distinct_even and a
    # smallest part that the modulus excludes, where the trailing run of the
    # smallest part must not be taken.  Up to n = 12 both walks are also
    # checked against filtering every partition with the direct predicate,
    # and the part-by-part table against the per-n counts.  From 23 to 30,
    # where count_oracle's trees are three or more levels deep for every
    # min_part, the walk is checked against the table alone.
    filtered_to = 12
    every = [[Partition(t) for t in all_partitions(n)] for n in range(filtered_to + 1)]
    for modulus, min_part in itertools.product([None, 2, 3, 4, 5, 6], range(1, 6)):
        spec = ConstraintSpec(distinct_even, parity, mult, modulus, min_part)
        counts = []
        for n in range(23):
            count = count_oracle(n, spec)
            assert count == len(enumerate_partitions(n, spec)), (spec, n)
            if n <= filtered_to:
                assert count == sum(satisfies(p, spec) for p in every[n]), (spec, n)
            counts.append(count)
        assert count_oracle_table(22, spec) == counts, spec
        table = count_oracle_table(30, spec)
        assert [count_oracle(n, spec) for n in range(23, 31)] == table[23:], spec
        for up_to in range(4):
            assert count_oracle_table(up_to, spec) == counts[: up_to + 1], (spec, up_to)
        with pytest.raises(ValueError, match=r"^up_to must be nonnegative, got -1$"):
            count_oracle_table(-1, spec)
        for walk in (count_oracle, enumerate_partitions):
            with pytest.raises(ValueError, match=r"^n must be nonnegative, got -1$"):
                walk(-1, spec)


@pytest.mark.parametrize("distinct_even", [False, True])
@pytest.mark.parametrize("parity,mult", LARGEST_SHAPES)
def test_both_walks_match_filtered_partitions_to_16(distinct_even, parity, mult):
    # Every partition of n <= 16, unpruned, filtered by the direct predicate:
    # covers the leaf children that count_oracle tallies without descending
    # (the run of the smallest part, the remainder as one part, the remainder
    # less one smallest part closed by it) and the plan's modulus filter.
    up_to = 16
    every = [[Partition(t) for t in all_partitions(n)] for n in range(up_to + 1)]
    for modulus, min_part in itertools.product([None, 2, 3, 4, 5, 6], range(1, 6)):
        spec = ConstraintSpec(distinct_even, parity, mult, modulus, min_part)
        want = [sum(satisfies(p, spec) for p in every[n]) for n in range(up_to + 1)]
        assert [count_oracle(n, spec) for n in range(up_to + 1)] == want, spec
        assert count_oracle_table(up_to, spec) == want, spec


def test_enumeration_is_lex_decreasing_and_valid():
    for family, spec in FAMILY_SPECS.items():
        for n in range(0, 22):
            parts = enumerate_partitions(n, spec)
            seqs = [p.parts for p in parts]
            assert seqs == sorted(seqs, reverse=True)
            for p in parts:
                assert p.n == n
                assert satisfies(p, spec)


# -- generating functions -----------------------------------------------------------


def test_gf_examples():
    assert gf_de1(8).coeff(8) == 9
    assert gf_de1(3).coeff(3) == 2  # {3, 1+1+1}
    assert gf_de2(10).coeff(10) == 5
    assert gf_regular4(8).coeff(8) == 16
    assert gf_regular4(0).coeff(0) == 1
    assert gf_regular4_min2(10).coeff(10) == 7


def test_gf_zero_constant_terms():
    for builder in (gf_de1, gf_de2, gf_de3):
        assert builder(12).coeff(0) == 0
    for builder in (gf_ped, gf_regular4, gf_regular4_min2):
        assert builder(12).coeff(0) == 1


def test_oracle_series_agreement_to_40():
    order = 40
    for family, spec in FAMILY_SPECS.items():
        series = FAMILY_SERIES[family](order)
        for n in range(order + 1):
            assert series.coeff(n) == count_oracle(n, spec), (family, n)


def test_oracle_series_agreement_to_50():
    order = 50
    for family, spec in FAMILY_SPECS.items():
        series = FAMILY_SERIES[family](order)
        for n in range(order + 1):
            assert series.coeff(n) == count_oracle(n, spec), (family, n)
        assert count_oracle_table(order, spec) == list(series.coeffs), family


def test_oracle_table_matches_series_to_60():
    order = 60
    for family, spec in FAMILY_SPECS.items():
        assert count_oracle_table(order, spec) == list(FAMILY_SERIES[family](order).coeffs), family


def test_oracle_table_matches_series_to_1000():
    # The table shares no code with the builders, so this anchors them deep.
    order = 1000
    for family, spec in FAMILY_SPECS.items():
        assert count_oracle_table(order, spec) == list(FAMILY_SERIES[family](order).coeffs), family


def test_oracle_table_needs_no_recursion_depth_that_grows_with_up_to():
    order = 200
    want = {family: list(FAMILY_SERIES[family](order).coeffs) for family in FAMILY_SPECS}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        for family, spec in FAMILY_SPECS.items():
            assert count_oracle_table(order, spec) == want[family], family
    finally:
        sys.setrecursionlimit(limit)


def test_count_oracle_leaves_no_reference_cycle():
    # The walk's recursive closure refers to itself; count_oracle breaks that
    # cycle on return, so the plan is freed without the cycle collector.
    gc.collect()
    gc.disable()
    try:
        count_oracle(20, FAMILY_SPECS["DE1"])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_count_oracle_refuses_non_int_n():
    for n in (True, 3.0):
        with pytest.raises(TypeError):
            count_oracle(n, FAMILY_SPECS["DE1"])


def test_count_oracle_table_refuses_non_int_up_to():
    for up_to in (True, 3.0):
        with pytest.raises(TypeError):
            count_oracle_table(up_to, FAMILY_SPECS["DE1"])


def test_enumerate_partitions_refuses_non_int_n():
    for n in (True, 3.0):
        with pytest.raises(TypeError):
            enumerate_partitions(n, FAMILY_SPECS["ped"])


def test_constraint_spec_refuses_non_int_fields():
    for kwargs in (
        {"min_part": True},
        {"min_part": 1.5},
        {"min_part": 2.0},
        {"regular_modulus": 4.0},
        {"regular_modulus": True},
    ):
        with pytest.raises(TypeError):
            ConstraintSpec(**kwargs)


def test_constraint_spec_refuses_non_bool_distinct_even():
    for value in ("no", 1, 0, None):
        with pytest.raises(TypeError, match="distinct_even must be bool"):
            ConstraintSpec(distinct_even=value)
    assert count_oracle(6, ConstraintSpec(distinct_even=False)) == 11


def test_partition_refuses_non_int_parts():
    for parts in ((4, True), (2.0,), (3, 1.0)):
        with pytest.raises(TypeError):
            Partition(parts)


def test_ped_equals_regular4_to_200():
    assert gf_ped(200) == gf_regular4(200)


def test_family_partition_of_de1():
    # The largest part appears either exactly once or at least twice.
    de1 = gf_de1(40)
    de2 = gf_de2(40)
    de3 = gf_de3(40)
    assert de1 == de2 + de3
    for n in range(41):
        assert de2.coeff(n) <= de1.coeff(n)
    for n in range(41):
        a = count_oracle(n, FAMILY_SPECS["DE1"])
        b = count_oracle(n, FAMILY_SPECS["DE2"])
        c = count_oracle(n, FAMILY_SPECS["DE3"])
        assert a == b + c
