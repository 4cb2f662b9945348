import itertools
import random

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
    assert count_oracle(-3, FAMILY_SPECS["DE2"]) == 0
    assert enumerate_partitions(-1, FAMILY_SPECS["ped"]) == []


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
    # and the one-walk table against the per-n counts.
    filtered_to = 12
    every = [[Partition(t) for t in all_partitions(n)] for n in range(filtered_to + 1)]
    for modulus, min_part in itertools.product([None, 2, 3, 4, 5, 6], range(1, 6)):
        spec = ConstraintSpec(distinct_even, parity, mult, modulus, min_part)
        counts = []
        for n in range(-1, 23):
            count = count_oracle(n, spec)
            assert count == len(enumerate_partitions(n, spec)), (spec, n)
            if 0 <= n <= filtered_to:
                assert count == sum(satisfies(p, spec) for p in every[n]), (spec, n)
            if n >= 0:
                counts.append(count)
        assert count_oracle_table(22, spec) == counts, spec
        for up_to in range(-1, 4):
            assert count_oracle_table(up_to, spec) == counts[: up_to + 1], (spec, up_to)


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


def test_count_oracle_refuses_non_int_n():
    for n in (True, 3.0):
        with pytest.raises(TypeError):
            count_oracle(n, FAMILY_SPECS["DE1"])


def test_count_oracle_table_refuses_non_int_up_to():
    for up_to in (True, 3.0):
        with pytest.raises(TypeError):
            count_oracle_table(up_to, FAMILY_SPECS["DE1"])


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
