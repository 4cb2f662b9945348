"""Acceptance gate: one test per criterion, each printing a PASS line.

Every comparison is integer-exact; the only tolerances are the two runtime
budgets (1 s for the golden counts, 5 s for the full identity sweep).
"""

import random
import time

from qident.cli import main
from qident.identities import negative_control, registry, verify, verify_all, verify_relation
from qident.partitions import (
    FAMILY_SERIES,
    FAMILY_SPECS,
    count_oracle,
    enumerate_partitions,
    gf_de1,
    gf_de2,
    gf_de3,
    gf_ped,
    gf_regular4,
)
from qident.series import QMonomial, TruncatedSeries, poch_finite, poch_infinite

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


def test_criterion_1_golden_counts():
    start = time.perf_counter()
    for family, n, expected in GOLDEN_COUNTS:
        assert FAMILY_SERIES[family](n).coeff(n) == expected, (family, n)
        assert count_oracle(n, FAMILY_SPECS[family]) == expected, (family, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"golden counts took {elapsed:.2f}s, budget is 1s"
    print(f"\nACCEPTANCE 1: PASS - 8 golden counts, series and oracle, {elapsed:.3f}s")


def test_criterion_2_golden_listings():
    de1_8 = {
        (7, 1),
        (5, 3),
        (5, 2, 1),
        (5, 1, 1, 1),
        (3, 3, 2),
        (3, 3, 1, 1),
        (3, 2, 1, 1, 1),
        (3, 1, 1, 1, 1, 1),
        (1,) * 8,
    }
    min2_10 = {
        (10,),
        (7, 3),
        (6, 2, 2),
        (5, 5),
        (5, 3, 2),
        (3, 3, 2, 2),
        (2, 2, 2, 2, 2),
    }
    de2_7 = {(3, 3, 1), (1,) * 7}
    assert {p.parts for p in enumerate_partitions(8, FAMILY_SPECS["DE1"])} == de1_8
    assert {
        p.parts for p in enumerate_partitions(10, FAMILY_SPECS["regular4min2"])
    } == min2_10
    assert {p.parts for p in enumerate_partitions(7, FAMILY_SPECS["DE2"])} == de2_7
    print("\nACCEPTANCE 2: PASS - golden listings match as sets")


def test_criterion_3_identity_suite_at_200():
    start = time.perf_counter()
    reports = [verify(case, 200) for case in registry()]
    elapsed = time.perf_counter() - start
    failures = [(r.id, r.mismatch) for r in reports if not r.passed]
    assert not failures, failures
    assert elapsed < 5.0, f"identity sweep took {elapsed:.2f}s, budget is 5s"
    print(
        f"\nACCEPTANCE 3: PASS - {len(reports)} registry cases at order 200, "
        f"zero mismatches, {elapsed:.2f}s"
    )


def test_criterion_4_count_relations():
    for kind in ("cor1", "cor2", "cor3", "cor4"):
        series_report = verify_relation(kind, 200)
        assert series_report.passed, (kind, series_report.mismatch)
        oracle_report = verify_relation(kind, 40, use_oracle=True)
        assert oracle_report.passed, (kind, oracle_report.mismatch)
    print(
        "\nACCEPTANCE 4: PASS - cor1..cor4 exact via series to 200 "
        "and via part-by-part counts to 40"
    )


def test_criterion_5_property_suites():
    rng = random.Random(2024)

    def rand_series(order):
        return TruncatedSeries([rng.randint(-9, 9) for _ in range(order + 1)], order)

    # ring axioms on random small series
    for _ in range(30):
        order = rng.randint(0, 32)
        a, b, c = (rand_series(order) for _ in range(3))
        assert a + b == b + a and a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert TruncatedSeries.one(order) * a == a

    # truncation coherence
    for _ in range(20):
        big = rng.randint(1, 32)
        small = rng.randint(0, big)
        a, b = rand_series(big), rand_series(big)
        assert (a * b).truncate(small) == a.truncate(small) * b.truncate(small)
        assert (a + b).truncate(small) == a.truncate(small) + b.truncate(small)

    # invert contract on 100 unit series
    for _ in range(100):
        order = rng.randint(0, 32)
        s = rand_series(order)
        s = TruncatedSeries([rng.choice([1, -1])] + list(s.coeffs[1:]), order)
        assert s * s.invert() == TruncatedSeries.one(order)

    # splitting laws for Pochhammer products
    for sign in (1, -1):
        for exp in (1, 2):
            a = QMonomial(sign, exp)
            for n in (1, 3, 8):
                for m in (0, 2, 8):
                    assert poch_finite(a, 1, n + m, 40) == poch_finite(
                        a, 1, m, 40
                    ) * poch_finite(a.shifted(m), 1, n, 40)
                assert poch_infinite(a, 1, 100) == poch_finite(
                    a, 1, n, 100
                ) * poch_infinite(a.shifted(n), 1, 100)
            assert poch_infinite(a, 1, 100) == poch_infinite(a, 2, 100) * poch_infinite(
                a.shifted(1), 2, 100
            )

    # pentagonal sparsity regression
    euler = poch_infinite(QMonomial(1, 1), 1, 500)
    assert all(coefficient in (-1, 0, 1) for coefficient in euler.coeffs)

    # DE1 = DE2 + DE3 up to 40
    assert gf_de1(40) == gf_de2(40) + gf_de3(40)
    for n in range(41):
        assert count_oracle(n, FAMILY_SPECS["DE1"]) == count_oracle(
            n, FAMILY_SPECS["DE2"]
        ) + count_oracle(n, FAMILY_SPECS["DE3"])

    # distinct-even counts equal 4-regular counts up to 200
    assert gf_ped(200) == gf_regular4(200)

    print("\nACCEPTANCE 5: PASS - ring, truncation, inverse, splitting, "
          "pentagonal, and family-sum properties all exact")


def test_criterion_6_negative_control(capsys):
    report = verify(negative_control(50), 200)
    assert report.status == "fail"
    assert report.mismatch[0] == 50

    code = main(["verify", "negative-control", "--order", "200", "--machine"])
    out = capsys.readouterr().out
    fields = out.strip().split(",")
    assert code != 0
    assert fields[2] == "fail" and fields[3] == "50"
    with capsys.disabled():
        print("\nACCEPTANCE 6: PASS - perturbed identity fails at q^50, CLI exits nonzero")


def test_full_batch_consistency():
    # belt and braces: the aggregated runner agrees with the per-case loop
    reports = verify_all(120)
    assert all(r.passed for r in reports)
    assert len(reports) == len(registry()) + 4
