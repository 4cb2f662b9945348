import random
from functools import partial

import pytest

from qident.series import (
    QMonomial,
    TruncatedSeries,
    binomial_quotient,
    poch_finite,
    poch_infinite,
    ratio_sum,
    times_binomials,
)

from oracles import (
    brute_poch_finite,
    brute_poch_infinite,
    coeff_list,
    pentagonal_euler_coeffs,
)


def ts(*coeffs, order=None):
    return TruncatedSeries(list(coeffs), order)


def random_series(rng, max_order=32, span=9):
    order = rng.randint(0, max_order)
    return ts(*[rng.randint(-span, span) for _ in range(order + 1)])


def random_unit_series(rng, max_order=32, span=9):
    s = random_series(rng, max_order, span)
    cs = list(s.coeffs)
    cs[0] = rng.choice([1, -1])
    return ts(*cs)


# -- constructors -------------------------------------------------------------


def test_monomial_examples():
    assert TruncatedSeries.monomial(1, 0, 4) == ts(1, 0, 0, 0, 0)
    assert TruncatedSeries.monomial(-1, 2, 4) == ts(0, 0, -1, 0, 0)
    assert TruncatedSeries.monomial(1, 7, 4) == TruncatedSeries.zero(4)


def test_monomial_validation():
    with pytest.raises(ValueError):
        TruncatedSeries.monomial(2, 0, 4)
    with pytest.raises(ValueError):
        TruncatedSeries.monomial(1, -1, 4)


def test_constructor_pads_and_truncates():
    assert TruncatedSeries([1, 2], 4).coeffs == (1, 2, 0, 0, 0)
    assert TruncatedSeries([1, 2, 3, 4], 1).coeffs == (1, 2)
    with pytest.raises(TypeError):
        TruncatedSeries([1.0, 2.0])
    with pytest.raises(TypeError):
        TruncatedSeries([True, 2])
    with pytest.raises(TypeError, match="^coefficients must be int, got bool$"):
        TruncatedSeries([1, 2, True, 3.0] + [0] * 200)  # the first non-int is named
    with pytest.raises(ValueError):
        TruncatedSeries([], None)
    with pytest.raises(ValueError):
        TruncatedSeries([1], -1)


def test_constructor_refuses_non_int_order():
    for order in (True, False, 2.0):
        with pytest.raises(TypeError):
            TruncatedSeries([1, 2], order)


def test_qmonomial_refuses_non_int_fields():
    for sign, exp in ((1, 2.0), (True, 2), (1, True), (1.0, 2)):
        with pytest.raises(TypeError, match="must be int"):
            QMonomial(sign, exp)


def test_monomial_refuses_non_int_arguments():
    for args in ((1, 2, 3.0), (1, 2.0, 3), (True, 2, 3), (1, True, 3), (1, 2, True)):
        with pytest.raises(TypeError, match="must be int"):
            TruncatedSeries.monomial(*args)


def test_shift_refuses_non_int_exponent():
    for e in (True, 1.0):
        with pytest.raises(TypeError, match="must be int"):
            ts(1, 2, 3).shift(e)


def test_coeff_refuses_non_int_exponent():
    for k in (True, 1.0):
        with pytest.raises(TypeError, match="must be int"):
            ts(1, 2, 3).coeff(k)
        with pytest.raises(TypeError, match="must be int"):
            ts(1, 2, 3)[k]


def test_poch_refuses_non_int_step_or_count():
    a = QMonomial(1, 1)
    for bad in (True, 1.0):
        with pytest.raises(TypeError, match="must be int"):
            poch_finite(a, bad, 2, 3)
        with pytest.raises(TypeError, match="must be int"):
            poch_finite(a, 1, bad, 3)
        with pytest.raises(TypeError, match="must be int"):
            poch_infinite(a, bad, 3)


def test_truncate_refuses_non_int_order():
    for order in (1.0, True):
        with pytest.raises(TypeError, match="^order must be int, got"):
            ts(1, 2, 3).truncate(order)


def test_immutable():
    s = ts(1, 2, 3)
    with pytest.raises(AttributeError):
        s.order = 5


# -- linear operations ---------------------------------------------------------


def test_add_sub_neg():
    assert ts(1, 1) + ts(1, -1) == ts(2, 0)
    assert ts(1, 1) - ts(1, 1) == ts(0, 0)
    assert -ts(1, -2) == ts(-1, 2)


def test_int_operands():
    assert ts(0, 1, 0) + 1 == ts(1, 1, 0)
    assert 1 - ts(0, 1, 0) == ts(1, -1, 0)
    assert 2 * ts(1, 1) == ts(2, 2)


def test_scale():
    assert ts(1, 1, 1).scale(-3) == ts(-3, -3, -3)


def test_scale_refuses_non_int_factor():
    for c in (True, 2.0):
        with pytest.raises(TypeError):
            ts(1, 1).scale(c)


def test_shift():
    assert ts(1, 1, 0, 0, 0).shift(2) == ts(0, 0, 1, 1, 0)
    assert ts(1, 2, 3).shift(0) == ts(1, 2, 3)
    assert ts(1, 2, 3).shift(5) == TruncatedSeries.zero(2)
    with pytest.raises(ValueError):
        ts(1).shift(-1)


def test_mixed_orders_truncate_to_min():
    a = ts(1, 2, 3, 4)
    b = ts(1, 1)
    assert (a + b).order == 1
    assert (a * b).order == 1
    assert (a - b).coeffs == (0, 1)


# -- multiplication and inversion ----------------------------------------------


def test_mul_telescoping():
    order = 12
    geometric = ts(*[1] * (order + 1))
    one_minus_q = TruncatedSeries([1, -1], order)
    assert one_minus_q * geometric == TruncatedSeries.one(order)


def test_mul_direct():
    assert ts(1, -1, 0, 0) * ts(1, 0, -1, 0) == ts(1, -1, -1, 1)


def test_mul_truncates():
    assert ts(1, 1) * ts(1, 1) == ts(1, 2)


def test_invert_geometric():
    inv = TruncatedSeries([1, -1], 8).invert()
    assert inv.coeffs == (1,) * 9


def test_invert_one():
    assert TruncatedSeries.one(5).invert() == TruncatedSeries.one(5)


def test_invert_negative_unit():
    s = ts(-1, 3, 1, 4)
    assert s * s.invert() == TruncatedSeries.one(3)


def test_invert_nonunit_rejected():
    with pytest.raises(ValueError):
        ts(0, 1, 1).invert()
    with pytest.raises(ValueError):
        ts(2, 1).invert()


def test_invert_contract_randomized():
    rng = random.Random(20240)
    for _ in range(100):
        s = random_unit_series(rng)
        assert s * s.invert() == TruncatedSeries.one(s.order)


# -- queries --------------------------------------------------------------------


def test_coeff():
    s = ts(1, 0, 3)
    assert s.coeff(2) == 3
    assert s.coeff(1) == 0
    assert s[0] == 1
    with pytest.raises(IndexError):
        s.coeff(3)
    with pytest.raises(IndexError):
        s.coeff(-1)


def test_first_mismatch():
    assert ts(1, 1).first_mismatch(ts(1, 1)) is None
    assert ts(1, 1, 0).first_mismatch(ts(1, 1, 1)) == (2, 0, 1)
    assert ts(5, 1).first_mismatch(ts(4, 2)) == (0, 5, 4)
    # Only 0..min(order) is compared, whichever operand is the longer.
    assert ts(1, 2).first_mismatch(ts(1, 2, 9)) is None
    assert ts(1, 2, 3, 7).first_mismatch(ts(1, 2, 4)) == (2, 3, 4)
    one_minus_q = TruncatedSeries([1, -1], 10)
    product = one_minus_q * one_minus_q.invert()
    assert product.first_mismatch(TruncatedSeries.one(10)) is None


def test_truncate():
    s = ts(1, 2, 3, 4)
    assert s.truncate(1) == ts(1, 2)
    assert s.truncate(3) == s
    with pytest.raises(ValueError):
        s.truncate(4)


def test_str():
    assert str(ts(1, -1, 0, 0, 0, 1)) == "1 - q + q^5 + O(q^6)"
    assert str(TruncatedSeries.zero(3)) == "0 + O(q^4)"
    assert str(ts(-2, 0, 3)) == "-2 + 3q^2 + O(q^3)"


# -- Pochhammer products ----------------------------------------------------------


def test_poch_finite_examples():
    assert poch_finite(QMonomial(1, 1), 1, 2, 3) == ts(1, -1, -1, 1)
    assert poch_finite(QMonomial(-1, 2), 2, 1, 4) == ts(1, 0, 1, 0, 0)
    assert poch_finite(QMonomial(-1, 2), 2, 0, 4) == TruncatedSeries.one(4)


def test_poch_finite_unit_parameter():
    # (1;q)_n vanishes for n >= 1; (-1;q)_n doubles.
    assert poch_finite(QMonomial(1, 0), 1, 3, 6).is_zero()
    assert poch_finite(QMonomial(-1, 0), 1, 1, 6) == ts(2, 0, 0, 0, 0, 0, 0)


def test_poch_finite_matches_brute_force():
    rng = random.Random(7)
    for _ in range(40):
        sign = rng.choice([1, -1])
        exp = rng.randint(0, 4)
        step = rng.randint(1, 3)
        count = rng.randint(0, 9)
        order = rng.randint(0, 30)
        expected = coeff_list(
            brute_poch_finite(sign, exp, step, count, order), order
        )
        got = poch_finite(QMonomial(sign, exp), step, count, order)
        assert got.coeffs == tuple(expected)


def test_poch_infinite_examples():
    # (q;q)_inf to order 6, cross-checked against independent expansion
    got = poch_infinite(QMonomial(1, 1), 1, 6)
    assert got.coeffs == (1, -1, -1, 0, 0, 1, 0)
    brute = coeff_list(brute_poch_infinite(1, 1, 1, 6), 6)
    assert got.coeffs == tuple(brute)

    assert poch_infinite(QMonomial(1, 8), 4, 7) == TruncatedSeries.one(7)
    assert poch_infinite(QMonomial(-1, 2), 2, 4) == ts(1, 0, 1, 0, 1)


def test_poch_infinite_requires_positive_exponent():
    with pytest.raises(ValueError):
        poch_infinite(QMonomial(1, 0), 1, 10)


def test_poch_validation():
    with pytest.raises(ValueError):
        poch_finite(QMonomial(1, 1), 0, 2, 5)
    with pytest.raises(ValueError):
        poch_finite(QMonomial(1, 1), 1, -1, 5)
    with pytest.raises(ValueError):
        QMonomial(0, 1)
    with pytest.raises(ValueError):
        QMonomial(1, -2)


def _every_entry(product):
    # The product in num and in den of each kernel function that takes products.
    return (
        partial(binomial_quotient, 10, [product]),
        partial(binomial_quotient, 10, (), [product]),
        partial(times_binomials, [1] * 11, [product]),
        partial(times_binomials, [1] * 11, (), [product]),
        partial(ratio_sum, 10, 0, 1, ([product], ())),
        partial(ratio_sum, 10, 0, 1, ((), [product])),
    )


Q = QMonomial(1, 1)


@pytest.mark.parametrize(
    "calls, error, message",
    [
        (_every_entry((Q, -1, None)), ValueError, "step must be >= 1, got -1"),
        (_every_entry((Q, 0, None)), ValueError, "step must be >= 1, got 0"),
        (_every_entry((Q, 1, -2)), ValueError, "factor count must be nonnegative, got -2"),
        (_every_entry((Q, 1.0, None)), TypeError, "step must be int, got float"),
        (_every_entry((Q, 1, True)), TypeError, "factor count must be int, got bool"),
        (
            (partial(binomial_quotient, 10.0, [(Q, 1, None)]), partial(ratio_sum, 10.0, 0, 1, ([(Q, 1, None)], ()))),
            TypeError,
            "order must be int, got float",
        ),
        ((partial(poch_infinite, Q, 1, 3.0),), TypeError, "order must be int, got float"),
        ((partial(poch_infinite, Q, 0, 3),), ValueError, "step must be >= 1, got 0"),
        ((partial(poch_finite, Q, 1, 2, 3.0),), TypeError, "order must be int, got float"),
    ],
    ids=[
        "negative-step",
        "zero-step",
        "negative-count",
        "float-step",
        "bool-count",
        "float-order",
        "infinite-float-order",
        "infinite-zero-step",
        "finite-float-order",
    ],
)
def test_poch_binomials_refuses_bad_step_count_and_order(calls, error, message):
    # Every product (a, s, n) is checked where a kernel function lists its
    # factors, so a bad step, count or order fails there, by name, in num
    # and den alike, and never builds a product of none.  The test keeps
    # the name of the function that once listed the factors, and so its ids.
    for call in calls:
        with pytest.raises(error) as excinfo:
            call()
        assert str(excinfo.value) == message, call


# -- ring axioms and structural properties ------------------------------------------


def test_ring_axioms_randomized():
    rng = random.Random(11235)
    for _ in range(100):
        a = random_series(rng)
        b = random_series(rng)
        c = random_series(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert TruncatedSeries.one(a.order) * a == a
        assert a + TruncatedSeries.zero(a.order) == a


def test_truncation_coherence():
    rng = random.Random(555)
    for _ in range(60):
        big = rng.randint(1, 32)
        small = rng.randint(0, big)
        a = ts(*[rng.randint(-9, 9) for _ in range(big + 1)])
        b = ts(*[rng.randint(-9, 9) for _ in range(big + 1)])
        assert (a + b).truncate(small) == a.truncate(small) + b.truncate(small)
        assert (a * b).truncate(small) == a.truncate(small) * b.truncate(small)
        assert a.shift(2).truncate(small) == a.truncate(small).shift(2)
        u = ts(*([rng.choice([1, -1])] + [rng.randint(-9, 9) for _ in range(big)]))
        assert u.invert().truncate(small) == u.truncate(small).invert()


def test_truncation_coherence_poch():
    for order_small, order_big in ((5, 60), (17, 100)):
        for a, step in ((QMonomial(1, 1), 1), (QMonomial(-1, 2), 2)):
            assert poch_infinite(a, step, order_big).truncate(
                order_small
            ) == poch_infinite(a, step, order_small)
            assert poch_finite(a, step, 7, order_big).truncate(
                order_small
            ) == poch_finite(a, step, 7, order_small)


def test_poch_finite_splitting():
    # (a;Q)_(n+m) = (a;Q)_m * (a Q^m;Q)_n with Q = q^step
    order = 40
    for sign in (1, -1):
        for exp in (0, 1, 2, 3):
            for step in (1, 2):
                a = QMonomial(sign, exp)
                for n in (0, 1, 3, 8):
                    for m in (0, 2, 5, 8):
                        whole = poch_finite(a, step, n + m, order)
                        split = poch_finite(a, step, m, order) * poch_finite(
                            a.shifted(step * m), step, n, order
                        )
                        assert whole == split


def test_poch_infinite_splitting():
    # (a;Q)_inf = (a;Q)_n * (a Q^n;Q)_inf
    order = 100
    for sign in (1, -1):
        for exp in (1, 2, 3):
            for step in (1, 2):
                a = QMonomial(sign, exp)
                for n in (1, 4, 8):
                    whole = poch_infinite(a, step, order)
                    split = poch_finite(a, step, n, order) * poch_infinite(
                        a.shifted(step * n), step, order
                    )
                    assert whole == split


def test_poch_even_odd_split():
    # (a;q)_inf = (a;q^2)_inf * (aq;q^2)_inf
    order = 100
    for sign in (1, -1):
        for exp in (1, 2, 3):
            a = QMonomial(sign, exp)
            whole = poch_infinite(a, 1, order)
            split = poch_infinite(a, 2, order) * poch_infinite(a.shifted(1), 2, order)
            assert whole == split


def test_pentagonal_sparsity_to_500():
    order = 500
    euler = poch_infinite(QMonomial(1, 1), 1, order)
    assert all(c in (-1, 0, 1) for c in euler.coeffs)
    assert list(euler.coeffs) == pentagonal_euler_coeffs(order)
