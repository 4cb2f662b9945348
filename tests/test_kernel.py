"""The binomial kernel against the schoolbook operations, and the builders on it.

``mul_binomial``/``div_binomial`` must agree with ``TruncatedSeries.__mul__``
and ``invert()``; ``ratio_sum`` must agree with the sum built term by term
with dense operations; and every builder must commute with truncation, which
pins the ``exp(n) <= order`` stop conditions of the sums.
"""

import pytest

from qident.identities import registry
from qident.partitions import FAMILY_SERIES
from qident.series import (
    QMonomial,
    TruncatedSeries,
    div_binomial,
    mul_binomial,
    poch_infinite,
    ratio_sum,
)

from oracles import pentagonal_euler_coeffs


def binomial(sign, e, order):
    return TruncatedSeries.one(order) - TruncatedSeries.monomial(sign, e, order)


def test_binomial_kernel_matches_schoolbook():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        coeffs=st.integers(0, 60).flatmap(
            lambda order: st.lists(st.integers(-50, 50), min_size=order + 1, max_size=order + 1)
        ),
        sign=st.sampled_from([1, -1]),
        data=st.data(),
    )
    def check(coeffs, sign, data):
        order = len(coeffs) - 1
        e = data.draw(st.integers(0, order + 2), label="e")
        x = TruncatedSeries(coeffs, order)
        factor = binomial(sign, e, order)

        cs = list(coeffs)
        mul_binomial(cs, sign, e)
        assert cs == list((x * factor).coeffs)

        cs = list(coeffs)
        if e == 0:  # 1 - sign is 0 or 2: not a unit, refused by both
            with pytest.raises(ValueError):
                factor.invert()
            with pytest.raises(ValueError):
                div_binomial(cs, sign, e)
        else:
            div_binomial(cs, sign, e)
            assert cs == list((x * factor.invert()).coeffs)

    check()


def test_kernel_rejects_bad_binomials():
    for kernel in (mul_binomial, div_binomial):
        with pytest.raises(ValueError):
            kernel([1, 2, 3], 2, 1)
        with pytest.raises(ValueError):
            kernel([1, 2, 3], 1, -1)


def test_ratio_sum_matches_dense_sum():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    binomials = st.tuples(st.sampled_from([1, -1]), st.integers(1, 9))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        order=st.integers(0, 40),
        slope=st.integers(1, 4),
        offset=st.integers(0, 3),
        start=st.tuples(st.lists(binomials, max_size=3), st.lists(binomials, max_size=3)),
        num=st.lists(st.tuples(st.sampled_from([1, -1]), st.integers(0, 4), st.integers(0, 3)), max_size=2),
        den=st.lists(st.tuples(st.sampled_from([1, -1]), st.integers(1, 4), st.integers(0, 3)), max_size=2),
    )
    def check(order, slope, offset, start, num, den):
        # num and den entries (sign, c, d) stand for the binomial 1 - sign*q^(c + d*n)
        def factors(entries, n):
            return [(sign, c + d * n) for sign, c, d in entries]

        got = ratio_sum(
            order,
            lambda n: slope * n + offset,
            start,
            lambda n: factors(num, n),
            lambda n: factors(den, n),
        )

        term = TruncatedSeries.one(order)
        for sign, e in start[0]:
            term = term * binomial(sign, e, order)
        for sign, e in start[1]:
            term = term * binomial(sign, e, order).invert()
        want = TruncatedSeries.zero(order)
        n = 0
        while slope * n + offset <= order:
            want = want + term.shift(slope * n + offset)
            for sign, e in factors(num, n):
                term = term * binomial(sign, e, order)
            for sign, e in factors(den, n):
                term = term * binomial(sign, e, order).invert()
            n += 1
        assert got == want

    check()


COHERENCE_ORDERS = ((40, 0), (40, 1), (40, 2), (40, 3), (40, 7), (123, 40))


@pytest.mark.parametrize("case", registry(), ids=lambda case: case.id)
def test_registry_builders_commute_with_truncation(case):
    for big, small in COHERENCE_ORDERS:
        assert case.lhs(big).truncate(small) == case.lhs(small), ("lhs", big, small)
        assert case.rhs(big).truncate(small) == case.rhs(small), ("rhs", big, small)


@pytest.mark.parametrize("family", sorted(FAMILY_SERIES))
def test_family_builders_commute_with_truncation(family):
    build = FAMILY_SERIES[family]
    for big, small in COHERENCE_ORDERS:
        assert build(big).truncate(small) == build(small), (big, small)


def test_euler_product_matches_pentagonal_theorem_to_1000():
    euler = poch_infinite(QMonomial(1, 1), 1, 1000)
    assert list(euler.coeffs) == pentagonal_euler_coeffs(1000)
