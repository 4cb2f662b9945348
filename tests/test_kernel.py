"""The binomial kernel against the schoolbook operations, and the builders on it.

The kernel's two builders, ``binomial_quotient`` and ``ratio_sum``, take
Pochhammer products, triples ``(a, s, n)`` for ``(a; q^s)_n``, and a lone
binomial ``1 - a`` is the product ``(a, 1, 1)``.  The bare passes
``_mul_pass``/``_div_pass`` must agree with ``TruncatedSeries.__mul__`` and
``invert()``, and must act on a suffix of a list as on a list of its own;
each builder must check every product, once, before any pass runs;
``binomial_quotient`` must agree with the same binomials applied one bare
pass at a time, uncancelled; ``ratio_sum`` must agree with the sum built
term by term with dense operations; and every builder must commute with
truncation, which pins the ``first + step*n <= order`` stop condition of the
sums.  Every builder's output is pinned by recorded digests, and the deep
checks compare builders against references that use no builder at all.
"""

import hashlib
import json
import re
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest

from qident import series
from qident.identities import find_case, negative_control, registry, verify, verify_all
from qident.partitions import FAMILY_SERIES, gf_de1, gf_ped, gf_regular4, gf_regular4_min2
from qident.series import (
    QMonomial,
    TruncatedSeries,
    binomial_quotient,
    poch_finite,
    poch_infinite,
    ratio_sum,
)

from oracles import (
    asv_rhs,
    divisor_sum_product,
    four_regular_counts,
    help_rhs,
    partition_numbers,
    pentagonal_euler_coeffs,
    times_binomial,
)


def binomial(sign, e, order):
    return TruncatedSeries.one(order) - TruncatedSeries.monomial(sign, e, order)


def factor(sign, e):
    """The one-factor product (sign*q^e; q)_1 = 1 - sign*q^e."""
    return (QMonomial(sign, e), 1, 1)


def factors(binomials):
    """The one-factor product of each binomial (sign, e)."""
    return [factor(sign, e) for sign, e in binomials]


def mul_binomial(product, order=3):
    """One product (a, s, n) as a numerator, built by binomial_quotient."""
    return binomial_quotient(order, [product])


def div_binomial(product, order=3):
    """One product (a, s, n) as a divisor, built by binomial_quotient."""
    return binomial_quotient(order, (), [product])


def bare_passes(order, num, den):
    """1 times the binomials (sign, e) in num over those in den, one bare pass each, uncancelled."""
    cs = [1] + [0] * order
    for sign, e in num:
        series._mul_pass(cs, sign, e, 0)
    for sign, e in den:
        series._div_pass(cs, sign, e, 0)
    return cs


Q = QMonomial(1, 1)


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
        one_minus = binomial(sign, e, order)

        cs = list(coeffs)
        series._mul_pass(cs, sign, e, 0)
        assert cs == list((x * one_minus).coeffs)

        if e == 0:  # 1 - sign is 0 or 2: not a unit, refused by both
            with pytest.raises(ValueError):
                one_minus.invert()
            with pytest.raises(ValueError):
                div_binomial(factor(sign, e), order)
        else:
            cs = list(coeffs)
            series._div_pass(cs, sign, e, 0)
            assert cs == list((x * one_minus.invert()).coeffs)

    check()


def test_kernel_suffix_form_matches_whole_list_call():
    # A bare pass on cs[lo:] must leave cs[:lo] alone and act on the suffix
    # exactly as the same pass at lo = 0 on a copy of it does, and as the
    # schoolbook product does, up to and past e = L, L = len(cs) - lo.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def calls(draw):
        order = draw(st.integers(0, 80))
        cs = draw(st.lists(st.integers(-50, 50), min_size=order + 1, max_size=order + 1))
        lo = draw(st.integers(0, len(cs)))
        e = draw(st.integers(0, len(cs) + 2))
        return cs, lo, e, draw(st.sampled_from([1, -1]))

    # With 14 coefficients, lo = 5 leaves L = 9.
    cs = list(range(1, 15))

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(calls())
    @hypothesis.example((cs, 5, 8, 1))  # e == L - 1
    @hypothesis.example((cs, 5, 8, -1))
    @hypothesis.example((cs, 5, 9, 1))  # e == L
    @hypothesis.example((cs, 5, 9, -1))
    def check(call):
        coeffs, lo, e, sign = call
        suffix = coeffs[lo:]
        x = TruncatedSeries(suffix, len(suffix) - 1) if suffix else None
        one_minus = binomial(sign, e, len(suffix) - 1) if suffix else None
        kernels = [(series._mul_pass, lambda: x * one_minus)]
        if e:  # _div_pass needs e >= 1
            kernels.append((series._div_pass, lambda: x * one_minus.invert()))
        for bare_pass, schoolbook in kernels:
            cs = list(coeffs)
            bare_pass(cs, sign, e, lo)
            whole = list(suffix)
            bare_pass(whole, sign, e, 0)
            assert cs[:lo] == coeffs[:lo]
            assert cs[lo:] == whole
            if suffix:
                assert whole == list(schoolbook().coeffs)

    check()


def test_kernel_rejects_bad_binomials():
    # A sign of 2 or a negative exponent is no QMonomial; a step below 1 or
    # a negative factor count is no product.
    for kernel in (mul_binomial, div_binomial):
        with pytest.raises(ValueError):
            kernel((Q, 0, 1))
        with pytest.raises(ValueError):
            kernel((Q, 1, -1))


@pytest.mark.parametrize("kernel", (mul_binomial, div_binomial))
@pytest.mark.parametrize(
    "args", [(Q, True, 1), (Q, 1, True), (Q, 1.0, 2), (Q, 1, False), (Q, 2.0, None), (Q, 1, 1.0)]
)
def test_kernel_refuses_non_int_binomials(kernel, args):
    # bool is an int subclass, so True would otherwise stand for 1
    with pytest.raises(TypeError, match="must be int, got"):
        kernel(args)


BAD_PRODUCTS = [
    ((Q, True, 1), TypeError, "step must be int, got bool"),
    ((Q, 1, False), TypeError, "factor count must be int, got bool"),
    ((Q, 1.0, 1), TypeError, "step must be int, got float"),
    ((Q, 2, 2.0), TypeError, "factor count must be int, got float"),
    ((Q, 0, 1), ValueError, "step must be >= 1, got 0"),
    ((Q, 1, -1), ValueError, "factor count must be nonnegative, got -1"),
    (((1, 1), 1, 1), TypeError, "Pochhammer parameter must be QMonomial, got tuple"),
    ((SimpleNamespace(sign=2, exp=1), 1, 1), TypeError, "Pochhammer parameter must be QMonomial, got SimpleNamespace"),
    ((Q, 1, 2, 3), ValueError, "too many values to unpack"),
    ((Q, 1), ValueError, "not enough values to unpack"),
]
BAD_DIVISORS = BAD_PRODUCTS + [
    (factor(1, 0), ValueError, "1 - (1)*q^0 = 0 is not a unit"),
    ((QMonomial(-1, 0), 2, None), ValueError, "1 - (-1)*q^0 = 2 is not a unit"),
]


def test_binomial_quotient_refuses_non_int_binomials_and_order(monkeypatch):
    # (Q, 1, 1) and (Q, 1, True) are equal as tuples, so the check must see
    # every product, not only the distinct ones a Counter keeps.
    for num, den in (
        ([(Q, 1, True)], []),
        ([], [(Q, True, 1)]),
        ([(Q, 1, 1), (Q, 1, True)], []),
        ([(Q, 1, 1.0)], []),
    ):
        with pytest.raises(TypeError, match="must be int, got"):
            binomial_quotient(3, num, den)
    for order in (3.0, True):
        with pytest.raises(TypeError, match="order must be int, got"):
            binomial_quotient(order, [factor(1, 1)])
    # One bad product anywhere in a long list must fail the up-front check
    # with the message the one-by-one check gives, before any kernel work.
    _refuse_kernel_work(monkeypatch)
    cases = [("num", *case) for case in BAD_PRODUCTS] + [("den", *case) for case in BAD_DIVISORS]
    for side, bad, error, message in cases:
        for position in (0, 150, 299):
            products = [factor((-1) ** k, k % 50 + 1) for k in range(300)]
            products[position] = bad
            num, den = (products, [factor(1, 1)]) if side == "num" else ([factor(1, 1)], products)
            with pytest.raises(error) as excinfo:
                binomial_quotient(40, num, den)
            assert str(excinfo.value).startswith(message), (side, bad, position)


class KernelWork(AssertionError):
    pass


def _refuse_kernel_work(monkeypatch):
    # Both builders reach the coefficients only through the two bare passes.
    def refuse(*args):
        raise KernelWork("kernel work before the arguments were checked")

    for name in ("_mul_pass", "_div_pass"):
        monkeypatch.setattr(series, name, refuse)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ratio_sum(5, 0, 1, num=[(QMonomial(1, 1), 1)]),
        lambda: ratio_sum(5, 0, 1, den=[(QMonomial(1, 1), 1)]),
        lambda: ratio_sum(5, 0, 1, ([factor(1, 1)], [])),
        lambda: ratio_sum(5, 3, 1, ([], [factor(1, 1)])),
        lambda: binomial_quotient(5, [(Q, 1, 2)]),
        lambda: binomial_quotient(5, [], [(Q, 1, 2)]),
        lambda: poch_finite(Q, 1, 2, 5),
        lambda: poch_infinite(Q, 1, 5),
    ],
)
def test_refusing_hook_sees_kernel_work_on_valid_input(monkeypatch, call):
    # The positive control for the refusal tests below: with the hook in
    # place, valid input that does any work must reach it.
    _refuse_kernel_work(monkeypatch)
    with pytest.raises(KernelWork):
        call()


def test_ratio_sum_refuses_non_int_order_before_evaluating(monkeypatch):
    _refuse_kernel_work(monkeypatch)
    for order in (3.0, True):
        with pytest.raises(TypeError, match="order must be int, got"):
            ratio_sum(order, 0, 1)


@pytest.mark.parametrize(
    "first, step, num, den, error",
    [
        (-1, 1, (), (), ValueError),
        (0, 0, (), (), ValueError),
        (0, -2, (), (), ValueError),
        (1.0, 1, (), (), TypeError),
        (True, 1, (), (), TypeError),
        (0, 2.0, (), (), TypeError),
        (0, True, (), (), TypeError),
        (0, 1, [(QMonomial(1, 1), -1)], (), ValueError),
        (0, 1, (), [(QMonomial(1, 1), -1)], ValueError),
        (0, 1, [(QMonomial(1, 1), 1.0)], (), TypeError),
        (0, 1, (), [(QMonomial(1, 1), True)], TypeError),
        (0, 1, (), [(QMonomial(1, 0), 1)], ValueError),
        (0, 1, (), [(QMonomial(-1, 0), 0)], ValueError),
        (0, 1, [(SimpleNamespace(sign=2, exp=1), 1)], (), TypeError),
        (0, 1, (), [((1, 1), 1)], TypeError),
        (0, 1, [(QMonomial(1, 1), 0)], (), ValueError),
        (0, 1, (), [(QMonomial(1, 1), 0)], ValueError),
    ],
)
def test_ratio_sum_refuses_bad_exponents_and_steps_before_kernel_work(monkeypatch, first, step, num, den, error):
    # A negative exponent would be written from the end of the list, and a
    # step of 0 would sum forever; neither can reach the kernel.
    _refuse_kernel_work(monkeypatch)
    with pytest.raises(error):
        ratio_sum(5, first, step, num=num, den=den)


BAD_PAIRS = [
    (Q, True),
    (Q, 1.0),
    (Q, 0),
    (Q, -1),
    ((1, 1), 1),
    (SimpleNamespace(sign=2, exp=1), 1),
    (Q,),
    (Q, 1, 2),
]
NON_UNIT_PAIRS = [(QMonomial(1, 0), 1), (QMonomial(-1, 0), 2)]


@pytest.mark.parametrize(
    "side, pair", [("num", pair) for pair in BAD_PAIRS] + [("den", pair) for pair in BAD_PAIRS + NON_UNIT_PAIRS]
)
def test_ratio_sum_refuses_a_bad_pair_as_binomial_quotient_refuses_its_product(monkeypatch, side, pair):
    # A term-ratio pair (a, s) follows the rule of the product (a, s, 1): the
    # same error, word for word, and no kernel work.
    _refuse_kernel_work(monkeypatch)
    with pytest.raises(Exception) as want:
        binomial_quotient(10, **{side: [(*pair, 1)]})
    assert want.type in (TypeError, ValueError)
    with pytest.raises(want.type) as got:
        ratio_sum(10, 0, 1, **{side: [(Q, 1), pair]})
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "call",
    [
        # A sign of 2 would run the add pass of a sign of -1.
        lambda: ratio_sum(10, 0, 1, num=[(SimpleNamespace(sign=2, exp=1), 1)], den=[(Q, 1)]),
        lambda: ratio_sum(10, 0, 1, den=[((1, 1), 1)]),
        lambda: ratio_sum(10, 0, 1, ([((1, 1), 1, 1)], ())),
        lambda: binomial_quotient(10, [(SimpleNamespace(sign=1, exp=1), 1, None)]),
        lambda: binomial_quotient(10, (), [((1, 1), 1, 1)]),
        lambda: poch_finite((1, 1), 1, 2, 5),
        lambda: poch_infinite((1, 1), 1, 5),
        lambda: poch_infinite(SimpleNamespace(sign=1, exp=0), 1, 5),  # the fields of the unit parameter 1, but no QMonomial
    ],
)
def test_kernel_refuses_a_parameter_that_is_not_a_qmonomial(monkeypatch, call):
    # Only a QMonomial has had its sign and exponent checked, so any other
    # object with sign and exp fields is refused before any kernel work.
    _refuse_kernel_work(monkeypatch)
    with pytest.raises(TypeError, match="^Pochhammer parameter must be QMonomial, got "):
        call()


def test_ratio_sum_matches_dense_sum():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # (sign, c, d, n) stands for the product (sign*q^c; q^d)_n, n None for infinite.
    products = st.tuples(
        st.sampled_from([1, -1]), st.integers(1, 9), st.integers(1, 3), st.one_of(st.none(), st.integers(0, 3))
    )

    @st.composite
    def starts(draw):
        # T_0's numerator and denominator drawn from one small pool, so they
        # share factors (which cancel), meet at one exponent with opposite
        # signs and hold divisors below the step, the cases where the product
        # loop's zero prefix 1..lo-1 is wrong if lo starts or moves wrong.
        pool = draw(st.lists(products, min_size=1, max_size=3))
        pool += [(-sign, c, d, n) for sign, c, d, n in pool]
        side = st.lists(st.one_of(st.sampled_from(pool), products), max_size=3)
        return draw(side), draw(side)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        order=st.integers(0, 40),
        step=st.integers(1, 4),
        first=st.integers(0, 3),
        start=starts(),
        num=st.lists(st.tuples(st.sampled_from([1, -1]), st.integers(0, 4), st.integers(1, 3)), max_size=2),
        den=st.lists(st.tuples(st.sampled_from([1, -1]), st.integers(1, 4), st.integers(1, 3)), max_size=2),
    )
    @hypothesis.example(order=12, step=3, first=1, start=([(1, 2, 1, 1)], [(1, 2, 1, 1), (1, 1, 1, 2)]), num=[], den=[])
    @hypothesis.example(order=12, step=2, first=0, start=([(1, 5, 1, 1), (-1, 1, 2, 2)], [(-1, 5, 1, 1)]), num=[], den=[])
    @hypothesis.example(order=20, step=3, first=2, start=([(1, 9, 1, 1)], [(1, 1, 1, None)]), num=[], den=[(1, 1, 1)])
    def check(order, step, first, start, num, den):
        # num and den entries (sign, c, d) stand for (sign*q^c; q^d)_n, whose
        # factor at step n is the binomial 1 - sign*q^(c + d*n)
        def factors(entries, n):
            return [(sign, c + d * n) for sign, c, d in entries]

        def pochhammers(entries):
            return [(QMonomial(sign, c), d) for sign, c, d in entries]

        def triples(entries):
            return [(QMonomial(sign, c), d, n) for sign, c, d, n in entries]

        def expanded(entries):
            return [(sign, c + d * j) for sign, c, d, n in entries for j in range(order + 1 if n is None else n)]

        got = ratio_sum(order, first, step, tuple(map(triples, start)), pochhammers(num), pochhammers(den))

        term = TruncatedSeries.one(order)
        for sign, e in expanded(start[0]):
            term = term * binomial(sign, e, order)
        for sign, e in expanded(start[1]):
            term = term * binomial(sign, e, order).invert()
        want = TruncatedSeries.zero(order)
        n = 0
        while first + step * n <= order:
            want = want + term.shift(first + step * n)
            for sign, e in factors(num, n):
                term = term * binomial(sign, e, order)
            for sign, e in factors(den, n):
                term = term * binomial(sign, e, order).invert()
            n += 1
        assert got == want

    check()


def test_binomial_quotient_matches_uncancelled_product():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def quotients(draw):
        # A few exponents spread over 1..order+2, so that num and den often
        # share binomials, and factors above the order, gaps, repeats and
        # same-exponent pairs of opposite sign all turn up; (1, 0) multiplies
        # by 0 and (-1, 0) by 2, and both may only appear in num.
        order = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 40)))
        exps = draw(st.lists(st.integers(1, order + 2), min_size=1, max_size=5))
        pool = [(sign, e) for sign in (1, -1) for e in exps]
        num = draw(st.lists(st.sampled_from(pool + [(1, 0), (-1, 0)]), max_size=8))
        den = draw(st.lists(st.sampled_from(pool), max_size=8))
        return order, num, den

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(quotients())
    @hypothesis.example((5, [(1, 5)], [(-1, 5)]))
    @hypothesis.example((12, [(1, 5), (-1, 2)], [(1, 3), (-1, 3), (-1, 5)]))
    @hypothesis.example((2, [(-1, 0), (1, 1)], [(1, 2), (1, 4)]))
    @hypothesis.example((6, [(-1, 0), (-1, 0), (1, 1)], [(1, 2)]))
    @hypothesis.example((4, [(1, 0), (-1, 0), (-1, 3)], []))
    def check(case):
        order, num, den = case
        got = binomial_quotient(order, factors(num), factors(den))
        assert list(got.coeffs) == bare_passes(order, num, den)

        want = TruncatedSeries.one(order)
        for sign, e in num:
            want = want * binomial(sign, e, order)
        for sign, e in den:
            want = want * binomial(sign, e, order).invert()
        assert got == want

    check()


def test_binomial_quotient_matches_divisor_sum_recurrence():
    # Long suffixes at small exponents (e*e well below the suffix length),
    # runs of consecutive factors and binomials shared by both sides, against
    # a reference that imports nothing from qident.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def quotients(draw):
        order = draw(st.integers(1, 300))
        exps = draw(
            st.lists(st.one_of(st.integers(1, min(order, 20)), st.integers(1, order)), min_size=1, max_size=6)
        )
        pool = [(sign, e) for sign in (1, -1) for e in exps]
        num = draw(st.lists(st.sampled_from(pool), max_size=8))
        den = draw(st.lists(st.sampled_from(pool), max_size=8))
        sign, first, step = draw(st.sampled_from([1, -1])), draw(st.integers(1, 4)), draw(st.integers(1, 4))
        return order, num, den, (sign, first, step), draw(st.booleans())

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(quotients())
    def check(case):
        order, num, den, (sign, first, step), run_in_num = case
        # The run of binomials 1 - sign*q^e, e = first, first + step, ... <= order
        # is declared as the one product (sign*q^first; q^step)_inf.
        run = [(sign, e) for e in range(first, order + 1, step)]
        products = [factors(num), factors(den)]
        products[not run_in_num].append((QMonomial(sign, first), step, None))
        binomials = (num + run, den) if run_in_num else (num, den + run)
        assert list(binomial_quotient(order, *products).coeffs) == divisor_sum_product(*binomials, order)

    check()


def test_descending_product_updates_a_quarter_of_the_square(monkeypatch):
    # Each kernel call on the suffix cs[lo:] at exponent e updates
    # max(len(cs) - lo - e, 0) coefficients; applied ascending to the whole
    # list, (q;q)_inf to order 600 costs 600*601/2 = 180,300 of them.  The
    # Horner sum of gf_de1 stays under the same bound only while each step
    # works on the window its shift leaves, not on the whole list.
    updates = 0

    def counting(kernel):
        def wrapped(cs, sign, e, lo):
            nonlocal updates
            updates += max(len(cs) - lo - e, 0)
            kernel(cs, sign, e, lo)

        return wrapped

    monkeypatch.setattr(series, "_mul_pass", counting(series._mul_pass))
    monkeypatch.setattr(series, "_div_pass", counting(series._div_pass))
    order = 600
    euler = [(Q, 1, None)]
    for num, den, want in (
        (euler, (), pentagonal_euler_coeffs(order)),
        ((), euler, partition_numbers(order)),
    ):
        updates = 0
        assert list(binomial_quotient(order, num, den).coeffs) == want
        assert 0 < updates <= order**2 // 4 + 2 * order
    updates = 0
    gf_de1(order)
    assert 0 < updates <= order**2 // 4 + 2 * order


def test_every_pass_of_a_verify_all_sweep_updates_a_coefficient(monkeypatch):
    # A pass at an exponent at or past its suffix length changes nothing, so
    # none is made, and skipping them loses no update: verify_all(200) and
    # the negative control at order 200 (one sweep-200 pass of perfbench)
    # make 807,905.  A unit factor's pass starts at lo, like every other
    # factor's, so it skips cs[:lo]: the zero block and the head cs[0],
    # which the factor's own term scales.
    calls, updates = 0, 0

    def counting(kernel):
        def wrapped(cs, sign, e, lo):
            nonlocal calls, updates
            assert len(cs) - lo - e >= 1, ("pass updates nothing", sign, e, lo, len(cs))
            calls += 1
            updates += len(cs) - lo - e
            kernel(cs, sign, e, lo)

        return wrapped

    monkeypatch.setattr(series, "_mul_pass", counting(series._mul_pass))
    monkeypatch.setattr(series, "_div_pass", counting(series._div_pass))
    assert all(report.passed for report in verify_all(200))
    assert not verify(negative_control(50), 200).passed
    assert calls > 0
    assert updates == 807_905


def test_every_product_is_checked_once(monkeypatch):
    # gf_regular4 declares (q^4;q^4)_inf over (q;q)_inf: its two QMonomials
    # are the only binomials whose sign and exponent are checked, not the
    # 250 factors listed from them.
    calls = 0

    def counting(monomial):
        nonlocal calls
        calls += 1
        check(monomial)

    check = series.QMonomial.__post_init__
    monkeypatch.setattr(series.QMonomial, "__post_init__", counting)
    assert list(gf_regular4(200).coeffs) == divisor_sum_product(_run(1, 4, 4, 200), _run(1, 1, 1, 200), 200)
    assert 0 < calls <= 2


def test_binomial_quotient_validates_before_cancelling():
    sign_two = (SimpleNamespace(sign=2, exp=1), 1, 1)  # no QMonomial has a sign of 2
    with pytest.raises(ValueError):  # 1 - q^0 = 0 is no divisor, shared or not
        binomial_quotient(5, [factor(1, 0)], [factor(1, 0)])
    with pytest.raises(TypeError):
        binomial_quotient(5, [sign_two], [sign_two])
    with pytest.raises(ValueError):
        binomial_quotient(5, [(Q, 0, 1)], [(Q, 0, 1)])
    with pytest.raises(TypeError):
        binomial_quotient(5, [sign_two])
    with pytest.raises(ValueError):
        binomial_quotient(5, (), [factor(-1, 0)])


def test_binomial_quotient_refuses_in_its_own_order():
    # As the one-term ratio_sum it keeps the order of its refusals: a
    # non-int order, then the numerator's products, then the denominator's,
    # and only then a negative order.
    bad_num, bad_den = (Q, 0, 1), factor(1, 0)  # a step of 0; 1 - q^0 is no unit
    for order in (3.0, True, None, "3"):
        with pytest.raises(TypeError, match=f"^order must be int, got {type(order).__name__}$"):
            binomial_quotient(order, [bad_num], [bad_den])
    with pytest.raises(ValueError, match="^step must be >= 1, got 0$"):
        binomial_quotient(-1, [bad_num], [bad_den])
    with pytest.raises(ValueError, match=re.escape("1 - (1)*q^0 = 0 is not a unit")):
        binomial_quotient(-1, [factor(1, 1)], [bad_den])
    with pytest.raises(ValueError, match="^order must be nonnegative, got -1$"):
        binomial_quotient(-1, [factor(1, 1)], [factor(1, 1)])


def test_qbinomial_rhs_cancels_to_the_uncancelled_list():
    # (q^2;q)_inf / (q;q)_inf: every factor but 1 - q cancels.
    order = 200
    num = [(QMonomial(1, 2), 1, None)]
    den = [(Q, 1, None)]
    got = binomial_quotient(order, num, den)
    assert list(got.coeffs) == bare_passes(order, _run(1, 2, 1, order), _run(1, 1, 1, order))
    assert got.coeffs == (1,) * (order + 1)
    assert got == find_case("qbinomial-aq-zq").rhs(order)


def test_ratio_sum_refuses_divisor_one_minus_q0_where_the_horner_loop_meets_it():
    # (b; q^t)_n, t >= 1, has the factor 1 - b at n = 0 only; the sum
    # reaches a factor of step n only when it has a term n + 1.
    zero_at_0, two_at_0 = (QMonomial(1, 0), 1), (QMonomial(-1, 0), 1)
    assert ratio_sum(0, 0, 1, den=[zero_at_0, two_at_0]) == TruncatedSeries.one(0)
    with pytest.raises(ValueError, match=re.escape("1 - (1)*q^0 = 0 is not a unit")):
        ratio_sum(1, 0, 1, den=[zero_at_0, two_at_0])
    with pytest.raises(ValueError, match=re.escape("1 - (-1)*q^0 = 2 is not a unit")):
        ratio_sum(2, 0, 1, den=[two_at_0, zero_at_0])
    # With t = 0 the factor 1 - b would recur at every step: refused as a
    # product of step 0 is, even where the sum has one term and meets none.
    with pytest.raises(ValueError, match=re.escape("step must be >= 1, got 0")):
        ratio_sum(0, 0, 1, den=[(QMonomial(-1, 0), 0)])


def test_ratio_sum_with_first_exponent_above_order_is_zero():
    start = ([factor(1, 1)], [factor(1, 2)])
    num, den = [(QMonomial(1, 1), 1)], [(QMonomial(1, 2), 1)]
    assert ratio_sum(3, 5, 1, start, num, den) == TruncatedSeries.zero(3)
    for bad_start in (([(Q, 0, 1)], ()), ((), [factor(1, 0)])):
        with pytest.raises(ValueError):
            ratio_sum(3, 5, 1, bad_start)


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


# Each family against the pentagonal reference b4 = sum p(n) q^n * (q^4;q^4)_inf:
# regular4 is b4, regular4min2 is (1 - q) * b4, and ped equals b4 (Glaisher).
FOUR_REGULAR = {
    "regular4": (gf_regular4, lambda b4: b4),
    "regular4_min2": (gf_regular4_min2, lambda b4: times_binomial(b4, 1, 1)),
    "ped": (gf_ped, lambda b4: b4),
}


@pytest.mark.parametrize("name", sorted(FOUR_REGULAR))
def test_four_regular_families_match_pentagonal_reference_to_3000(name):
    build, from_b4 = FOUR_REGULAR[name]
    order = 3000
    assert list(build(order).coeffs) == from_b4(four_regular_counts(order))


def _run(sign, first, step, order):
    """The binomials 1 - sign*q^e for e = first, first + step, ... <= order."""
    return [(sign, e) for e in range(first, order + 1, step)]


DEEP_PRODUCTS = {
    "ped": (gf_ped, lambda n: (_run(-1, 2, 2, n), _run(1, 1, 2, n))),
    "regular4": (gf_regular4, lambda n: (_run(1, 4, 4, n), _run(1, 1, 1, n))),
    "regular4_min2": (gf_regular4_min2, lambda n: (_run(1, 4, 4, n), _run(1, 2, 1, n))),
    "euler_inf": (partial(poch_infinite, Q, 1), lambda n: (_run(1, 1, 1, n), [])),
    "q4_inf": (partial(poch_infinite, QMonomial(1, 4), 4), lambda n: (_run(1, 4, 4, n), [])),
}


@pytest.mark.parametrize("name", sorted(DEEP_PRODUCTS))
def test_products_match_divisor_sum_recurrence_to_1000(name):
    build, binomials = DEEP_PRODUCTS[name]
    order = 1000
    assert list(build(order).coeffs) == divisor_sum_product(*binomials(order), order)


# The q-binomial cases' a parameters, by the token in their ids, as (sign, exponent).
QBINOMIAL_A = {"a0": None, "aq": (1, 1), "amq": (-1, 1), "aq2": (1, 2), "amq2": (-1, 2), "aq3": (1, 3)}


def _qbinomial_id(a_token, z_exp):
    return f"qbinomial-{a_token}-zq{z_exp if z_exp > 1 else ''}"


def _check_qbinomial_rhs(a_token, z_exp, order):
    # (az;q)_inf / (z;q)_inf with z = q^z_exp
    a = QBINOMIAL_A[a_token]
    num = [] if a is None else _run(a[0], a[1] + z_exp, 1, order)
    case = find_case(_qbinomial_id(a_token, z_exp))
    want = divisor_sum_product(num, _run(1, z_exp, 1, order), order)
    assert list(case.rhs(order).coeffs) == want


@pytest.mark.parametrize("a_token", sorted(QBINOMIAL_A))
@pytest.mark.parametrize("z_exp", (1, 2, 3))
def test_qbinomial_rhs_matches_divisor_sum_recurrence_to_400(a_token, z_exp):
    _check_qbinomial_rhs(a_token, z_exp, 400)


@pytest.mark.parametrize("a_token", sorted(QBINOMIAL_A))
@pytest.mark.parametrize("z_exp", (1, 2, 3))
def test_qbinomial_rhs_matches_divisor_sum_recurrence_to_1000(a_token, z_exp):
    _check_qbinomial_rhs(a_token, z_exp, 1000)


def test_every_qbinomial_case_has_a_recurrence_check():
    ids = {case.id for case in registry() if case.id.startswith("qbinomial-")}
    assert ids == {_qbinomial_id(a, z) for a in QBINOMIAL_A for z in (1, 2, 3)}


# The asv cases' (step, a, b), a and b as (sign, exponent), by case id.
ASV_PARAMETERS = {
    "asv-spec-1": (2, (1, 1), (-1, 2)),
    "asv-spec-2": (2, (1, 3), (-1, 2)),
    "asv-grid-1": (1, (1, 1), (-1, 1)),
    "asv-grid-2": (1, (-1, 2), (1, 1)),
    "asv-grid-3": (1, (1, 3), (1, 1)),
    "asv-grid-4": (2, (1, 2), (-1, 1)),
    "asv-grid-5": (2, (-1, 3), (1, 2)),
    "asv-grid-6": (3, (1, 1), (-1, 2)),
}
HELP_REFERENCES = {f"help-{k}": k for k in (1, 2, 3)}


@pytest.mark.parametrize("case_id", sorted(ASV_PARAMETERS) + sorted(HELP_REFERENCES))
def test_times_right_sides_match_plain_list_references_to_1000(case_id):
    # The right sides that divide by a binomial pole such as 1 + q^3,
    # against the closed forms evaluated in plain lists.
    order = 1000
    if case_id in ASV_PARAMETERS:
        want = asv_rhs(*ASV_PARAMETERS[case_id], order)
    else:
        want = help_rhs(HELP_REFERENCES[case_id], order)
    assert list(find_case(case_id).rhs(order).coeffs) == want


def test_every_asv_and_help_case_has_a_plain_list_reference():
    ids = {case.id for case in registry() if case.id.startswith(("asv-", "help-"))}
    assert ids == set(ASV_PARAMETERS) | set(HELP_REFERENCES)


def test_ped_satisfies_andrews_hirschhorn_sellers_congruences():
    # ped(9n+4) = 0 (mod 4) and ped(9n+7) = 0 (mod 12)
    ped = gf_ped(400).coeffs
    assert ped[4] == 4 and ped[7] == 12
    assert all(ped[k] % 4 == 0 for k in range(4, 401, 9))
    assert all(ped[k] % 12 == 0 for k in range(7, 401, 9))


DIGESTS = json.loads(Path(__file__).with_name("builder_digests.json").read_text())


def _builders():
    for family in sorted(FAMILY_SERIES):
        yield f"family:{family}", FAMILY_SERIES[family]
    for case in registry():
        yield f"{case.id}:lhs", case.lhs
        yield f"{case.id}:rhs", case.rhs


def _digest(build):
    h = hashlib.sha256()
    for order in DIGESTS["orders"]:
        h.update(hashlib.sha256(repr(list(build(order).coeffs)).encode()).digest())
    return h.hexdigest()


def test_builders_match_recorded_digests():
    # Byte-identity guard: any change to the kernel or a builder that moves a
    # single coefficient, at any recorded order, changes that builder's digest.
    recorded = DIGESTS["digests"]
    got = {name: _digest(build) for name, build in _builders()}
    assert sorted(got) == sorted(recorded)
    assert [name for name in recorded if got[name] != recorded[name]] == []
