"""The binomial kernel against the schoolbook operations, and the builders on it.

``times_binomials`` must agree with ``TruncatedSeries.__mul__`` and
``invert()`` and must check every binomial before it touches the list; the
bare passes ``_mul_pass``/``_div_pass`` must act on a suffix of a list as
``times_binomials`` acts on a list of its own; ``binomial_quotient`` must
agree with the same binomials applied one by one, uncancelled; ``ratio_sum`` must agree with the sum built term by term with
dense operations; and every builder must commute with truncation, which pins
the ``first + step*n <= order`` stop condition of the sums.
Every builder's output is pinned by recorded digests, and the deep checks
compare builders against references that use no builder at all.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from qident import series
from qident.identities import find_case, gf_euler_inf, gf_q4_inf, negative_control, registry, verify, verify_all
from qident.partitions import FAMILY_SERIES, gf_de1, gf_ped, gf_regular4, gf_regular4_min2
from qident.series import (
    QMonomial,
    TruncatedSeries,
    binomial_quotient,
    poch_binomials,
    poch_infinite,
    ratio_sum,
    times_binomials,
)

from oracles import asv_rhs, divisor_sum_product, help_rhs, partition_numbers, pentagonal_euler_coeffs


def binomial(sign, e, order):
    return TruncatedSeries.one(order) - TruncatedSeries.monomial(sign, e, order)


def mul_binomial(cs, sign, e):
    """Multiply cs in place by 1 - sign*q^e through the public entry point."""
    times_binomials(cs, [(sign, e)])


def div_binomial(cs, sign, e):
    """Divide cs in place by 1 - sign*q^e through the public entry point."""
    times_binomials(cs, (), [(sign, e)])


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


def test_kernel_suffix_form_matches_whole_list_call():
    # A bare pass on cs[lo:] must leave cs[:lo] alone and act on the suffix
    # exactly as a whole-list call on a copy of it does, and as the
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
        factor = binomial(sign, e, len(suffix) - 1) if suffix else None
        kernels = [(series._mul_pass, mul_binomial, lambda: x * factor)]
        if e:  # _div_pass needs e >= 1
            kernels.append((series._div_pass, div_binomial, lambda: x * factor.invert()))
        for bare_pass, kernel, schoolbook in kernels:
            cs = list(coeffs)
            bare_pass(cs, sign, e, lo)
            whole = list(suffix)
            kernel(whole, sign, e)
            assert cs[:lo] == coeffs[:lo]
            assert cs[lo:] == whole
            if suffix:
                assert whole == list(schoolbook().coeffs)

    check()


def test_kernel_rejects_bad_binomials():
    for kernel in (mul_binomial, div_binomial):
        with pytest.raises(ValueError):
            kernel([1, 2, 3], 2, 1)
        with pytest.raises(ValueError):
            kernel([1, 2, 3], 1, -1)


@pytest.mark.parametrize("kernel", (mul_binomial, div_binomial))
@pytest.mark.parametrize(
    "args", [(True, 1), (1, True), (-1.0, 2), (-1, False), (1.0, 1), (1, 1.0)]
)
def test_kernel_refuses_non_int_binomials(kernel, args):
    # bool is an int subclass, so True would otherwise stand for 1
    cs = [1, 2, 3, 4]
    with pytest.raises(TypeError, match="must be int, got"):
        kernel(cs, *args)
    assert cs == [1, 2, 3, 4]


BAD_BINOMIALS = [
    ((True, 1), TypeError, "sign must be int, got bool"),
    ((1, False), TypeError, "exponent must be int, got bool"),
    ((1.0, 1), TypeError, "sign must be int, got float"),
    ((-1, 2.0), TypeError, "exponent must be int, got float"),
    ((2, 1), ValueError, "sign must be +1 or -1, got 2"),
    ((1, -1), ValueError, "exponent must be nonnegative, got -1"),
    ((1, 2, 3), ValueError, "too many values to unpack"),
    ((1,), ValueError, "not enough values to unpack"),
]
BAD_DIVISORS = BAD_BINOMIALS + [((1, 0), ValueError, "1 - (1)*q^0 = 0 is not a unit")]


def test_times_binomials_refuses_a_bad_binomial_before_touching_cs():
    # The bad binomial comes last, after 300 valid ones on each side, so a
    # check made one binomial at a time would already have changed cs.
    good = [((-1) ** k, k % 50 + 1) for k in range(300)]
    cases = [("num", *case) for case in BAD_BINOMIALS] + [("den", *case) for case in BAD_DIVISORS]
    for side, bad, error, message in cases:
        num, den = (good + [bad], good) if side == "num" else (good, good + [bad])
        cs = list(range(1, 41))
        with pytest.raises(error) as excinfo:
            times_binomials(cs, num, den)
        assert str(excinfo.value).startswith(message), (side, bad)
        assert cs == list(range(1, 41)), (side, bad)


def test_binomial_quotient_refuses_non_int_binomials_and_order(monkeypatch):
    # (1, 1) and (1, True) are equal as tuples, so the check must see every
    # binomial, not only the distinct ones a Counter keeps.
    for num, den in (
        ([(1, True)], []),
        ([], [(True, 1)]),
        ([(1, 1), (1, True)], []),
        ([(1, 1.0)], []),
    ):
        with pytest.raises(TypeError, match="must be int, got"):
            binomial_quotient(3, num, den)
    for order in (3.0, True):
        with pytest.raises(TypeError, match="order must be int, got"):
            binomial_quotient(order, [(1, 1)])
    # One bad binomial anywhere in a long list must fail the up-front check
    # with the message the one-by-one check gives, before any kernel work.
    _refuse_kernel_work(monkeypatch)
    cases = [("num", *case) for case in BAD_BINOMIALS] + [("den", *case) for case in BAD_DIVISORS]
    for side, bad, error, message in cases:
        for position in (0, 150, 299):
            binomials = [((-1) ** k, k % 50 + 1) for k in range(300)]
            binomials[position] = bad
            num, den = (binomials, [(1, 1)]) if side == "num" else ([(1, 1)], binomials)
            with pytest.raises(error) as excinfo:
                binomial_quotient(40, num, den)
            assert str(excinfo.value).startswith(message), (side, bad, position)


class KernelWork(AssertionError):
    pass


def _refuse_kernel_work(monkeypatch):
    # times_binomials and both internal callers reach the coefficients
    # only through the two bare passes.
    def refuse(*args):
        raise KernelWork("kernel work before the arguments were checked")

    for name in ("_mul_pass", "_div_pass"):
        monkeypatch.setattr(series, name, refuse)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ratio_sum(5, 0, 1, num=[(QMonomial(1, 1), 1)]),
        lambda: ratio_sum(5, 0, 1, den=[(QMonomial(1, 1), 1)]),
        lambda: ratio_sum(5, 0, 1, ([(1, 1)], [])),
        lambda: ratio_sum(5, 4, 1, ([], [(1, 1)])),
        lambda: binomial_quotient(5, [(1, 1), (1, 2)]),
        lambda: binomial_quotient(5, [], [(1, 1), (1, 2)]),
        lambda: times_binomials([1, 2, 3], [(1, 1)]),
        lambda: times_binomials([1, 2, 3], (), [(1, 1)]),
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
    ],
)
def test_ratio_sum_refuses_bad_exponents_and_steps_before_kernel_work(monkeypatch, first, step, num, den, error):
    # A negative exponent would be written from the end of the list, and a
    # step of 0 would sum forever; neither can reach the kernel.
    _refuse_kernel_work(monkeypatch)
    with pytest.raises(error):
        ratio_sum(5, first, step, num=num, den=den)


def test_ratio_sum_matches_dense_sum():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    binomials = st.tuples(st.sampled_from([1, -1]), st.integers(1, 9))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        order=st.integers(0, 40),
        step=st.integers(1, 4),
        first=st.integers(0, 3),
        start=st.tuples(st.lists(binomials, max_size=3), st.lists(binomials, max_size=3)),
        num=st.lists(st.tuples(st.sampled_from([1, -1]), st.integers(0, 4), st.integers(0, 3)), max_size=2),
        den=st.lists(st.tuples(st.sampled_from([1, -1]), st.integers(1, 4), st.integers(0, 3)), max_size=2),
    )
    def check(order, step, first, start, num, den):
        # num and den entries (sign, c, d) stand for (sign*q^c; q^d)_n, whose
        # factor at step n is the binomial 1 - sign*q^(c + d*n)
        def factors(entries, n):
            return [(sign, c + d * n) for sign, c, d in entries]

        def pochhammers(entries):
            return [(QMonomial(sign, c), d) for sign, c, d in entries]

        got = ratio_sum(order, first, step, start, pochhammers(num), pochhammers(den))

        term = TruncatedSeries.one(order)
        for sign, e in start[0]:
            term = term * binomial(sign, e, order)
        for sign, e in start[1]:
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
    def check(case):
        order, num, den = case
        got = binomial_quotient(order, num, den)
        assert list(got.coeffs) == times_binomials([1] + [0] * order, num, den)

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
        run = [(sign, e) for e in range(first, order + 1, step)]
        if draw(st.booleans()):
            num += run
        else:
            den += run
        return order, num, den

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(quotients())
    def check(case):
        order, num, den = case
        assert list(binomial_quotient(order, num, den).coeffs) == divisor_sum_product(num, den, order)

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
    euler = poch_binomials(QMonomial(1, 1), 1, order)
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
    # make 807,551.
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
    assert updates == 807_551


def test_binomial_quotient_validates_before_cancelling():
    with pytest.raises(ValueError):  # 1 - q^0 = 0 is no divisor, shared or not
        binomial_quotient(5, [(1, 0)], [(1, 0)])
    with pytest.raises(ValueError):
        binomial_quotient(5, [(2, 1)], [(2, 1)])
    with pytest.raises(ValueError):
        binomial_quotient(5, [(1, -1)], [(1, -1)])
    with pytest.raises(ValueError):
        binomial_quotient(5, [(2, 1)])
    with pytest.raises(ValueError):
        binomial_quotient(5, (), [(-1, 0)])


def test_qbinomial_rhs_cancels_to_the_uncancelled_list():
    # (q^2;q)_inf / (q;q)_inf: every factor but 1 - q cancels.
    order = 200
    num = poch_binomials(QMonomial(1, 2), 1, order)
    den = poch_binomials(QMonomial(1, 1), 1, order)
    got = binomial_quotient(order, num, den)
    assert list(got.coeffs) == times_binomials([1] + [0] * order, num, den)
    assert got.coeffs == (1,) * (order + 1)
    assert got == find_case("qbinomial-aq-zq").rhs(order)


def test_ratio_sum_refuses_divisor_one_minus_q0_where_the_horner_loop_meets_it():
    # (b; q^t)_n has the factor 1 - b at n = 0 and, if t = 0, at every n; the
    # sum reaches a factor of step n only when it has a term n + 1, and
    # meets the largest step first.
    zero_at_0, zero_always = (QMonomial(1, 0), 1), (QMonomial(-1, 0), 0)
    assert ratio_sum(0, 0, 1, den=[zero_at_0, zero_always]) == TruncatedSeries.one(0)
    with pytest.raises(ValueError, match=re.escape("1 - (1)*q^0 = 0 is not a unit")):
        ratio_sum(1, 0, 1, den=[zero_at_0, zero_always])
    with pytest.raises(ValueError, match=re.escape("1 - (-1)*q^0 = 2 is not a unit")):
        ratio_sum(2, 0, 1, den=[zero_at_0, zero_always])


def test_ratio_sum_with_first_exponent_above_order_is_zero():
    start = ([(1, 1)], [(1, 2)])
    num, den = [(QMonomial(1, 1), 1)], [(QMonomial(1, 2), 1)]
    assert ratio_sum(3, 5, 1, start, num, den) == TruncatedSeries.zero(3)
    for bad_start in (((2, 1),), ()), ((), ((1, 0),)):
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


def test_regular4_matches_partition_numbers_to_1000():
    # (q^4;q^4)_inf / (q;q)_inf = (sum p(n) q^n) * (Euler product at q^4)
    order = 1000
    p = partition_numbers(order)
    euler4 = [(4 * j, c) for j, c in enumerate(pentagonal_euler_coeffs(order // 4)) if c]
    want = [sum(c * p[n - e] for e, c in euler4 if e <= n) for n in range(order + 1)]
    assert list(gf_regular4(order).coeffs) == want


def _run(sign, first, step, order):
    """The binomials 1 - sign*q^e for e = first, first + step, ... <= order."""
    return [(sign, e) for e in range(first, order + 1, step)]


DEEP_PRODUCTS = {
    "ped": (gf_ped, lambda n: (_run(-1, 2, 2, n), _run(1, 1, 2, n))),
    "regular4": (gf_regular4, lambda n: (_run(1, 4, 4, n), _run(1, 1, 1, n))),
    "regular4_min2": (gf_regular4_min2, lambda n: (_run(1, 4, 4, n), _run(1, 2, 1, n))),
    "euler_inf": (gf_euler_inf, lambda n: (_run(1, 1, 1, n), [])),
    "q4_inf": (gf_q4_inf, lambda n: (_run(1, 4, 4, n), [])),
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


@pytest.mark.parametrize("a_token", sorted(QBINOMIAL_A))
@pytest.mark.parametrize("z_exp", (1, 2, 3))
def test_qbinomial_rhs_matches_divisor_sum_recurrence_to_400(a_token, z_exp):
    # (az;q)_inf / (z;q)_inf with z = q^z_exp
    order = 400
    a = QBINOMIAL_A[a_token]
    num = [] if a is None else _run(a[0], a[1] + z_exp, 1, order)
    case = find_case(_qbinomial_id(a_token, z_exp))
    want = divisor_sum_product(num, _run(1, z_exp, 1, order), order)
    assert list(case.rhs(order).coeffs) == want


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
    # The right sides that multiply or divide a built series by a binomial,
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
