"""Exact truncated power series in q over the integers.

Everything here is computed modulo q^(N+1) for a caller-chosen truncation
order N, with arbitrary-precision integer coefficients throughout.  No
floating point enters at any stage, so coefficient equality is exact and a
series comparison is a proof of agreement up to the stated order.

Pochhammer-style products are built from parameters of the form +-q^e
(see :class:`QMonomial`); that shape covers every product this project
needs and keeps convergence of the truncated infinite product decidable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import cycle, islice
from operator import add, sub
from typing import Iterable, List, Optional, Tuple


def check_type(name: str, value, kind: type) -> None:
    """Raise TypeError unless value is exactly of type kind; a subclass fails, so True is no int."""
    if type(value) is not kind:
        raise TypeError(f"{name} must be {kind.__name__}, got {type(value).__name__}")


def check_int(name: str, value, least: Optional[int] = None) -> None:
    """The library's one rule for an integer argument.

    TypeError unless value is exactly an int (bool is an int subclass); then,
    when least is given, ValueError if value is below it, the text reading
    "<name> must be nonnegative, got <value>" for least 0 and
    "<name> must be >= <least>, got <value>" otherwise.
    """
    check_type(name, value, int)
    if least is not None and value < least:
        bound = "nonnegative" if least == 0 else f">= {least}"
        raise ValueError(f"{name} must be {bound}, got {value}")


@dataclass(frozen=True)
class QMonomial:
    """A signed power of q: ``sign * q**exp`` with sign in {+1, -1}.

    Its constructor is the one rule for a valid sign*q^e, and so for a
    binomial 1 - sign*q^e: an int sign of +1 or -1, an int exponent >= 0.
    """

    sign: int
    exp: int

    def __post_init__(self):
        check_int("sign", self.sign)
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        check_int("exponent", self.exp, 0)

    def shifted(self, k: int) -> "QMonomial":
        """The monomial multiplied by q^k."""
        check_int("shift", k)
        return QMonomial(self.sign, self.exp + k)

    def __str__(self):
        if self.exp == 0:
            return "1" if self.sign == 1 else "-1"
        base = "q" if self.exp == 1 else f"q^{self.exp}"
        return base if self.sign == 1 else f"-{base}"


@dataclass(frozen=True, slots=True)
class TruncatedSeries:
    """A formal power series known modulo q^(order+1).

    ``coeffs[k]`` is the exact integer coefficient of q^k, ``0 <= k <= order``.
    A frozen dataclass, equal by order and coefficients and hashable; every
    operation returns a new series whose order is the minimum of the operand
    orders.  Its own ``__init__`` checks, pads and truncates the coefficients.
    """

    coeffs: Tuple[int, ...]
    order: int

    def __init__(self, coeffs: Iterable[int], order: Optional[int] = None):
        cs = list(coeffs)
        types = list(map(type, cs))
        if types.count(int) != len(types):  # exactly int: bool is an int subclass
            bad = next(t for t in types if t is not int)
            raise TypeError(f"coefficients must be int, got {bad.__name__}")
        if order is None:
            if not cs:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(cs) - 1
        else:
            check_int("order", order, 0)
        if len(cs) < order + 1:
            cs.extend([0] * (order + 1 - len(cs)))
        elif len(cs) > order + 1:
            del cs[order + 1:]
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "order", order)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([0], order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([1], order)

    @classmethod
    def monomial(cls, sign: int, exp: int, order: int) -> "TruncatedSeries":
        """The series sign * q^exp; the zero series if exp exceeds order."""
        QMonomial(sign, exp)  # the one check of a sign and exponent
        check_int("order", order)
        return cls([0] * min(exp, order + 1) + [sign], order)

    # -- ring operations ----------------------------------------------------

    def _combine(self, other, op):
        # op(self[k], other[k]) for each k both know: map stops at the
        # shorter tuple, so the smaller order is kept.
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return TruncatedSeries(list(map(op, self.coeffs, other.coeffs)), min(self.order, other.order))

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def scale(self, c: int) -> "TruncatedSeries":
        """Multiply every coefficient by the integer c."""
        check_int("scale factor", c)
        return TruncatedSeries([c * a for a in self.coeffs], self.order)

    def shift(self, e: int) -> "TruncatedSeries":
        """Multiply by q^e: coefficient of q^k moves to q^(k+e)."""
        check_int("shift exponent", e, 0)
        return TruncatedSeries([0] * min(e, self.order + 1) + list(self.coeffs), self.order)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        # Schoolbook convolution, iterating the sparser operand on the
        # outside, so a factor with k nonzero terms costs O(k*n).  No builder
        # multiplies densely (they use the binomial kernel below); the swap
        # serves callers outside them: the tests and the benchmark's
        # series.mul_binomial_ms probe.
        if sum(1 for c in a[: n + 1] if c) > sum(1 for c in b[: n + 1] if c):
            a, b = b, a
        out = [0] * (n + 1)
        for i in range(n + 1):
            ai = a[i]
            if not ai:
                continue
            lim = n + 1 - i
            out[i:] = [x + ai * y for x, y in zip(out[i:], b[:lim])]
        return TruncatedSeries(out, n)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse, requiring a unit constant term (+1 or -1)."""
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise ValueError(
                f"series is not invertible: constant term must be +1 or -1, got {c0}"
            )
        nonzero = [(i, a) for i, a in enumerate(self.coeffs) if a and i > 0]
        out = [0] * (self.order + 1)
        out[0] = c0
        for k in range(1, self.order + 1):
            acc = 0
            for i, ai in nonzero:
                if i > k:
                    break
                acc += ai * out[k - i]
            out[k] = -c0 * acc
        return TruncatedSeries(out, self.order)

    # -- queries ------------------------------------------------------------

    def coeff(self, k: int) -> int:
        """The exact coefficient of q^k, for 0 <= k <= order."""
        check_int("exponent", k)
        if not 0 <= k <= self.order:
            raise IndexError(f"exponent {k} outside known range 0..{self.order}")
        return self.coeffs[k]

    __getitem__ = coeff

    def truncate(self, order: int) -> "TruncatedSeries":
        """Forget coefficients above the given (smaller or equal) order."""
        check_int("order", order)
        if order > self.order:
            raise ValueError(
                f"cannot extend a series known to order {self.order} up to {order}"
            )
        return TruncatedSeries(self.coeffs[: order + 1], order)

    def first_mismatch(
        self, other: "TruncatedSeries"
    ) -> Optional[Tuple[int, int, int]]:
        """Smallest k where the two series differ, as (k, self[k], other[k]).

        Comparison runs over 0..min(order); returns None when all those
        coefficients agree.
        """
        check_type("other", other, TruncatedSeries)
        n = min(self.order, other.order)
        a, b = self.coeffs[: n + 1], other.coeffs[: n + 1]
        if a == b:
            return None
        k = next(k for k in range(n + 1) if a[k] != b[k])
        return (k, a[k], b[k])

    def __str__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                body = f"{mag}q" if k == 1 else f"{mag}q^{k}"
            terms.append(("- " if c < 0 else "+ ") + body)
        if not terms:
            poly = "0"
        else:
            poly = " ".join(terms)
            poly = poly[2:] if poly.startswith("+ ") else "-" + poly[2:]
        return f"{poly} + O(q^{self.order + 1})"

    def __repr__(self):
        return f"<TruncatedSeries {self}>"


# -- the binomial kernel ------------------------------------------------------
#
# Every product and every sum term in this project is built from binomials
# 1 - sign*q^e.  Multiplying or dividing a coefficient list by one is a single
# C-level pass of operator.add or operator.sub, whatever the sign or the
# exponent, costing O(N) in place; so a product of up to N binomials costs
# O(N^2) and never needs a dense multiply or a general inverse.  Each pass
# takes a suffix start lo and works on cs[lo:] as if it were a list of its
# own, modulo q^(len(cs) - lo), leaving cs[:lo] alone; so a quotient or a
# Horner sum is built in one list, without copying a tail out and back.
#
# Two public builders run the passes, and every series in the registry is
# made by them and plain TruncatedSeries arithmetic: ratio_sum builds a sum
# in basic hypergeometric form, and binomial_quotient a quotient of
# products as the one-term sum.  So one loop in ratio_sum applies every
# product quotient: a sum's leading product T_0, which for the one-term
# sum is the whole quotient.  It applies every factor by one rule: a bare
# pass on the suffix from lo, then the factor's own terms on the head cs[0].
# Callers declare products, never binomials: a triple (a, s, n)
# stands for (a; q^s)_n with s >= 1, and a lone binomial 1 - a is the
# one-factor product (a, 1, 1); a term-ratio pair (a, s) of ratio_sum follows
# the same rule.  _factors checks each triple once and lists its factors
# (sign, e) up to the order they act on, so a listed factor needs no check of
# its own and every one of them can change its list.  Each builder checks all
# its input before the bare passes _mul_pass and _div_pass run, so a refused
# call does no work.

Product = Tuple[QMonomial, int, Optional[int]]
"""A triple (a, s, n) standing for (a; q^s)_n, the product of 1 - a*q^(s*j) over j < n.

n None stands for the infinite product; a lone binomial 1 - a is (a, 1, 1).
"""


def _factors(products: Iterable[Product], order: int, divisor: bool) -> List[Tuple[int, int]]:
    # Check each product once, as a divisor if asked; list its factors with e <= order.
    factors = []
    for a, step, count in products:
        check_type("Pochhammer parameter", a, QMonomial)
        check_int("step", step, 1)
        if count is not None:
            check_int("factor count", count, 0)
        if divisor and count != 0 and a.exp == 0:  # the one binomial 1 - a*q^(s*j) that is no unit
            raise ValueError(f"1 - ({a.sign})*q^0 = {1 - a.sign} is not a unit")
        stop = order + 1 if count is None else min(order + 1, a.exp + step * count)
        factors += [(a.sign, e) for e in range(a.exp, stop, step)]
    return factors


def _mul_pass(cs: List[int], sign: int, e: int, lo: int) -> None:
    # Each c[k], k >= lo + e, loses sign*c[k-e] of the old list.  Slice
    # assignment materialises the map before it writes, so islice reads the
    # old list throughout.
    cs[lo + e:] = map(sub if sign == 1 else add, cs[lo + e:], islice(cs, lo, None))


def _div_pass(cs: List[int], sign: int, e: int, lo: int) -> None:
    # Needs e >= 1.  Each c[k], k >= lo + e, gains sign*c[k-e] of the new
    # list.  out is extended while map reads it: each new coefficient is read
    # back e places later from out itself, which stays e items ahead of the read.
    out = cs[lo : lo + e]
    out.extend(map(add if sign == 1 else sub, islice(cs, lo + e, None), out))
    cs[lo:] = out


Pochhammer = Tuple[QMonomial, int]
"""A pair (a, s) standing for (a; q^s)_n, whose factor at step n is 1 - a*q^(s*n).

s >= 1, as in a :data:`Product`.
"""


def ratio_sum(
    order: int,
    first: int,
    step: int,
    start: Tuple[Iterable[Product], Iterable[Product]] = ((), ()),
    num: Iterable[Pochhammer] = (),
    den: Iterable[Pochhammer] = (),
) -> TruncatedSeries:
    """sum_{n>=0} q^(first + step*n) * T_n modulo q^(order+1), evaluated in Horner form.

    T_n = T_0 * prod (a;q^s)_n over num / prod (b;q^t)_n over den, where T_0
    is the products start[0] over start[1]: the basic hypergeometric shape
    of every left-hand sum here.  first >= 0, step >= 1, every a and b a
    QMonomial, every s, t >= 1 as in a :data:`Product`, the products of start
    and every divisor the sum reaches are checked before any work.  With
    e_n = first + step*n, the last e_M <= order, and R_n = T_(n+1)/T_n, the
    sum is q^e_0 * T_0 * H_0, where

        H_M = 1,    H_n = 1 + q^step * R_n * H_(n+1),

    so H_n is the tail sum divided by q^e_n * T_n.  H_0 lives in one list
    cs of length order + 1 - first, cs[k] standing for q^(first + k), with
    H_n in cs[step*n:], the room its shift leaves: R_n is applied in place
    to H_(n+1) = cs[step*(n+1):], and the shift and the 1 are the write
    cs[step*n] = 1 (the cells between are still zero), so no step pays a
    separate pass, a copy or a concatenation to add a term.  A factor whose
    exponent is at or past the length of the suffix it would act on leaves
    it unchanged, so it is skipped without a pass.

    T_0 is then applied to H_0 by the one loop that applies every product
    quotient here (:func:`binomial_quotient` is the one-term sum).  A factor
    in both start[0] and start[1] cancels (as often as it appears in both)
    and only the rest is applied, from the largest exponent down, keeping
    the list zero at 1..lo-1.  H_0 is 1 and then zero below step, or below
    its length for a one-term sum, so lo starts at the smaller of the two.
    The list is then c0 + q^lo*S, and as

        (c0 + q^lo*S) / (1 - s*q^e) = c0 * sum_j s^j*q^(j*e) + q^lo*S / (1 - s*q^e),

    and the same split holds for a product, every factor 1 - s*q^e follows
    one rule: first the bare pass on the suffix from lo, which updates the
    indices >= lo + e; then the factor's own terms on c0 = cs[0], -s*c0 at
    e when it multiplies and s^j at every multiple j*e when it divides.  c0
    is 1 until the unit factors (e = 0), which sort last and only multiply.
    lo then falls to e when 0 < e < lo.  So a factor above N/2 costs O(1)
    and (q;q)_inf costs about N^2/4 updates, not N^2/2.
    """
    check_int("order", order)
    check_int("first exponent", first, 0)
    check_int("exponent step", step, 1)
    top = order - first  # the last index of H_0's list
    es = range(0, top + 1, step)
    # A pair (a, s) is checked as the product (a, s, m): with s >= 1 only its
    # factor at step 0 can be 1 - a*q^0, which the sum reaches when it has a
    # second term, so m = 1 then and 0 otherwise.
    m = int(len(es) > 1)
    num, den = list(num), list(den)
    _factors([(*pair, m) for pair in num], order, False)
    _factors([(*pair, m) for pair in den], order, True)
    ratio = [(a.sign, a.exp, s, _mul_pass) for a, s in num] + [(b.sign, b.exp, t, _div_pass) for b, t in den]
    start_num, start_den = start
    start_num = _factors(start_num, top, False)
    unshared = Counter(_factors(start_den, top, True))  # the divisors not yet cancelled by a numerator factor
    if not es:
        return TruncatedSeries.zero(order)
    cs = [0] * (top + 1)
    cs[es[-1]] = 1
    for n in range(len(es) - 2, -1, -1):
        lo = es[n + 1]
        room = top + 1 - lo  # a factor with e >= room cannot change cs[lo:]
        for sign, e, s, apply in ratio:
            e += s * n
            if e < room:
                apply(cs, sign, e, lo)
        cs[es[n]] = 1
    factors = []
    for b in start_num:
        if unshared.get(b):  # b cancels one copy of itself in den
            unshared[b] -= 1
        else:
            factors.append((b[1], b[0], False))
    factors += [(e, sign, True) for sign, e in unshared.elements()]
    factors.sort(reverse=True)
    lo = min(step, top + 1)  # cs[1:lo] is zero
    for e, sign, divide in factors:
        if lo + e <= top:
            (_div_pass if divide else _mul_pass)(cs, sign, e, lo)
        # Then the head cs[0]'s own terms, after the pass, which reads the old cs[e] when e >= lo.
        if divide:  # cs[0] is 1: the unit factors sort last and only multiply
            cs[e::e] = map(add, cs[e::e], cycle((sign, 1)))
        else:
            cs[e] -= sign * cs[0]
        if 0 < e < lo:
            lo = e
    return TruncatedSeries([0] * first + cs, order)


def binomial_quotient(order: int, num: Iterable[Product] = (), den: Iterable[Product] = ()) -> TruncatedSeries:
    """The product of the Pochhammer products in num over that of those in den.

    The one-term :func:`ratio_sum` whose T_0 is num over den, so it is made
    by the loop that applies every product quotient: every product is
    checked first, once, and a divisor must be a unit, so a factor
    1 - a*q^0 is refused in den as ``invert`` refuses it.  Then a factor in
    both lists cancels and the rest is applied from the largest exponent
    down, each by the loop's one rule: a bare pass on the suffix from lo,
    then the factor's own terms on the constant term.  So
    (q^4;q^4)_inf/(q;q)_inf divides by the 3N/4 factors the numerator does
    not share and multiplies by none.
    """
    check_int("order", order)  # before order + 1 is formed
    return ratio_sum(order, 0, max(order + 1, 1), (num, den))


def poch_finite(a: QMonomial, step: int, n: int, order: int) -> TruncatedSeries:
    """The finite product prod_{j=0}^{n-1} (1 - a * q^(step*j)), truncated.

    With step s this is the Pochhammer symbol (a; q^s)_n.  The empty product
    (n = 0) is 1; n None is refused, as the infinite product is ``poch_infinite``.
    """
    check_int("factor count", n)
    return binomial_quotient(order, [(a, step, n)])


def poch_infinite(a: QMonomial, step: int, order: int) -> TruncatedSeries:
    """The infinite product prod_{j>=0} (1 - a * q^(step*j)), truncated.

    With step s this is the Pochhammer symbol (a; q^s)_inf.  Factor j
    touches only exponents at or above a.exp + step*j, so the factors past
    the order are 1 and the result is the infinite product modulo
    q^(order+1), for a unit parameter a = +-1 as well: (1; q^s)_inf is 0
    and (-1; q^s)_inf is 2(-q^s; q^s)_inf.
    """
    return binomial_quotient(order, [(a, step, None)])
