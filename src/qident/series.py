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
from itertools import accumulate
from typing import Callable, Iterable, List, Optional, Tuple


def check_int(name: str, value) -> None:
    """Raise TypeError unless value is exactly an int (bool is an int subclass)."""
    if type(value) is not int:
        raise TypeError(f"{name} must be int, got {type(value).__name__}")


@dataclass(frozen=True)
class QMonomial:
    """A signed power of q: ``sign * q**exp`` with sign in {+1, -1}."""

    sign: int
    exp: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        if self.exp < 0:
            raise ValueError(f"exponent must be nonnegative, got {self.exp}")

    def shifted(self, k: int) -> "QMonomial":
        """The monomial multiplied by q^k."""
        return QMonomial(self.sign, self.exp + k)

    def __str__(self):
        if self.exp == 0:
            return "1" if self.sign == 1 else "-1"
        base = "q" if self.exp == 1 else f"q^{self.exp}"
        return base if self.sign == 1 else f"-{base}"


class TruncatedSeries:
    """A formal power series known modulo q^(order+1).

    ``coeffs[k]`` is the exact integer coefficient of q^k, ``0 <= k <= order``.
    Instances are immutable; every operation returns a new series whose order
    is the minimum of the operand orders.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Iterable[int], order: Optional[int] = None):
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int:  # exactly int: bool is an int subclass
                raise TypeError(f"coefficients must be int, got {type(c).__name__}")
        if order is None:
            if not cs:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(cs) - 1
        else:
            check_int("order", order)
        if order < 0:
            raise ValueError(f"order must be nonnegative, got {order}")
        if len(cs) < order + 1:
            cs.extend([0] * (order + 1 - len(cs)))
        elif len(cs) > order + 1:
            del cs[order + 1:]
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

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
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        if exp < 0:
            raise ValueError(f"exponent must be nonnegative, got {exp}")
        cs = [0] * (order + 1)
        if exp <= order:
            cs[exp] = sign
        return cls(cs, order)

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> Optional["TruncatedSeries"]:
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, int):
            return TruncatedSeries([other], self.order)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = min(self.order, rhs.order)
        return TruncatedSeries(
            [self.coeffs[k] + rhs.coeffs[k] for k in range(n + 1)], n
        )

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = min(self.order, rhs.order)
        return TruncatedSeries(
            [self.coeffs[k] - rhs.coeffs[k] for k in range(n + 1)], n
        )

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs.__sub__(self)

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs], self.order)

    def scale(self, c: int) -> "TruncatedSeries":
        """Multiply every coefficient by the integer c."""
        check_int("scale factor", c)
        return TruncatedSeries([c * a for a in self.coeffs], self.order)

    def shift(self, e: int) -> "TruncatedSeries":
        """Multiply by q^e: coefficient of q^k moves to q^(k+e)."""
        if e < 0:
            raise ValueError(f"shift exponent must be nonnegative, got {e}")
        if e > self.order:
            return TruncatedSeries.zero(self.order)
        cs = [0] * e + list(self.coeffs[: self.order + 1 - e])
        return TruncatedSeries(cs, self.order)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        # Schoolbook convolution, iterating the sparser operand on the
        # outside so two-term Pochhammer factors cost O(n) not O(n^2).
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

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

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
        if not 0 <= k <= self.order:
            raise IndexError(f"exponent {k} outside known range 0..{self.order}")
        return self.coeffs[k]

    def __getitem__(self, k: int) -> int:
        return self.coeff(k)

    def truncate(self, order: int) -> "TruncatedSeries":
        """Forget coefficients above the given (smaller or equal) order."""
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
        n = min(self.order, other.order)
        for k in range(n + 1):
            if self.coeffs[k] != other.coeffs[k]:
                return (k, self.coeffs[k], other.coeffs[k])
        return None

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

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
# 1 - sign*q^e.  Multiplying or dividing a coefficient list by one costs O(N)
# in place, so a product of up to N binomials costs O(N^2) and never needs a
# dense multiply or a general inverse.

Binomial = Tuple[int, int]
"""A pair (sign, e) standing for the factor 1 - sign*q^e."""


def _check_binomial(sign: int, e: int) -> None:
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if e < 0:
        raise ValueError(f"exponent must be nonnegative, got {e}")


def _check_divisor(sign: int, e: int) -> None:
    _check_binomial(sign, e)
    if e == 0:
        raise ValueError(f"1 - ({sign})*q^0 = {1 - sign} is not a unit")


def _alternating_step(total: int, c: int) -> int:
    return c - total


def mul_binomial(cs: List[int], sign: int, e: int) -> None:
    """Multiply the coefficient list cs by 1 - sign*q^e in place, modulo q^len(cs).

    Each c[k] loses sign*c[k-e] of the old list, as a descending update
    would; the slice is read in full before it is written back.
    """
    _check_binomial(sign, e)
    # One comprehension per sign: a multiply by sign per coefficient, here
    # and in div_binomial, made verify_all(600) about 13% slower (2-core
    # Xeon VM, Python 3.11).
    if sign == 1:
        cs[e:] = [a - b for a, b in zip(cs[e:], cs)]
    else:
        cs[e:] = [a + b for a, b in zip(cs[e:], cs)]


def div_binomial(cs: List[int], sign: int, e: int) -> None:
    """Divide the coefficient list cs by 1 - sign*q^e in place, modulo q^len(cs).

    Each c[k] gains sign*c[k-e] of the new list: an ascending update.  The
    divisor must be a unit, so e = 0 is refused as ``invert`` refuses it.
    """
    _check_divisor(sign, e)
    n = len(cs)
    if e * e < n:
        # Few long residue classes mod e, each a running sum (alternating
        # for sign -1) done in one C-level pass.
        step = None if sign == 1 else _alternating_step
        for r in range(e):
            cs[r::e] = accumulate(cs[r::e], step)
    elif sign == 1:
        # Few short blocks of length e, each updated from the one before.
        for lo in range(e, n, e):
            cs[lo : lo + e] = [a + b for a, b in zip(cs[lo : lo + e], cs[lo - e : lo])]
    else:
        for lo in range(e, n, e):
            cs[lo : lo + e] = [a - b for a, b in zip(cs[lo : lo + e], cs[lo - e : lo])]


def times_binomials(
    cs: List[int], num: Iterable[Binomial] = (), den: Iterable[Binomial] = ()
) -> List[int]:
    """Multiply cs in place by every binomial in num, divide it by every one in den; return cs."""
    for sign, e in num:
        mul_binomial(cs, sign, e)
    for sign, e in den:
        div_binomial(cs, sign, e)
    return cs


def binomial_quotient(
    order: int, num: Iterable[Binomial] = (), den: Iterable[Binomial] = ()
) -> TruncatedSeries:
    """The product of the binomials in num over the product of those in den.

    Every binomial is validated first, as ``mul_binomial``/``div_binomial``
    would; then a binomial in both lists cancels (as often as it appears in
    both) and only the rest is applied.  So (q^4;q^4)_inf/(q;q)_inf divides
    by the 3N/4 factors the numerator does not share and multiplies by none.

    The rest is applied from the largest exponent down, keeping the list
    zero at 1..lo-1, where lo is the smallest exponent applied so far.  A
    factor 1 - s*q^e with e <= lo then changes only coefficient e (by -s)
    and indices >= lo + e when it multiplies; when it divides, it sets the
    multiples j*e below lo to s^j, adds s^j to the one in [lo, lo + e) and
    updates indices >= lo + e.  Either way the index range >= lo + e is
    ``mul_binomial``/``div_binomial`` on the tail from lo, so a factor above
    N/2 costs O(1) and (q;q)_inf costs about N^2/4 updates, not N^2/2.
    """
    num, den = Counter(num), Counter(den)
    for sign, e in num:
        _check_binomial(sign, e)
    for sign, e in den:
        _check_divisor(sign, e)
    shared = num & den
    factors = sorted(
        [(e, sign, False) for sign, e in (num - shared).elements() if e <= order]
        + [(e, sign, True) for sign, e in (den - shared).elements() if e <= order],
        reverse=True,
    )
    cs = [1] + [0] * order
    lo = order + 1  # cs[1:lo] is zero
    for e, sign, divide in factors:
        if e == 0:  # only in num, and last: 1 - sign scales every coefficient
            mul_binomial(cs, sign, 0)
            continue
        if divide:
            j = -(-lo // e)  # j*e is the first multiple of e at or above lo
            cs[e : j * e : e] = [sign**i for i in range(1, j)]
            if j * e <= order:
                cs[j * e] += sign**j
        if lo + e <= order:
            tail = cs[lo:]
            (div_binomial if divide else mul_binomial)(tail, sign, e)
            cs[lo:] = tail
        if not divide:
            cs[e] -= sign  # after the tail, which reads the old cs[lo] when e == lo
        lo = e
    return TruncatedSeries(cs, order)


def poch_binomials(
    a: QMonomial, step: int, order: int, count: Optional[int] = None
) -> List[Binomial]:
    """The factors 1 - a*q^(step*j), j < count, of (a; q^step)_count.

    Factors with exponent above the order are 1 modulo q^(order+1) and are
    left out; count None stands for the infinite product.
    """
    stop = order + 1 if count is None else min(order + 1, a.exp + step * count)
    return [(a.sign, e) for e in range(a.exp, stop, step)]


def ratio_sum(
    order: int,
    exp: Callable[[int], int],
    start: Tuple[Iterable[Binomial], Iterable[Binomial]],
    num: Callable[[int], Iterable[Binomial]],
    den: Callable[[int], Iterable[Binomial]],
) -> TruncatedSeries:
    """sum_{n>=0} q^exp(n) * T_n modulo q^(order+1), evaluated in Horner form.

    T_0 is the binomials start[0] over start[1], and
    T_(n+1) = T_n * prod num(n) / prod den(n).  exp must be strictly
    increasing; the sum stops at the last exponent e_M = exp(M) <= order.
    With R_n = prod num(n) / prod den(n) the sum is q^e_0 * T_0 * H_0, where

        H_M = 1,    H_n = 1 + q^(e_(n+1) - e_n) * R_n * H_(n+1),

    so H_n is the tail sum divided by q^e_n * T_n.  Each H_n is kept to
    length order - e_n + 1, the room its shift leaves; R_n is applied in
    place to H_(n+1) at that list's own length, and the shift and the 1 are
    one list concatenation, so no step pays a separate pass to add a term.
    """
    es = []
    e = exp(0)
    while e <= order:
        es.append(e)
        e = exp(len(es))
    if not es:
        # Nothing to sum; applying start to an empty list still validates it.
        times_binomials([], *start)
        return TruncatedSeries.zero(order)
    h = [1] + [0] * (order - es[-1])
    for n in range(len(es) - 2, -1, -1):
        times_binomials(h, num(n), den(n))
        h = [1] + [0] * (es[n + 1] - es[n] - 1) + h
    times_binomials(h, *start)
    return TruncatedSeries([0] * es[0] + h, order)


def poch_finite(a: QMonomial, step: int, n: int, order: int) -> TruncatedSeries:
    """The finite product prod_{j=0}^{n-1} (1 - a * q^(step*j)), truncated.

    With step s this is the Pochhammer symbol (a; q^s)_n.  The empty product
    (n = 0) is 1.
    """
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    if n < 0:
        raise ValueError(f"factor count must be nonnegative, got {n}")
    return binomial_quotient(order, poch_binomials(a, step, order, n))


def poch_infinite(a: QMonomial, step: int, order: int) -> TruncatedSeries:
    """The infinite product prod_{j>=0} (1 - a * q^(step*j)), truncated.

    Requires a.exp >= 1 so that factor j only touches exponents at or above
    a.exp + step*j; the truncated product then stabilizes once that bound
    passes the order, and the result agrees with the true infinite product
    modulo q^(order+1).
    """
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    if a.exp < 1:
        raise ValueError(
            f"infinite product needs a monomial with exponent >= 1, got {a}"
        )
    return binomial_quotient(order, poch_binomials(a, step, order))
