"""Registry of verifiable q-series statements plus the verification engine.

Each :class:`IdentityCase` owns two independent builders that expand the left
and right side of one equation to a requested truncation order; verification
is coefficient-by-coefficient integer comparison, so a pass is a mechanical
proof of agreement up to that order.  The registry is one table of cases,
built once at import.  A side that is one call of a builder is that call, a
``partial`` waiting for its order; a side that does series arithmetic is a
lambda.

Every statement about family counts is declared once, in :data:`RELATIONS`,
as two sums of shifted family counts plus an integer correction, compared
from a first n: the paper's theorems ``main-1`` .. ``main-3``, the product
identity ``ped-eq-4regular`` and the counting relations ``cor1`` ..
``cor4`` that follow from the theorems.  :func:`_family_side` evaluates
either side of any of them through :func:`family_counts` and
:func:`side_values`, from the generating functions or, with ``use_oracle``,
from one part-by-part count per family.  A relation is checked as an
:class:`IdentityCase` whose ``first`` is its first n, made by
:func:`_family_case`.  The first four are registry cases; ``cor1`` ..
``cor4`` are built once at import beside them, so :func:`find_case` finds
all eight on the series route.  The pair columns of ``qident table`` and
both counts of ``qident count`` read the same two functions.

Every check is a case, and :func:`verify` is the one comparison, with one
outcome, a :class:`VerificationReport`.  It refuses an order that would
compare nothing (below the case's first n) with a ``ValueError`` before
anything is built; past that, a side that fails to build, or is known to a
lower order than asked for, is a report with status "error", never a pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .partitions import (  # count_oracle stays a name here: perfbench/tracing.py wraps it
    FAMILY_SERIES,
    FAMILY_SPECS,
    count_oracle,
    count_oracle_table,
)
from .series import QMonomial, TruncatedSeries, binomial_quotient, check_int, check_type, ratio_sum

Builder = Callable[[int], TruncatedSeries]

Term = Tuple[str, int]  # (family, shift): that family's count at n + shift, 0 when n + shift < 0

Correction = Tuple[Tuple[int, int], ...]  # (exponent, coefficient) pairs: the sum of coefficient * [n = exponent]


class Relation(NamedTuple):
    """For every n >= first_n the lhs terms sum to the rhs terms plus the correction."""

    first_n: int
    lhs: Tuple[Term, ...]
    rhs: Tuple[Term, ...]
    correction: Correction
    statement: str


_DE1_PAIR, _DE2_PAIR, _DE3_PAIR = (("DE1", 0), ("DE1", -1)), (("DE2", 0), ("DE2", -3)), (("DE3", 2), ("DE3", -1))
_B4, _C4 = (("regular4", 0),), (("regular4min2", 0),)

# The theorems hold from n = 0 once their low terms are corrected.  cor1 and
# cor2 are main-1 and main-2 read from n = 1, and cor3 is main-3 shifted by
# 2, so none of them needs a correction.
RELATIONS = {
    "ped-eq-4regular": Relation(
        0, (("ped", 0),), _B4, (), "(-q^2;q^2)_inf/(q;q^2)_inf = (q^4;q^4)_inf/(q;q)_inf"
    ),
    "main-1": Relation(
        0, _DE1_PAIR, _B4, ((0, -1),),
        "(1+q) sum_{n>=0} (-q^2;q^2)_n q^(2n+1)/(q;q^2)_(n+1) = (q^4;q^4)_inf/(q;q)_inf - 1",
    ),
    "main-2": Relation(
        0, _DE2_PAIR, _C4, ((0, -1),),
        "(1+q^3) sum_{n>=0} (-q^2;q^2)_n q^(4n+2)/(q;q^2)_(n+1) = (q^4;q^4)_inf/(q^2;q)_inf - 1",
    ),
    "main-3": Relation(
        0, (("DE3", 0), ("DE3", -3)), (("regular4", -2),), ((1, 1), (2, -1)),
        "(1+q^3) sum_{n>=0} (-q^2;q^2)_n q^(2n+1)/(q;q^2)_n = q^2(q^4;q^4)_inf/(q;q)_inf - q^2 + q",
    ),
    "cor1": Relation(1, _DE1_PAIR, _B4, (), "DE1(n) + DE1(n-1) = #(4-regular partitions of n), n >= 1"),
    "cor2": Relation(1, _DE2_PAIR, _C4, (), "DE2(n) + DE2(n-3) = #(4-regular partitions of n, parts > 1), n >= 1"),
    "cor3": Relation(2, _DE3_PAIR, _B4, (), "DE3(n+2) + DE3(n-1) = #(4-regular partitions of n), n >= 2"),
    "cor4": Relation(2, _DE3_PAIR, _DE1_PAIR, (), "DE3(n+2) + DE3(n-1) = DE1(n) + DE1(n-1), n >= 2"),
}

@dataclass(frozen=True)
class IdentityCase:
    """A named LHS/RHS pair of series builders for one equation, compared from q^first."""

    id: str
    description: str
    lhs: Builder
    rhs: Builder
    statement: str
    first: int = 0

    def __post_init__(self):
        check_int("first", self.first, 0)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of comparing both sides of a case up to a truncation order.

    ``mismatch`` is (exponent, lhs coefficient, rhs coefficient) for the
    smallest disagreeing exponent; it is present exactly when status is
    "fail".  Status "error" means a side could not be built, so nothing was
    compared; ``error`` then reads "<id>: <message>" and ``checked`` is 0.
    ``checked`` counts the coefficients (for a case) or values of n (for a
    relation) compared, up to and including a mismatch; on a pass or a fail
    it is at least 1, because an order that would compare nothing is refused.
    """

    id: str
    order: int
    status: str
    mismatch: Optional[Tuple[int, int, int]]
    elapsed: float
    error: Optional[str] = None
    checked: int = 0

    def __post_init__(self):
        if self.status not in ("pass", "fail", "error"):
            raise ValueError(f"bad status {self.status!r}")
        if (self.status == "fail") != (self.mismatch is not None):
            raise ValueError("mismatch must be present exactly on failure")
        if (self.status == "error") != (self.error is not None):
            raise ValueError("error text must be present exactly on error")

    @property
    def passed(self) -> bool:
        return self.status == "pass"


# -- sides over family counts ------------------------------------------------


def family_counts(terms: Sequence[Term], order: int, use_oracle: bool = False) -> Dict[str, Sequence[int]]:
    """Each family the terms name, counted once for n = 0..order + its largest shift,
    from its generating function or, with ``use_oracle``, one part-by-part count_oracle_table.
    A negative or non-int order is refused before anything is counted."""
    check_type("use_oracle", use_oracle, bool)  # a truthy "no" would count part by part
    check_int("order", order, 0)
    reach: Dict[str, int] = {}
    for family, shift in terms:
        reach[family] = max(reach.get(family, 0), shift)
    if use_oracle:
        return {f: count_oracle_table(order + s, FAMILY_SPECS[f]) for f, s in reach.items()}
    return {f: FAMILY_SERIES[f](order + s).coeffs for f, s in reach.items()}


def side_values(terms: Sequence[Term], counts: Dict[str, Sequence[int]], order: int) -> List[int]:
    """The sum of the terms at each n = 0..order, read from :func:`family_counts`."""
    columns = [
        counts[f][s : order + 1 + s] if s >= 0 else ([0] * -s + list(counts[f]))[: order + 1]
        for f, s in terms
    ]
    return [sum(values) for values in zip(*columns)]


def _family_side(terms: Sequence[Term], correction: Correction, order: int, use_oracle: bool = False) -> TruncatedSeries:
    """One side of a relation to q^order: at each n the sum of the terms, read
    from :func:`family_counts`, plus the correction at n = its exponent."""
    values = side_values(terms, family_counts(terms, order, use_oracle), order)
    for exponent, coefficient in correction:
        if exponent <= order:
            values[exponent] += coefficient
    return TruncatedSeries(values, order)


# -- factors the help cases declare ------------------------------------------

_EULER_INF = (QMonomial(1, 1), 1, None)  # (q;q)_inf
_Q4_INF = (QMonomial(1, 4), 4, None)  # (q^4;q^4)_inf
_ONE_MINUS_Q = (QMonomial(1, 1), 1, 1)
_ONE_PLUS_Q = (QMonomial(-1, 1), 1, 1)
_ONE_PLUS_Q3 = (QMonomial(-1, 3), 1, 1)


# -- right-hand-side builders -------------------------------------------------


def _asv_rhs(step: int, a: QMonomial, b: QMonomial, order: int) -> TruncatedSeries:
    """Q(a;Q)_inf / (b (b;Q)_inf (1 - aQ/b)) + (1 - Q/b)/(1 - aQ/b), Q = q^step.

    With a = sa*q^alpha and b = sb*q^beta every piece is a power series when
    1 <= beta <= step and alpha >= 1; then aQ/b = sa*sb*q^(alpha+step-beta)
    has positive exponent, so the closed form's pole 1 - aQ/b is a unit.
    Only the literal rows of _ASV_CASES reach this, and each meets the
    condition; a row that did not would fail its own case and the recorded
    builder digests.
    """
    # Q/b = sb*q^d; over the common pole the numerator is
    # sb*q^d * (a;Q)_inf/(b;Q)_inf + 1 - sb*q^d.
    d = step - b.exp
    pole = (QMonomial(a.sign * b.sign, a.exp + d), 1, 1)
    ratio = binomial_quotient(order, [(a, step, None)], [(b, step, None), pole])
    return ratio.scale(b.sign).shift(d) + binomial_quotient(order, [(QMonomial(b.sign, d), 1, 1)], [pole])


# -- the registry -------------------------------------------------------------


def _family_case(kind: str, description: str, use_oracle: bool = False) -> IdentityCase:
    """A relation of :data:`RELATIONS` as a case compared from its first n: each side
    a :func:`_family_side` waiting for its order, on the route ``use_oracle`` picks."""
    first_n, lhs, rhs, correction, statement = RELATIONS[kind]
    return IdentityCase(
        kind,
        description,
        partial(_family_side, lhs, (), use_oracle=use_oracle),
        partial(_family_side, rhs, correction, use_oracle=use_oracle),
        statement,
        first=first_n,
    )


def _qbinomial_case(a: Optional[QMonomial], z_exp: int) -> IdentityCase:
    """sum over n of (a;q)_n z^n/(q;q)_n = (az;q)_inf/(z;q)_inf at z = q^z_exp, a = None meaning 0.

    The id spells a and z without ``^`` and a minus sign as ``m``: a = -q^2,
    z = q^3 is ``qbinomial-amq2-zq3``.
    """
    astr, zstr = "0" if a is None else str(a), str(QMonomial(1, z_exp))
    return IdentityCase(
        id=f"qbinomial-a{astr.replace('-', 'm')}-z{zstr}".replace("^", ""),
        description=f"q-binomial theorem at a = {astr}, z = {zstr}",
        lhs=partial(
            ratio_sum, first=0, step=z_exp, num=() if a is None else ((a, 1),), den=((QMonomial(1, 1), 1),)
        ),
        rhs=partial(
            binomial_quotient,
            num=() if a is None else ((a.shifted(z_exp), 1, None),),
            den=((QMonomial(1, z_exp), 1, None),),
        ),
        statement=f"sum_{{n>=0}} (a;q)_n z^n/(q;q)_n = (az;q)_inf/(z;q)_inf at a = {astr}, z = {zstr}",
    )


def _asv_case(case_id: str, at: str, step: int, a: QMonomial, b: QMonomial) -> IdentityCase:
    """sum over n of (a;Q)_n * Q^n / (b;Q)_n against its closed form, Q = q^step."""
    return IdentityCase(
        id=case_id,
        description=f"two-parameter closed form {at} Q = q^{step}, a = {a}, b = {b}",
        lhs=partial(ratio_sum, first=0, step=step, num=((a, step),), den=((b, step),)),
        rhs=partial(_asv_rhs, step, a, b),
        statement=(
            "sum_{n>=0} (a;Q)_n Q^n/(b;Q)_n"
            " = Q(a;Q)_inf/(b (b;Q)_inf (1-aQ/b)) + (1-Q/b)/(1-aQ/b)"
            f" at Q = {QMonomial(1, step)}, a = {a}, b = {b}"
        ),
    )


def _help_case(family: str, first: int, step: int, finite_start: int, rhs: Builder, statement: str) -> IdentityCase:
    """sum over n of q^(first + step*n) * (q^(4n+4);q^4)_inf * (q;q)_(2n + finite_start) against rhs.

    The evaluation behind the family's identity, a :func:`ratio_sum`: from
    term n to term n+1 the infinite tail loses 1 - q^(4n+4) and the finite
    product gains 1 - q^(2n+1+f) and 1 - q^(2n+2+f), f = finite_start.  For
    f in (0, 1) one of these is 1 - q^(2n+2), and by the difference of
    squares (1 - q^(2n+2))/(1 - q^(4n+4)) = 1/(1 + q^(2n+2)); so the term
    ratio is (1 - q^(2n+1+2f))/(1 + q^(2n+2)), that of (q^(1+2f);q^2)_n over
    (-q^2;q^2)_n.
    """
    return IdentityCase(
        id=f"help-{family[-1]}",
        description=f"product-sum evaluation behind the {family} identity",
        lhs=partial(
            ratio_sum,
            first=first,
            step=step,
            start=((_Q4_INF, (QMonomial(1, 1), 1, finite_start)), ()),
            num=((QMonomial(1, 1 + 2 * finite_start), 2),),
            den=((QMonomial(-1, 2), 2),),
        ),
        rhs=rhs,
        statement=statement,
    )


# (id, how the description names Q, step, a, b) for each asv case.
_ASV_CASES = (
    ("asv-spec-1", "at", 2, QMonomial(1, 1), QMonomial(-1, 2)),
    ("asv-spec-2", "at", 2, QMonomial(1, 3), QMonomial(-1, 2)),
    ("asv-grid-1", "sampled at", 1, QMonomial(1, 1), QMonomial(-1, 1)),
    ("asv-grid-2", "sampled at", 1, QMonomial(-1, 2), QMonomial(1, 1)),
    ("asv-grid-3", "sampled at", 1, QMonomial(1, 3), QMonomial(1, 1)),
    ("asv-grid-4", "sampled at", 2, QMonomial(1, 2), QMonomial(-1, 1)),
    ("asv-grid-5", "sampled at", 2, QMonomial(-1, 3), QMonomial(1, 2)),
    ("asv-grid-6", "sampled at", 3, QMonomial(1, 1), QMonomial(-1, 2)),
)

_REGISTRY = (
    _family_case("ped-eq-4regular", "distinct-even-part count equals the 4-regular count"),
    *(
        _qbinomial_case(a, z_exp)
        for a in (None, QMonomial(1, 1), QMonomial(-1, 1), QMonomial(1, 2), QMonomial(-1, 2), QMonomial(1, 3))
        for z_exp in (1, 2, 3)
    ),
    *(_asv_case(*row) for row in _ASV_CASES),
    _help_case(
        "DE1", 0, 2, 0,
        lambda order: binomial_quotient(order, [_Q4_INF], [_ONE_PLUS_Q]).scale(2)
        - binomial_quotient(order, [_EULER_INF], [_ONE_PLUS_Q]),
        "sum_{n>=0} q^(2n) (q^(4n+4);q^4)_inf (q;q)_(2n) = 2(q^4;q^4)_inf/(1+q) - (q;q)_inf/(1+q)",
    ),
    _family_case("main-1", "DE1 generating function against the 4-regular product"),
    _help_case(
        "DE2", 0, 2, 1,
        lambda order: binomial_quotient(order, [_Q4_INF, _ONE_MINUS_Q], [_ONE_PLUS_Q3]).scale(2)
        - binomial_quotient(order, [_EULER_INF], [_ONE_PLUS_Q3]),
        "sum_{n>=0} q^(2n) (q^(4n+4);q^4)_inf (q;q)_(2n+1) = 2(1-q)(q^4;q^4)_inf/(1+q^3) - (q;q)_inf/(1+q^3)",
    ),
    _family_case("main-2", "DE2 generating function against the min-part-2 product"),
    _help_case(
        "DE3", 1, 4, 0,
        lambda order: binomial_quotient(order, [_Q4_INF], [_ONE_PLUS_Q3]).scale(2).shift(2)
        + binomial_quotient(order, [_EULER_INF, _ONE_MINUS_Q], [_ONE_PLUS_Q3]).shift(1),
        "sum_{n>=0} q^(4n+1) (q^(4n+4);q^4)_inf (q;q)_(2n) = 2q^2(q^4;q^4)_inf/(1+q^3) + q(1-q)(q;q)_inf/(1+q^3)",
    ),
    _family_case("main-3", "DE3 generating function against the shifted 4-regular product"),
)

_CASES_BY_ID = {case.id: case for case in _REGISTRY}  # definitions, never series
# The relations that are not registry cases; find_case finds them too.
RELATION_KINDS = tuple(kind for kind in RELATIONS if kind not in _CASES_BY_ID)
_CASES_BY_ID.update((kind, _family_case(kind, RELATIONS[kind].statement)) for kind in RELATION_KINDS)


def registry() -> List[IdentityCase]:
    """Every registered statement, as independently buildable LHS/RHS pairs, in a new list."""
    return list(_REGISTRY)


def registry_ids() -> List[str]:
    return [case.id for case in registry()]


def find_case(case_id: str) -> Optional[IdentityCase]:
    """The registry case or relation ``case_id`` names, the same object on every call, or None.

    All eight family statements are found, on the series route: the four
    registry theorems and ``cor1`` .. ``cor4``, whose cases are built once at
    import.  The negative control is made by :func:`negative_control`, not found here.
    """
    return _CASES_BY_ID.get(case_id)


NEGATIVE_CONTROL_EXPONENT = 50


def negative_control(exponent: int = NEGATIVE_CONTROL_EXPONENT) -> IdentityCase:
    """A deliberately broken copy of ped-eq-4regular: q^exponent added on the right.

    It claims only that the sides differ at q^exponent, so it is compared
    from there: :func:`verify` refuses an order below the exponent with a
    ``ValueError``, as it refuses any order that would compare nothing, and
    at any order >= exponent it must fail with the mismatch at exactly that
    exponent (ped-eq-4regular itself checks q^0..q^(exponent-1)).  It is
    excluded from :func:`registry`.
    """
    check_int("exponent", exponent, 0)
    base = find_case("ped-eq-4regular")
    return IdentityCase(
        id="negative-control",
        description=f"perturbed {base.id}: right side plus q^{exponent}, must fail",
        lhs=base.lhs,
        rhs=lambda order: base.rhs(order)
        + TruncatedSeries.monomial(1, exponent, order),
        statement=f"{base.statement}  [right side perturbed by +q^{exponent}]",
        first=exponent,
    )


# -- verification -------------------------------------------------------------


def _check_range(case: IdentityCase, order: int) -> None:
    check_int("order", order)
    if order < case.first:
        raise ValueError(
            f"{case.id} is compared from q^{case.first}, so a lower order would compare nothing: "
            f"needs order >= {case.first} (got {order})"
        )


def verify(case: IdentityCase, order: int) -> VerificationReport:
    """The one comparison: expand both sides to the order and report the first coefficient clash.

    Refuses an order below ``case.first``, which would compare nothing, with
    a ``ValueError`` before anything is built.  Builds ``case.lhs(order)``,
    then ``case.rhs(order)``; any failure, a side known to a lower order than
    asked for included, is a status "error" report whose text is "<id>:
    <message>".  Then compares the coefficients of q^first..q^order;
    ``checked`` counts them through the mismatch or the order.
    """
    _check_range(case, order)
    start = perf_counter()
    try:
        lhs, rhs = case.lhs(order).truncate(order), case.rhs(order).truncate(order)
    except Exception as exc:
        return VerificationReport(case.id, order, "error", None, perf_counter() - start, f"{case.id}: {exc}")
    if case.first:  # below q^first the case claims nothing
        lhs, rhs = (TruncatedSeries((0,) * case.first + side.coeffs[case.first :], order) for side in (lhs, rhs))
    mismatch = lhs.first_mismatch(rhs)
    elapsed = perf_counter() - start
    status = "pass" if mismatch is None else "fail"
    checked = (order if mismatch is None else mismatch[0]) - case.first + 1
    return VerificationReport(case.id, order, status, mismatch, elapsed, checked=checked)


def verify_relation(kind: str, order: int, use_oracle: bool = False) -> VerificationReport:
    """Check one relation of :data:`RELATIONS` for every n from its first n up to order.

    Any of the eight family-count statements may be checked: the theorems
    ``main-1`` .. ``main-3`` and ``ped-eq-4regular`` as well as ``cor1`` ..
    ``cor4``.  The series route verifies :func:`find_case`'s case for the
    relation, built once at import, whose sides read their counts off the
    generating functions.  With ``use_oracle`` the relation is built as a
    case whose every count comes instead from one :func:`count_oracle_table`
    per family, a count that goes part by part from the family's partition
    rules and shares no counting code with the generating functions; that
    route's time grows as O(order^2), and the benchmark's ``oracle-40``
    workload measures it.  Either case has its first n as ``first`` and
    :func:`_family_side` series as its sides, and :func:`verify` compares
    them from there, so a mismatch reports (n, left, right), an order below
    the first n is a ``ValueError`` raised before anything is counted, and a
    failing count builder gives a status "error" report.  The CLI calls it
    only for ``verify --oracle``; without it, the CLI verifies the same
    :func:`find_case` case.
    """
    if kind not in RELATIONS:
        raise ValueError(f"{kind!r} is no statement about family counts; expected one of {', '.join(RELATIONS)}")
    check_type("use_oracle", use_oracle, bool)  # here, or verify would turn its TypeError into an error report
    return verify(_family_case(kind, RELATIONS[kind].statement, True) if use_oracle else find_case(kind), order)


def verify_all(order: int) -> List[VerificationReport]:
    """Verify every registry case plus cor1..cor4, as :func:`find_case` holds them; reports sorted by id.

    A side that fails to build, in a case or a relation, is that check's
    status "error" report, and the batch goes on.  An order below 2, where
    some relation would compare nothing, is a ``ValueError`` raised before
    anything is built.
    """
    cases = registry() + [find_case(kind) for kind in RELATION_KINDS]
    for case in cases:
        _check_range(case, order)
    return sorted((verify(case, order) for case in cases), key=lambda r: r.id)

