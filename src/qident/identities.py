"""Registry of verifiable q-series statements plus the verification engine.

Each :class:`IdentityCase` owns two independent builders that expand the left
and right side of one equation to a requested truncation order; verification
is coefficient-by-coefficient integer comparison, so a pass is a mechanical
proof of agreement up to that order.  The counting relations (``cor1`` ..
``cor4``), which follow from the main identities, are checked the same way
but over count sequences, with an optional brute-force enumeration backend
replacing the series coefficients.  Each relation is declared once, in
:data:`RELATIONS`, as two sums of shifted family counts that
:func:`family_counts` and :func:`side_values` evaluate, for ``verify_relation``
and for the pair columns of ``qident table``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .partitions import (  # count_oracle stays a name here: perfbench/tracing.py wraps it
    FAMILY_SERIES,
    FAMILY_SPECS,
    count_oracle,
    count_oracle_table,
    gf_de1,
    gf_de2,
    gf_de3,
    gf_ped,
    gf_regular4,
    gf_regular4_min2,
)
from .series import (
    Product,
    QMonomial,
    TruncatedSeries,
    binomial_quotient,
    check_int,
    poch_infinite,
    ratio_sum,
    times_binomials,
)

Builder = Callable[[int], TruncatedSeries]

Term = Tuple[str, int]  # (family, shift): that family's count at n + shift, 0 when n + shift < 0


class Relation(NamedTuple):
    """For every n >= first_n the lhs terms sum to the rhs terms."""

    first_n: int
    lhs: Tuple[Term, ...]
    rhs: Tuple[Term, ...]
    statement: str


_DE1_PAIR, _DE3_PAIR = (("DE1", 0), ("DE1", -1)), (("DE3", 2), ("DE3", -1))

RELATIONS = {
    "cor1": Relation(1, _DE1_PAIR, (("regular4", 0),),
                     "DE1(n) + DE1(n-1) = #(4-regular partitions of n), n >= 1"),
    "cor2": Relation(1, (("DE2", 0), ("DE2", -3)), (("regular4min2", 0),),
                     "DE2(n) + DE2(n-3) = #(4-regular partitions of n, parts > 1), n >= 1"),
    "cor3": Relation(2, _DE3_PAIR, (("regular4", 0),),
                     "DE3(n+2) + DE3(n-1) = #(4-regular partitions of n), n >= 2"),
    "cor4": Relation(2, _DE3_PAIR, _DE1_PAIR, "DE3(n+2) + DE3(n-1) = DE1(n) + DE1(n-1), n >= 2"),
}

RELATION_KINDS = tuple(RELATIONS)


@dataclass(frozen=True)
class IdentityCase:
    """A named LHS/RHS pair of series builders for one equation."""

    id: str
    description: str
    lhs: Builder
    rhs: Builder
    statement: str


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of comparing both sides of a case up to a truncation order.

    ``mismatch`` is (exponent, lhs coefficient, rhs coefficient) for the
    smallest disagreeing exponent; it is present exactly when status is
    "fail".  Status "error" means a builder raised before any comparison.
    ``checked`` counts the coefficients (for a case) or values of n (for a
    relation) compared, up to and including a mismatch, so a pass with
    ``checked == 0`` compared nothing.
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


class IdentityBuildError(RuntimeError):
    """A case's series builder failed; carries the offending case id."""

    def __init__(self, case_id: str, message: str):
        super().__init__(f"{case_id}: {message}")
        self.case_id = case_id


# -- small constructors -----------------------------------------------------


def gf_euler_inf(order: int) -> TruncatedSeries:
    """(q;q)_inf, the Euler product."""
    return poch_infinite(QMonomial(1, 1), 1, order)


def gf_q4_inf(order: int) -> TruncatedSeries:
    """(q^4;q^4)_inf."""
    return poch_infinite(QMonomial(1, 4), 4, order)


def _times(x: TruncatedSeries, num: Sequence[Product] = (), den: Sequence[Product] = ()) -> TruncatedSeries:
    """x times the products in num over those in den, updating one copy of x's coefficients."""
    return TruncatedSeries(times_binomials(list(x.coeffs), num, den), x.order)


# -- left-hand-side sum builders ---------------------------------------------


def _help_sum(order: int, first: int, step: int, finite_start: int) -> TruncatedSeries:
    """sum over n of q^(first + step*n) * (q^(4n+4);q^4)_inf * (q;q)_(2n + finite_start).

    From term n to term n+1 the infinite tail loses 1 - q^(4n+4) and the
    finite product gains 1 - q^(2n+1+f) and 1 - q^(2n+2+f), f = finite_start.
    For f in (0, 1) one of these is 1 - q^(2n+2), and by the difference of
    squares (1 - q^(2n+2))/(1 - q^(4n+4)) = 1/(1 + q^(2n+2)); so the term
    ratio is (1 - q^(2n+1+2f))/(1 + q^(2n+2)), that of (q^(1+2f);q^2)_n over
    (-q^2;q^2)_n.
    """
    check_int("finite_start", finite_start)
    if finite_start not in (0, 1):
        raise ValueError(f"finite_start must be 0 or 1, got {finite_start}")
    return ratio_sum(
        order,
        first,
        step,
        start=([(QMonomial(1, 4), 4, None), (QMonomial(1, 1), 1, finite_start)], ()),
        num=[(QMonomial(1, 1 + 2 * finite_start), 2)],
        den=[(QMonomial(-1, 2), 2)],
    )


def _qbinomial_lhs(a: Optional[QMonomial], z_exp: int, order: int) -> TruncatedSeries:
    """sum over n of (a;q)_n * q^(n*z_exp) / (q;q)_n, with a = None meaning 0."""
    return ratio_sum(order, 0, z_exp, num=[] if a is None else [(a, 1)], den=[(QMonomial(1, 1), 1)])


def _qbinomial_rhs(a: Optional[QMonomial], z_exp: int, order: int) -> TruncatedSeries:
    num = [] if a is None else [(a.shifted(z_exp), 1, None)]
    return binomial_quotient(order, num, [(QMonomial(1, z_exp), 1, None)])


def _asv_lhs(step: int, a: QMonomial, b: QMonomial, order: int) -> TruncatedSeries:
    """sum over n of (a;Q)_n * Q^n / (b;Q)_n with Q = q^step."""
    return ratio_sum(order, 0, step, num=[(a, step)], den=[(b, step)])


def _asv_rhs(step: int, a: QMonomial, b: QMonomial, order: int) -> TruncatedSeries:
    """Q(a;Q)_inf / (b (b;Q)_inf (1 - aQ/b)) + (1 - Q/b)/(1 - aQ/b), Q = q^step.

    With a = sa*q^alpha and b = sb*q^beta every piece is a power series when
    1 <= beta <= step and alpha >= 1; then aQ/b = sa*sb*q^(alpha+step-beta)
    has positive exponent, so the closed form's pole 1 - aQ/b is a unit.
    """
    if not 1 <= b.exp <= step:
        raise ValueError(f"need 1 <= b.exp <= step for a series-valued form, got {b}")
    if a.exp < 1:
        raise ValueError(f"need a.exp >= 1, got {a}")
    # Q/b = sb*q^d; over the common pole the numerator is
    # sb*q^d * (a;Q)_inf/(b;Q)_inf + 1 - sb*q^d.
    d = step - b.exp
    ratio = binomial_quotient(order, [(a, step, None)], [(b, step, None)])
    return _times(
        ratio.scale(b.sign).shift(d) + 1 - TruncatedSeries.monomial(b.sign, d, order),
        den=[(QMonomial(a.sign * b.sign, a.exp + d), 1, 1)],
    )


# -- the registry -------------------------------------------------------------

_MONOMIAL_TOKENS = {
    None: ("a0", "0"),
    QMonomial(1, 1): ("aq", "q"),
    QMonomial(-1, 1): ("amq", "-q"),
    QMonomial(1, 2): ("aq2", "q^2"),
    QMonomial(-1, 2): ("amq2", "-q^2"),
    QMonomial(1, 3): ("aq3", "q^3"),
}

_ASV_GRID = (
    (1, QMonomial(1, 1), QMonomial(-1, 1)),
    (1, QMonomial(-1, 2), QMonomial(1, 1)),
    (1, QMonomial(1, 3), QMonomial(1, 1)),
    (2, QMonomial(1, 2), QMonomial(-1, 1)),
    (2, QMonomial(-1, 3), QMonomial(1, 2)),
    (3, QMonomial(1, 1), QMonomial(-1, 2)),
)


def _qbinomial_cases() -> List[IdentityCase]:
    cases = []
    for a, (atok, astr) in _MONOMIAL_TOKENS.items():
        for z_exp in (1, 2, 3):
            zstr = "q" if z_exp == 1 else f"q^{z_exp}"
            cases.append(
                IdentityCase(
                    id=f"qbinomial-{atok}-zq{z_exp if z_exp > 1 else ''}",
                    description=f"q-binomial theorem at a = {astr}, z = {zstr}",
                    lhs=lambda order, a=a, t=z_exp: _qbinomial_lhs(a, t, order),
                    rhs=lambda order, a=a, t=z_exp: _qbinomial_rhs(a, t, order),
                    statement=(
                        "sum_{n>=0} (a;q)_n z^n/(q;q)_n = (az;q)_inf/(z;q)_inf"
                        f" at a = {astr}, z = {zstr}"
                    ),
                )
            )
    return cases


def _asv_case(case_id: str, description: str, step: int, a: QMonomial, b: QMonomial) -> IdentityCase:
    qs = "q" if step == 1 else f"q^{step}"
    return IdentityCase(
        id=case_id,
        description=description,
        lhs=lambda order: _asv_lhs(step, a, b, order),
        rhs=lambda order: _asv_rhs(step, a, b, order),
        statement=(
            "sum_{n>=0} (a;Q)_n Q^n/(b;Q)_n"
            " = Q(a;Q)_inf/(b (b;Q)_inf (1-aQ/b)) + (1-Q/b)/(1-aQ/b)"
            f" at Q = {qs}, a = {a}, b = {b}"
        ),
    )


def registry() -> List[IdentityCase]:
    """Every registered statement, as independently buildable LHS/RHS pairs."""
    cases = [
        IdentityCase(
            id="ped-eq-4regular",
            description="distinct-even-part count equals the 4-regular count",
            # Looked up at call time, as in every case: the map find_case
            # keeps must not pin a builder that a caller has since replaced.
            lhs=lambda order: gf_ped(order),
            rhs=lambda order: gf_regular4(order),
            statement="(-q^2;q^2)_inf/(q;q^2)_inf = (q^4;q^4)_inf/(q;q)_inf",
        )
    ]
    cases += _qbinomial_cases()
    cases.append(
        _asv_case(
            "asv-spec-1",
            "two-parameter closed form at Q = q^2, a = q, b = -q^2",
            2,
            QMonomial(1, 1),
            QMonomial(-1, 2),
        )
    )
    cases.append(
        _asv_case(
            "asv-spec-2",
            "two-parameter closed form at Q = q^2, a = q^3, b = -q^2",
            2,
            QMonomial(1, 3),
            QMonomial(-1, 2),
        )
    )
    for i, (step, a, b) in enumerate(_ASV_GRID, start=1):
        cases.append(
            _asv_case(
                f"asv-grid-{i}",
                f"two-parameter closed form sampled at Q = q^{step}, a = {a}, b = {b}",
                step,
                a,
                b,
            )
        )
    cases += [
        IdentityCase(
            id="help-1",
            description="product-sum evaluation behind the DE1 identity",
            lhs=lambda order: _help_sum(order, 0, 2, finite_start=0),
            rhs=lambda order: _times(
                gf_q4_inf(order).scale(2) - gf_euler_inf(order), den=[(QMonomial(-1, 1), 1, 1)]
            ),
            statement=(
                "sum_{n>=0} q^(2n) (q^(4n+4);q^4)_inf (q;q)_(2n)"
                " = 2(q^4;q^4)_inf/(1+q) - (q;q)_inf/(1+q)"
            ),
        ),
        IdentityCase(
            id="main-1",
            description="DE1 generating function against the 4-regular product",
            lhs=lambda order: _times(gf_de1(order), [(QMonomial(-1, 1), 1, 1)]),
            rhs=lambda order: gf_regular4(order) - 1,
            statement=(
                "(1+q) sum_{n>=0} (-q^2;q^2)_n q^(2n+1)/(q;q^2)_(n+1)"
                " = (q^4;q^4)_inf/(q;q)_inf - 1"
            ),
        ),
        IdentityCase(
            id="help-2",
            description="product-sum evaluation behind the DE2 identity",
            lhs=lambda order: _help_sum(order, 0, 2, finite_start=1),
            rhs=lambda order: _times(
                _times(gf_q4_inf(order).scale(2), [(QMonomial(1, 1), 1, 1)]) - gf_euler_inf(order),
                den=[(QMonomial(-1, 3), 1, 1)],
            ),
            statement=(
                "sum_{n>=0} q^(2n) (q^(4n+4);q^4)_inf (q;q)_(2n+1)"
                " = 2(1-q)(q^4;q^4)_inf/(1+q^3) - (q;q)_inf/(1+q^3)"
            ),
        ),
        IdentityCase(
            id="main-2",
            description="DE2 generating function against the min-part-2 product",
            lhs=lambda order: _times(gf_de2(order), [(QMonomial(-1, 3), 1, 1)]),
            rhs=lambda order: gf_regular4_min2(order) - 1,
            statement=(
                "(1+q^3) sum_{n>=0} (-q^2;q^2)_n q^(4n+2)/(q;q^2)_(n+1)"
                " = (q^4;q^4)_inf/(q^2;q)_inf - 1"
            ),
        ),
        IdentityCase(
            id="help-3",
            description="product-sum evaluation behind the DE3 identity",
            lhs=lambda order: _help_sum(order, 1, 4, finite_start=0),
            rhs=lambda order: _times(
                gf_q4_inf(order).scale(2).shift(2)
                + _times(gf_euler_inf(order), [(QMonomial(1, 1), 1, 1)]).shift(1),
                den=[(QMonomial(-1, 3), 1, 1)],
            ),
            statement=(
                "sum_{n>=0} q^(4n+1) (q^(4n+4);q^4)_inf (q;q)_(2n)"
                " = 2q^2(q^4;q^4)_inf/(1+q^3) + q(1-q)(q;q)_inf/(1+q^3)"
            ),
        ),
        IdentityCase(
            id="main-3",
            description="DE3 generating function against the shifted 4-regular product",
            lhs=lambda order: _times(gf_de3(order), [(QMonomial(-1, 3), 1, 1)]),
            rhs=lambda order: gf_regular4(order).shift(2)
            - TruncatedSeries.monomial(1, 2, order)
            + TruncatedSeries.monomial(1, 1, order),
            statement=(
                "(1+q^3) sum_{n>=0} (-q^2;q^2)_n q^(2n+1)/(q;q^2)_n"
                " = q^2(q^4;q^4)_inf/(q;q)_inf - q^2 + q"
            ),
        ),
    ]
    return cases


def registry_ids() -> List[str]:
    return [case.id for case in registry()]


@lru_cache(maxsize=None)
def _cases_by_id() -> Dict[str, IdentityCase]:
    """Every registry case by id, built once; it holds definitions, never series."""
    return {case.id: case for case in registry()}


def find_case(case_id: str) -> Optional[IdentityCase]:
    return _cases_by_id().get(case_id)


NEGATIVE_CONTROL_EXPONENT = 50


def negative_control(exponent: int = NEGATIVE_CONTROL_EXPONENT) -> IdentityCase:
    """A deliberately broken copy of ped-eq-4regular: q^exponent added on the right.

    Verifying it at any order >= exponent must fail with the mismatch at
    exactly that exponent; it is excluded from :func:`registry`.
    """
    check_int("exponent", exponent)
    if exponent < 0:
        raise ValueError(f"exponent must be nonnegative, got {exponent}")
    base = find_case("ped-eq-4regular")
    return IdentityCase(
        id="negative-control",
        description=f"perturbed {base.id}: right side plus q^{exponent}, must fail",
        lhs=base.lhs,
        rhs=lambda order: base.rhs(order)
        + TruncatedSeries.monomial(1, exponent, order),
        statement=f"{base.statement}  [right side perturbed by +q^{exponent}]",
    )


# -- verification -------------------------------------------------------------


def verify(case: IdentityCase, order: int) -> VerificationReport:
    """Expand both sides to the order and report the first coefficient clash."""
    check_int("order", order)
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    start = perf_counter()
    try:
        lhs = case.lhs(order)
        rhs = case.rhs(order)
    except Exception as exc:
        raise IdentityBuildError(case.id, str(exc)) from exc
    mismatch = lhs.first_mismatch(rhs)
    elapsed = perf_counter() - start
    status = "pass" if mismatch is None else "fail"
    checked = order + 1 if mismatch is None else mismatch[0] + 1
    return VerificationReport(case.id, order, status, mismatch, elapsed, checked=checked)


def family_counts(terms: Sequence[Term], order: int, use_oracle: bool = False) -> Dict[str, Sequence[int]]:
    """Each family the terms name, counted once for n = 0..order + its largest shift,
    from its generating function or, with ``use_oracle``, one count_oracle_table walk."""
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


def verify_relation(kind: str, order: int, use_oracle: bool = False) -> VerificationReport:
    """Check one counting relation for every n in its validity range up to order.

    The fast path reads counts off the generating functions; with
    ``use_oracle`` every count comes from brute-force enumeration instead,
    one :func:`count_oracle_table` walk per family, which checks all four
    relations to n = 50 in about 0.18 s and counts all six families to
    n = 60 in about 0.5 s (2-core box, Python 3.11).  A mismatch reports
    (n, left, right).  Both sides and the first n come from :data:`RELATIONS`.
    A failing count builder raises :class:`IdentityBuildError`, as in
    :func:`verify`.
    """
    if kind not in RELATION_KINDS:
        raise ValueError(f"unknown relation {kind!r}; expected one of {RELATION_KINDS}")
    check_int("order", order)
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    start = perf_counter()
    first_n, lhs, rhs, _ = RELATIONS[kind]
    try:
        counts = family_counts(lhs + rhs, order, use_oracle)
        left, right = side_values(lhs, counts, order), side_values(rhs, counts, order)
    except Exception as exc:
        raise IdentityBuildError(kind, str(exc)) from exc
    mismatch, checked = None, 0
    for n in range(first_n, order + 1):
        checked += 1
        if left[n] != right[n]:
            mismatch = (n, left[n], right[n])
            break
    elapsed = perf_counter() - start
    status = "pass" if mismatch is None else "fail"
    return VerificationReport(kind, order, status, mismatch, elapsed, checked=checked)


def verify_all(order: int) -> List[VerificationReport]:
    """Verify every registry case plus the four relations; reports sorted by id.

    Builder errors, in a case or a relation, are captured as status-"error"
    reports rather than aborting the batch.
    """
    checks = [partial(verify, case, order) for case in registry()]
    checks += [partial(verify_relation, kind, order) for kind in RELATION_KINDS]
    reports = []
    for check in checks:
        start = perf_counter()
        try:
            reports.append(check())
        except IdentityBuildError as exc:
            reports.append(
                VerificationReport(
                    exc.case_id, order, "error", None, perf_counter() - start, str(exc)
                )
            )
    reports.sort(key=lambda r: r.id)
    return reports


def report_record(report: VerificationReport) -> str:
    """One line per report: id,order,status,mismatch_exponent,elapsed_ms."""
    mm = "" if report.mismatch is None else str(report.mismatch[0])
    return f"{report.id},{report.order},{report.status},{mm},{int(round(report.elapsed * 1000))}"
