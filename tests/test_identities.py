import re
from dataclasses import replace

import pytest

import qident
from qident import identities
from qident.identities import (
    RELATION_KINDS,
    RELATIONS,
    IdentityCase,
    VerificationReport,
    find_case,
    negative_control,
    registry,
    registry_ids,
    verify,
    verify_all,
    verify_relation,
)
from qident.partitions import (
    FAMILY_SPECS,
    count_oracle,
    gf_de1,
    gf_de3,
    gf_regular4,
)
from qident.series import QMonomial, TruncatedSeries, binomial_quotient, poch_infinite, ratio_sum

NAMED_IDS = {
    "ped-eq-4regular",
    "asv-spec-1",
    "asv-spec-2",
    "help-1",
    "help-2",
    "help-3",
    "main-1",
    "main-2",
    "main-3",
}


def test_every_exported_name_resolves():
    # A name left in __all__ after its definition goes breaks `from qident import *`.
    assert [name for name in qident.__all__ if not hasattr(qident, name)] == []


def test_registry_shape():
    cases = registry()
    ids = [c.id for c in cases]
    assert len(cases) >= 10
    assert len(set(ids)) == len(ids)
    assert NAMED_IDS <= set(ids)
    assert sum(i.startswith("qbinomial-") for i in ids) == 18
    assert sum(i.startswith("asv-") for i in ids) >= 2


def test_builders_are_deterministic():
    for case in registry()[:4] + [find_case("main-3"), find_case("asv-spec-1")]:
        assert case.lhs(25) == case.lhs(25)
        assert case.rhs(25) == case.rhs(25)


def test_every_registry_case_passes_at_200():
    for case in registry():
        report = verify(case, 200)
        assert report.passed, (case.id, report.mismatch)


def test_main2_constant_terms_vanish():
    case = find_case("main-2")
    assert case.lhs(10).coeff(0) == 0
    assert case.rhs(10).coeff(0) == 0


def test_help1_agrees_to_100():
    case = find_case("help-1")
    assert case.lhs(100).first_mismatch(case.rhs(100)) is None


def test_find_case_looks_up_one_map_of_definitions(monkeypatch):
    ids = registry_ids()
    assert [find_case(case_id).id for case_id in ids] == ids
    assert find_case("main-1") is find_case("main-1")
    assert find_case("negative-control") is None and find_case("bogus") is None
    # registry() hands out a new list: clearing it changes no later lookup.
    registry().clear()
    assert registry_ids() == [case.id for case in registry()] == ids
    assert find_case("main-1").id == "main-1"
    # The map holds definitions, not builders fixed at its first lookup.
    monkeypatch.setitem(identities.FAMILY_SERIES, "ped", lambda order: TruncatedSeries.zero(order))
    assert find_case("ped-eq-4regular").lhs(5) == TruncatedSeries.zero(5)
    assert negative_control().lhs(5) == TruncatedSeries.zero(5)


def test_forged_case_fails_at_exponent_two():
    forged = IdentityCase(
        id="forged",
        description="deliberate mismatch",
        lhs=lambda order: TruncatedSeries([1, 1], order),
        rhs=lambda order: TruncatedSeries([1, 1, 1], order),
        statement="1 + q = 1 + q + q^2 (false)",
    )
    report = verify(forged, 2)
    assert report.status == "fail"
    assert report.mismatch == (2, 0, 1)


@pytest.mark.parametrize(
    "first, error, message",
    [
        (-1, ValueError, "first must be nonnegative, got -1"),
        (True, TypeError, "first must be int, got bool"),
        (1.0, TypeError, "first must be int, got float"),
    ],
)
def test_case_refuses_a_bad_first_when_made(first, error, message):
    def zero(order):
        return TruncatedSeries.zero(order)

    with pytest.raises(error) as excinfo:
        IdentityCase("bad-first", "", zero, zero, "0 = 0", first=first)
    assert str(excinfo.value) == message


def test_user_case_is_compared_from_its_first():
    # q^0..q^2 differ, so only a comparison that starts at q^3 can pass.
    built = []

    def side(offset):
        def build(order):
            built.append(order)
            return TruncatedSeries([offset, offset, offset] + [1] * (order - 2), order)

        return build

    case = IdentityCase("from-3", "agrees from q^3", side(0), side(5), "n/a", first=3)
    with pytest.raises(ValueError, match="^from-3 is compared from q\\^3, so a lower order would compare nothing: needs order >= 3 \\(got 2\\)$"):
        verify(case, 2)
    assert built == []
    report = verify(case, 6)
    assert report.passed and report.checked == 4
    assert built == [6, 6]


@pytest.mark.parametrize("exponent", [7, 50])
def test_negative_control_fails_exactly_at_perturbation(exponent):
    case = negative_control(exponent)
    report = verify(case, max(60, exponent + 5))
    assert report.status == "fail"
    assert report.mismatch[0] == exponent
    # Below the perturbed exponent the control claims nothing: refused
    # before either side is built, as ped-eq-4regular itself checks q^0..q^(exponent-1).
    def unbuildable(order):
        raise AssertionError("no side may be built")

    control = replace(case, lhs=unbuildable, rhs=unbuildable)
    for order in range(exponent):
        with pytest.raises(ValueError, match=f"^negative-control is compared from q\\^{exponent}, .*got {order}\\)$"):
            verify(control, order)
    assert verify(find_case("ped-eq-4regular"), exponent - 1).passed


@pytest.mark.parametrize(
    "exponent, error, message",
    [
        (-1, ValueError, "exponent must be nonnegative, got -1"),
        (True, TypeError, "exponent must be int, got bool"),
        (2.0, TypeError, "exponent must be int, got float"),
    ],
)
def test_negative_control_refuses_a_bad_exponent_when_made(exponent, error, message):
    # Refused when the case is made, not later inside verify as a build error.
    with pytest.raises(error) as excinfo:
        negative_control(exponent)
    assert str(excinfo.value) == message


def test_negative_control_not_registered():
    assert "negative-control" not in registry_ids()


@pytest.mark.parametrize("case_id", ["main-1", "asv-spec-2", "qbinomial-amq2-zq2"])
@pytest.mark.parametrize("exponent", [13, 31])
def test_any_perturbed_case_fails_at_perturbation(case_id, exponent):
    base = find_case(case_id)
    perturbed = IdentityCase(
        id=f"{case_id}-perturbed",
        description="perturbed for testing",
        lhs=base.lhs,
        rhs=lambda order: base.rhs(order)
        + TruncatedSeries.monomial(1, exponent, order),
        statement="n/a",
    )
    report = verify(perturbed, 60)
    assert report.status == "fail"
    assert report.mismatch[0] == exponent


def test_verify_propagates_builder_failures_with_id(monkeypatch):
    def broken(order):
        return binomial_quotient(order, den=[(QMonomial(1, 0), 1, None)])  # refused: (1;q)_inf = 0 is no unit

    # A side known only to q^3 agrees with the other up to there, but must not
    # pass at a deeper order as if all of it had been compared.
    short = IdentityCase(
        "short2",
        "",
        lambda o: TruncatedSeries([1, 1, 1, 1], 3),
        lambda o: TruncatedSeries([1] * (o + 1), o),
        "n/a",
    )
    # A failed build is that check's one outcome, an error report: nothing
    # was compared, and the text names the check.
    for case in (IdentityCase("broken-case", "divergent builder", broken, broken, "n/a"), short):
        for order in (10, 200):
            report = verify(case, order)
            assert (report.id, report.order, report.status) == (case.id, order, "error")
            assert report.mismatch is None and report.checked == 0 and not report.passed
            assert report.error.startswith(f"{case.id}: ")
        monkeypatch.setattr(identities, "registry", lambda: [case])
        reports = {r.id: r for r in verify_all(10)}
        assert reports[case.id].status == "error" and case.id in reports[case.id].error
        assert [r.id for r in reports.values() if not r.passed] == [case.id]
    assert verify(short, 3).passed  # to its own order it is a real comparison


def test_relation_builder_failure_becomes_error_report(monkeypatch):
    def broken(order):
        raise RuntimeError("family build failed")

    monkeypatch.setattr(identities, "FAMILY_SERIES", dict(identities.FAMILY_SERIES, DE2=broken))
    report = verify_relation("cor2", 20)
    assert (report.id, report.status, report.mismatch, report.checked) == ("cor2", "error", None, 0)
    assert report.error == "cor2: family build failed"
    # The part-by-part route builds no series, so the broken builder is never called.
    assert verify_relation("cor2", 20, use_oracle=True).passed
    reports = {r.id: r for r in verify_all(20)}
    # main-2 is the identity about the DE2 builder, so it errors with cor2.
    for broken_id in ("cor2", "main-2"):
        assert reports[broken_id].status == "error"
        assert "family build failed" in reports[broken_id].error
    assert all(r.passed for r in reports.values() if r.id not in ("cor2", "main-2"))


def test_report_field_coupling():
    with pytest.raises(ValueError):
        VerificationReport("x", 5, "pass", (1, 0, 1), 0.0)
    with pytest.raises(ValueError):
        VerificationReport("x", 5, "fail", None, 0.0)
    with pytest.raises(ValueError):
        VerificationReport("x", 5, "error", None, 0.0)  # error text required
    with pytest.raises(ValueError):
        VerificationReport("x", 5, "bogus", None, 0.0)


def test_reports_count_what_they_checked():
    # An order below a relation's first n would compare nothing: refused.
    for use_oracle in (False, True):
        for kind, order in (("cor1", 0), ("cor3", 1)):
            with pytest.raises(ValueError, match=f"{kind} is compared from q\\^{order + 1}"):
                verify_relation(kind, order, use_oracle=use_oracle)
        assert verify_relation("cor3", 2, use_oracle=use_oracle).checked == 1
    assert verify_relation("cor1", 40).checked == 40
    assert verify(find_case("main-1"), 60).checked == 61
    assert verify(negative_control(), 200).checked == 1  # q^50 alone, where it fails


def test_failing_relation_counts_up_to_mismatch(monkeypatch):
    def off_at_5(order):
        return gf_de1(order) + TruncatedSeries.monomial(1, 5, order)

    monkeypatch.setattr(identities, "FAMILY_SERIES", dict(identities.FAMILY_SERIES, DE1=off_at_5))
    report = verify_relation("cor1", 20)
    assert report.status == "fail" and report.mismatch[0] == 5
    assert report.checked == 5  # n = 1..5

    def broken(order):
        raise RuntimeError("family build failed")

    monkeypatch.setattr(identities, "FAMILY_SERIES", dict(identities.FAMILY_SERIES, DE1=broken))
    reports = {r.id: r for r in verify_all(20)}
    assert reports["cor1"].status == "error" and reports["cor1"].checked == 0


@pytest.mark.parametrize("use_oracle", [False, True])
@pytest.mark.parametrize("order", [2, 200, 1000])
@pytest.mark.parametrize("kind", RELATIONS)
def test_every_relation_holds_on_both_routes(kind, order, use_oracle):
    # The theorems and ped-eq-4regular as well as cor1..cor4, each from the
    # generating functions and from part-by-part counts.
    report = verify_relation(kind, order, use_oracle=use_oracle)
    assert report.passed, report.mismatch
    assert report.checked == order - RELATIONS[kind].first_n + 1


@pytest.mark.parametrize("kind", RELATIONS)
def test_theorem_cases_are_their_relations(kind):
    # find_case finds every relation, theorems and cor1..cor4 alike, as one
    # case that reads its sides from the generating functions; part-by-part
    # counts give the same coefficients, the corrections at q^0..q^2
    # included, at the lowest orders and deep.
    case = find_case(kind)
    assert case is find_case(kind)
    oracle = identities._family_case(kind, case.description, use_oracle=True)
    assert (case.id, case.statement, case.first) == (oracle.id, oracle.statement, oracle.first)
    assert (case.statement, case.first) == (RELATIONS[kind].statement, RELATIONS[kind].first_n)
    for order in (0, 1, 2, 3, 300):
        assert case.lhs(order) == oracle.lhs(order), order
        assert case.rhs(order) == oracle.rhs(order), order


def test_theorems_need_their_corrections(monkeypatch):
    # Without its correction each theorem fails at the corrected exponent:
    # main-1 and main-2 at q^0, main-3 at q^1.  The series route checks the
    # case built at import, so the uncorrected cases are built here.
    for kind, exponent in (("main-1", 0), ("main-2", 0), ("main-3", 1)):
        monkeypatch.setitem(RELATIONS, kind, RELATIONS[kind]._replace(correction=()))
        for use_oracle in (False, True):
            report = verify(identities._family_case(kind, kind, use_oracle), 10)
            assert report.status == "fail" and report.mismatch[0] == exponent, kind


def test_verify_relation_checks_the_case_find_case_holds(monkeypatch):
    # On the series route a relation is the case built at import: no new one is built.
    def refuse(*args, **kwargs):
        raise AssertionError("verify_relation built a relation case")

    monkeypatch.setattr(identities, "_family_case", refuse)
    for kind in RELATIONS:
        report = verify_relation(kind, 40)
        assert (report.id, report.status) == (kind, "pass"), report


@pytest.mark.parametrize("kind", RELATIONS)
def test_oracle_relations_build_no_series(kind, monkeypatch):
    def refuse(order):
        raise RuntimeError("an oracle relation built a series")

    monkeypatch.setattr(identities, "FAMILY_SERIES", {f: refuse for f in identities.FAMILY_SERIES})
    for order in (30, 1000):
        report = verify_relation(kind, order, use_oracle=True)
        assert report.passed, report.mismatch
        assert report.checked == order + 1 - RELATIONS[kind].first_n


def test_verify_refuses_non_int_order_before_building():
    built = []

    def record(order):
        built.append(order)
        return TruncatedSeries.zero(order)

    case = IdentityCase("probe", "records every build", record, record, "0 = 0")
    for order in (True, 2.0):
        with pytest.raises(TypeError):
            verify(case, order)
    assert built == []


def test_verify_relation_refuses_non_int_order_before_building(monkeypatch):
    built = []

    def record(*args):
        built.append(args)
        raise RuntimeError("no build expected")

    monkeypatch.setattr(identities, "FAMILY_SERIES", {f: record for f in identities.FAMILY_SERIES})
    for kind in RELATION_KINDS:
        for order in (True, 3.0):
            for use_oracle in (False, True):
                with pytest.raises(TypeError):
                    verify_relation(kind, order, use_oracle=use_oracle)
    assert built == []


def test_verify_relation_refuses_empty_range_before_counting(monkeypatch):
    built = []

    def record(*args):
        built.append(args)
        raise RuntimeError("no build expected")

    monkeypatch.setattr(identities, "FAMILY_SERIES", {f: record for f in identities.FAMILY_SERIES})
    monkeypatch.setattr(identities, "count_oracle_table", record)
    for kind, relation in RELATIONS.items():
        for order in range(-1, relation.first_n):
            for use_oracle in (False, True):
                with pytest.raises(ValueError, match=f"needs order >= {relation.first_n}"):
                    verify_relation(kind, order, use_oracle=use_oracle)
    assert built == []


def test_relation_examples():
    # cor1 at n=8: 9 + 7 = 16; cor2 at n=10: 5 + 2 = 7; cor3 at n=8: 11 + 5 = 16
    c = lambda n, fam: count_oracle(n, FAMILY_SPECS[fam])
    assert c(8, "DE1") + c(7, "DE1") == 16 == c(8, "regular4")
    assert c(10, "DE2") + c(7, "DE2") == 7 == c(10, "regular4min2")
    assert c(10, "DE3") + c(7, "DE3") == 16 == c(8, "regular4")


def test_relation_validation():
    kinds = "ped-eq-4regular, main-1, main-2, main-3, cor1, cor2, cor3, cor4"
    for kind in ("cor9", "help-1", "qbinomial-a0-zq", "negative-control", "all"):
        message = f"{kind!r} is no statement about family counts; expected one of {kinds}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_relation(kind, 10)
    with pytest.raises(ValueError):
        verify_relation("cor1", -1)


@pytest.mark.parametrize("use_oracle", ["no", "", 1, 0, None])
def test_verify_relation_refuses_a_non_bool_use_oracle_before_counting(monkeypatch, use_oracle):
    # A truthy "no" must not run the part-by-part count, nor a falsy 0 the series.
    def refuse(*args):
        raise AssertionError("counted before use_oracle was checked")

    monkeypatch.setattr(identities, "count_oracle_table", refuse)
    monkeypatch.setattr(identities, "FAMILY_SERIES", {family: refuse for family in identities.FAMILY_SERIES})
    with pytest.raises(TypeError, match="^use_oracle must be bool, got "):
        verify_relation("cor1", 10, use_oracle=use_oracle)


@pytest.mark.parametrize("use_oracle", ["no", "", 1, 0, None])
def test_family_counts_refuses_a_non_bool_use_oracle_before_counting(monkeypatch, use_oracle):
    def refuse(*args):
        raise AssertionError("counted before use_oracle was checked")

    monkeypatch.setattr(identities, "count_oracle_table", refuse)
    monkeypatch.setattr(identities, "FAMILY_SERIES", {family: refuse for family in identities.FAMILY_SERIES})
    with pytest.raises(TypeError, match="^use_oracle must be bool, got "):
        identities.family_counts([("DE1", 0)], 5, use_oracle=use_oracle)


@pytest.mark.parametrize("use_oracle", [False, True])
@pytest.mark.parametrize(
    "order, error, message",
    [
        (-1, ValueError, "^order must be nonnegative, got -1$"),
        (True, TypeError, "^order must be int, got bool$"),
        (2.0, TypeError, "^order must be int, got float$"),
    ],
)
def test_family_counts_refuses_a_bad_order_before_counting(monkeypatch, use_oracle, order, error, message):
    # Both routes refuse alike: the oracle route once returned [] for -1, and
    # True counted to n = 1 on both.
    calls = []

    def record(*args):
        calls.append(args)
        raise AssertionError("counted before the order was checked")

    monkeypatch.setattr(identities, "count_oracle_table", record)
    monkeypatch.setattr(identities, "FAMILY_SERIES", {family: record for family in identities.FAMILY_SERIES})
    with pytest.raises(error, match=message):
        identities.family_counts([("DE1", 0)], order, use_oracle=use_oracle)
    assert calls == []


def test_verify_all_at_200():
    reports = verify_all(200)
    assert len(reports) == len(registry()) + 4
    assert all(r.passed for r in reports)
    assert [r.id for r in reports] == sorted(r.id for r in reports)


def test_verify_all_at_order_zero(monkeypatch):
    built = []

    def record(*args):
        built.append(args)
        raise RuntimeError("no build expected")

    family_series = identities.FAMILY_SERIES
    monkeypatch.setattr(identities, "FAMILY_SERIES", {f: record for f in family_series})
    # cor3 and cor4 start at n = 2, so below that verify_all would pass them vacuously.
    for order in (0, 1):
        with pytest.raises(ValueError, match="would compare nothing"):
            verify_all(order)
    assert built == []
    monkeypatch.setattr(identities, "FAMILY_SERIES", family_series)
    reports = verify_all(2)
    assert len(reports) == len(registry()) + 4 == 37
    assert all(r.passed for r in reports)


def test_verify_all_reads_the_cases_built_at_import(monkeypatch):
    # The cor cases are built once, at import: verify_all builds none again.
    def refuse(*args, **kwargs):
        raise AssertionError("verify_all built a relation case")

    monkeypatch.setattr(identities, "_family_case", refuse)
    reports = verify_all(2)
    assert len(reports) == 37 and all(r.passed for r in reports)
    assert {r.id for r in reports} >= set(RELATIONS)


def test_verify_all_is_deterministic():
    first = [(r.id, r.order, r.status, r.mismatch) for r in verify_all(40)]
    second = [(r.id, r.order, r.status, r.mismatch) for r in verify_all(40)]
    assert first == second


def test_scaled_and_unscaled_de3_forms_agree():
    # The summation with numerator q^(2n+1) is q times the one with q^(2n);
    # both closed forms must therefore match after one shift.
    order = 120
    low_sum = ratio_sum(order, 0, 2, num=[(QMonomial(-1, 2), 2)], den=[(QMonomial(1, 1), 2)])
    one_plus_q3 = TruncatedSeries.one(order) + TruncatedSeries.monomial(1, 3, order)
    low_lhs = one_plus_q3 * low_sum
    low_rhs = (
        gf_regular4(order).shift(1)
        + TruncatedSeries.one(order)
        - TruncatedSeries.monomial(1, 1, order)
    )
    assert low_lhs.first_mismatch(low_rhs) is None

    scaled_lhs = one_plus_q3 * gf_de3(order)
    assert scaled_lhs.truncate(order - 1) == low_lhs.shift(1).truncate(order - 1)


def test_de_sums_and_help_cases_are_asv_sums():
    # S(a, b) is the asv sum at Q = q^2.  gf_de3 is q S(-q^2, q), whose
    # closed form _asv_rhs builds; (1 - q) gf_de1 is q S(-q^2, q^3); and
    # help-1 and help-2 are asv-spec-1 and asv-spec-2 times unit products.
    order = 1000
    q, mq2, q3 = QMonomial(1, 1), QMonomial(-1, 2), QMonomial(1, 3)

    def asv_sum(a, b):
        return ratio_sum(order, 0, 2, num=((a, 2),), den=((b, 2),))

    de3_sum = asv_sum(mq2, q)
    assert gf_de3(order) == de3_sum.shift(1)
    assert identities._asv_rhs(2, mq2, q, order) == de3_sum
    one_minus_q = TruncatedSeries.one(order) - TruncatedSeries.monomial(1, 1, order)
    assert one_minus_q * gf_de1(order) == asv_sum(mq2, q3).shift(1)
    q4_inf = poch_infinite(QMonomial(1, 4), 4, order)
    for help_id, asv_id, unit in (("help-1", "asv-spec-1", q4_inf), ("help-2", "asv-spec-2", one_minus_q * q4_inf)):
        help_case, asv_case = find_case(help_id), find_case(asv_id)
        assert help_case.lhs(order) == asv_case.lhs(order) * unit, help_id
        assert help_case.rhs(order) == asv_case.rhs(order) * unit, help_id
