import pytest

from qident import identities
from qident.identities import (
    RELATION_KINDS,
    RELATIONS,
    IdentityBuildError,
    IdentityCase,
    VerificationReport,
    find_case,
    negative_control,
    registry,
    registry_ids,
    report_record,
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
from qident.series import QMonomial, TruncatedSeries, poch_infinite, ratio_sum

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


def test_help_sum_refuses_a_step_without_its_difference_of_squares_factor():
    # A step divides by 1 + q^(2n+2) in place of (1 - q^(2n+2))/(1 - q^(4n+4)),
    # so 1 - q^(2n+2) must be among the (q;q) factors the step adds: with
    # (q;q)_(2n+f) it is for f = 0 and f = 1 only.
    for finite_start in (2, -1):
        with pytest.raises(ValueError, match="finite_start must be 0 or 1"):
            identities._help_sum(6, 0, 2, finite_start)
    with pytest.raises(TypeError):
        identities._help_sum(6, 0, 2, True)


def test_find_case_looks_up_one_map_of_definitions(monkeypatch):
    ids = registry_ids()
    assert [find_case(case_id).id for case_id in ids] == ids
    assert find_case("main-1") is find_case("main-1")
    assert find_case("negative-control") is None and find_case("bogus") is None
    # The map holds definitions, not builders fixed at its first lookup.
    monkeypatch.setattr(identities, "gf_ped", lambda order: TruncatedSeries.zero(order))
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


@pytest.mark.parametrize("exponent", [7, 50])
def test_negative_control_fails_exactly_at_perturbation(exponent):
    case = negative_control(exponent)
    report = verify(case, max(60, exponent + 5))
    assert report.status == "fail"
    assert report.mismatch[0] == exponent
    # below the perturbed exponent the two sides genuinely agree
    assert verify(case, exponent - 1).passed


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


def test_verify_propagates_builder_failures_with_id():
    def broken(order):
        return poch_infinite(QMonomial(1, 0), 1, order)  # divergent parameter

    case = IdentityCase("broken-case", "divergent builder", broken, broken, "n/a")
    with pytest.raises(IdentityBuildError) as info:
        verify(case, 10)
    assert info.value.case_id == "broken-case"
    assert "broken-case" in str(info.value)


def test_relation_builder_failure_becomes_error_report(monkeypatch):
    def broken(order):
        raise RuntimeError("family build failed")

    monkeypatch.setattr(identities, "FAMILY_SERIES", dict(identities.FAMILY_SERIES, DE2=broken))
    with pytest.raises(IdentityBuildError) as info:
        verify_relation("cor2", 20)
    assert info.value.case_id == "cor2"
    reports = {r.id: r for r in verify_all(20)}
    assert reports["cor2"].status == "error"
    assert "family build failed" in reports["cor2"].error
    assert all(r.passed for r in reports.values() if r.id != "cor2")


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
    assert verify_relation("cor1", 0).checked == 0
    assert verify_relation("cor3", 1).checked == 0
    assert verify_relation("cor1", 40).checked == 40
    assert verify(find_case("main-1"), 60).checked == 61
    assert verify(negative_control(), 200).checked == 51


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


@pytest.mark.parametrize("kind", RELATION_KINDS)
def test_relations_hold_via_series_to_200(kind):
    report = verify_relation(kind, 200)
    assert report.passed, report.mismatch


@pytest.mark.parametrize("kind", RELATION_KINDS)
def test_relations_hold_via_oracle_to_40(kind):
    report = verify_relation(kind, 40, use_oracle=True)
    assert report.passed, report.mismatch


@pytest.mark.parametrize("kind", RELATION_KINDS)
def test_oracle_relations_build_no_series(kind, monkeypatch):
    def refuse(order):
        raise RuntimeError("an oracle relation built a series")

    monkeypatch.setattr(identities, "FAMILY_SERIES", {f: refuse for f in identities.FAMILY_SERIES})
    for order in (30, 50):
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


def test_relation_examples():
    # cor1 at n=8: 9 + 7 = 16; cor2 at n=10: 5 + 2 = 7; cor3 at n=8: 11 + 5 = 16
    c = lambda n, fam: count_oracle(n, FAMILY_SPECS[fam])
    assert c(8, "DE1") + c(7, "DE1") == 16 == c(8, "regular4")
    assert c(10, "DE2") + c(7, "DE2") == 7 == c(10, "regular4min2")
    assert c(10, "DE3") + c(7, "DE3") == 16 == c(8, "regular4")


def test_relation_validation():
    with pytest.raises(ValueError):
        verify_relation("cor9", 10)
    with pytest.raises(ValueError):
        verify_relation("cor1", -1)


def test_verify_all_at_200():
    reports = verify_all(200)
    assert len(reports) == len(registry()) + 4
    assert all(r.passed for r in reports)
    assert [r.id for r in reports] == sorted(r.id for r in reports)


def test_verify_all_at_order_zero():
    reports = verify_all(0)
    assert all(r.passed for r in reports)
    assert len(reports) == len(registry()) + 4


def test_verify_all_is_deterministic():
    first = [(r.id, r.order, r.status, r.mismatch) for r in verify_all(40)]
    second = [(r.id, r.order, r.status, r.mismatch) for r in verify_all(40)]
    assert first == second


def test_report_record_format():
    passing = VerificationReport("some-id", 100, "pass", None, 0.01234)
    assert report_record(passing) == "some-id,100,pass,,12"
    failing = VerificationReport("other-id", 60, "fail", (50, 1, 2), 0.002)
    assert report_record(failing) == "other-id,60,fail,50,2"


def test_scaled_and_unscaled_de3_forms_agree():
    # The summation with numerator q^(2n+1) is q times the one with q^(2n);
    # both closed forms must therefore match after one shift.
    order = 120
    low_sum = ratio_sum(order, 0, 2, num=[(QMonomial(-1, 2), 2)], den=[(QMonomial(1, 1), 2)])
    one_plus_q3 = TruncatedSeries.one(order) + TruncatedSeries.monomial(1, 3, order)
    low_lhs = one_plus_q3 * low_sum
    low_rhs = (
        gf_regular4(order).shift(1)
        + 1
        - TruncatedSeries.monomial(1, 1, order)
    )
    assert low_lhs.first_mismatch(low_rhs) is None

    scaled_lhs = one_plus_q3 * gf_de3(order)
    assert scaled_lhs.truncate(order - 1) == low_lhs.shift(1).truncate(order - 1)
