"""One rule for every argument check: series.check_int and series.check_type."""

import re

import pytest

from qident.identities import find_case, negative_control, side_values, verify, verify_relation
from qident.partitions import (
    FAMILY_SPECS,
    ConstraintSpec,
    Partition,
    count_oracle,
    count_oracle_table,
    enumerate_partitions,
    satisfies,
)
from qident.series import QMonomial, TruncatedSeries, binomial_quotient, check_int, check_type, ratio_sum

Q = QMonomial(1, 1)

# (site, call taking the checked value, least, the refusal of least - 1)
BOUND_SITES = [
    ("series-order", lambda v: TruncatedSeries([1], v), 0, "order must be nonnegative, got -1"),
    ("shift", lambda v: TruncatedSeries([1, 2, 3]).shift(v), 0, "shift exponent must be nonnegative, got -1"),
    ("monomial-exponent", lambda v: QMonomial(1, v), 0, "exponent must be nonnegative, got -1"),
    ("product-step", lambda v: binomial_quotient(10, [(Q, v, 2)]), 1, "step must be >= 1, got 0"),
    ("product-count", lambda v: binomial_quotient(10, [(Q, 1, v)]), 0, "factor count must be nonnegative, got -1"),
    ("ratio-sum-first", lambda v: ratio_sum(10, v, 1), 0, "first exponent must be nonnegative, got -1"),
    ("ratio-sum-step", lambda v: ratio_sum(10, 0, v), 1, "exponent step must be >= 1, got 0"),
    ("partition-part", lambda v: Partition((1, v)), 1, "part must be >= 1, got 0"),
    ("spec-regular-modulus", lambda v: ConstraintSpec(regular_modulus=v), 2, "regular_modulus must be >= 2, got 1"),
    ("spec-min-part", lambda v: ConstraintSpec(min_part=v), 1, "min_part must be >= 1, got 0"),
    ("enumerate-n", lambda v: enumerate_partitions(v, FAMILY_SPECS["DE1"]), 0, "n must be nonnegative, got -1"),
    ("count-oracle-n", lambda v: count_oracle(v, FAMILY_SPECS["DE1"]), 0, "n must be nonnegative, got -1"),
    ("count-oracle-table", lambda v: count_oracle_table(v, FAMILY_SPECS["DE1"]), 0, "up_to must be nonnegative, got -1"),
    ("side-values", lambda v: side_values([[("DE1", 0)]], v), 0, "order must be nonnegative, got -1"),
    ("negative-control", negative_control, 0, "exponent must be nonnegative, got -1"),
]


@pytest.mark.parametrize("call, least, message", [row[1:] for row in BOUND_SITES], ids=[row[0] for row in BOUND_SITES])
def test_every_bound_site_refuses_one_below_its_least_and_accepts_its_least(call, least, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(least - 1)
    call(least)


class SpecSubclass(ConstraintSpec):
    """A ConstraintSpec in all but its exact type."""


DE1 = FAMILY_SPECS["DE1"]

# (site, call taking the checked value, a value of the wrong class, its refusal).
# The spec is refused up front, before a negative n or up_to.
TYPE_SITES = [
    ("partition-parts-list", Partition, [3, 1], "parts must be tuple, got list"),
    ("partition-parts-range", Partition, range(2), "parts must be tuple, got range"),
    ("partition-parts-str", Partition, "21", "parts must be tuple, got str"),
    ("satisfies-partition", lambda v: satisfies(v, DE1), (3, 1), "partition must be Partition, got tuple"),
    ("satisfies-spec", lambda v: satisfies(Partition((3, 1)), v), "DE1", "spec must be ConstraintSpec, got str"),
    ("enumerate-spec", lambda v: enumerate_partitions(5, v), None, "spec must be ConstraintSpec, got NoneType"),
    ("count-oracle-spec", lambda v: count_oracle(5, v), {"min_part": 1}, "spec must be ConstraintSpec, got dict"),
    ("count-oracle-empty-spec", lambda v: count_oracle(-1, v), "DE1", "spec must be ConstraintSpec, got str"),
    ("oracle-table-spec", lambda v: count_oracle_table(5, v), None, "spec must be ConstraintSpec, got NoneType"),
    ("oracle-table-negative-spec", lambda v: count_oracle_table(-1, v), {}, "spec must be ConstraintSpec, got dict"),
    ("spec-subclass", lambda v: count_oracle(5, v), SpecSubclass(), "spec must be ConstraintSpec, got SpecSubclass"),
    ("first-mismatch-int", lambda v: TruncatedSeries([1, 2, 3]).first_mismatch(v), 3, "other must be TruncatedSeries, got int"),
    ("verify-case", lambda v: verify(v, 200), "main-1", "case must be IdentityCase, got str"),
    ("side-values-shift", lambda v: side_values([[("DE1", v)]], 5), True, "shift must be int, got bool"),
    ("side-values-term", lambda v: side_values(v, 5), [("DE1", 0)], "term must be tuple, got str"),
    ("find-case-id", find_case, 3, "case_id must be str, got int"),
    ("verify-relation-kind", lambda v: verify_relation(v, 10), ["main-1"], "kind must be str, got list"),
    ("monomial-shifted", lambda v: QMonomial(1, 2).shifted(v), True, "shift must be int, got bool"),
]


@pytest.mark.parametrize("call, value, message", [row[1:] for row in TYPE_SITES], ids=[row[0] for row in TYPE_SITES])
def test_every_class_site_refuses_another_class_by_name(call, value, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call(value)


def test_check_type_refuses_a_subclass_and_a_lookalike():
    with pytest.raises(TypeError, match="^n must be int, got bool$"):
        check_type("n", True, int)
    with pytest.raises(TypeError, match="^flag must be bool, got int$"):
        check_type("flag", 1, bool)
    # The type is tested before the bound, so a bool is no int even above it.
    with pytest.raises(TypeError, match="^n must be int, got bool$"):
        check_int("n", True, 0)
    check_type("n", 1, int)
    check_type("flag", False, bool)
