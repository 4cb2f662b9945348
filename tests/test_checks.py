"""One rule for every argument check: series.check_int and series.check_type."""

import re

import pytest

from qident.identities import family_counts, negative_control
from qident.partitions import FAMILY_SPECS, ConstraintSpec, Partition, count_oracle_table
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
    ("count-oracle-table", lambda v: count_oracle_table(v, FAMILY_SPECS["DE1"]), 0, "up_to must be nonnegative, got -1"),
    ("family-counts", lambda v: family_counts([("DE1", 0)], v), 0, "order must be nonnegative, got -1"),
    ("negative-control", negative_control, 0, "exponent must be nonnegative, got -1"),
]


@pytest.mark.parametrize("call, least, message", [row[1:] for row in BOUND_SITES], ids=[row[0] for row in BOUND_SITES])
def test_every_bound_site_refuses_one_below_its_least_and_accepts_its_least(call, least, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(least - 1)
    call(least)


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
