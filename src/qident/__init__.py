"""qident: exact q-series arithmetic and restricted-partition identity checks."""

from .series import (
    QMonomial,
    TruncatedSeries,
    poch_finite,
    poch_infinite,
)
from .partitions import (
    ConstraintSpec,
    FAMILY_SERIES,
    FAMILY_SPECS,
    Partition,
    count_oracle,
    count_oracle_table,
    enumerate_partitions,
    gf_de1,
    gf_de2,
    gf_de3,
    gf_ped,
    gf_regular4,
    gf_regular4_min2,
    satisfies,
)
from .identities import (
    IdentityCase,
    RELATION_KINDS,
    VerificationReport,
    find_case,
    negative_control,
    registry,
    registry_ids,
    verify,
    verify_all,
    verify_relation,
)

__version__ = "0.1.0"

__all__ = [
    "QMonomial",
    "TruncatedSeries",
    "poch_finite",
    "poch_infinite",
    "ConstraintSpec",
    "Partition",
    "FAMILY_SERIES",
    "FAMILY_SPECS",
    "count_oracle",
    "count_oracle_table",
    "enumerate_partitions",
    "satisfies",
    "gf_de1",
    "gf_de2",
    "gf_de3",
    "gf_ped",
    "gf_regular4",
    "gf_regular4_min2",
    "IdentityCase",
    "RELATION_KINDS",
    "VerificationReport",
    "find_case",
    "negative_control",
    "registry",
    "registry_ids",
    "verify",
    "verify_all",
    "verify_relation",
]
