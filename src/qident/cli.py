"""Command-line front end: counting, listing, verifying, tabulating.

Each subcommand takes only the flags it reads: ``--order`` bounds the work
of ``verify``, on either route, ``--oracle-limit`` bounds the brute-force
enumeration of ``enumerate``, and ``--machine`` selects comma-separated
output.  ``count`` and ``table`` build exactly to their own n, and
``--oracle`` always counts part by part from the partition rules instead of
reading the generating functions: ``verify`` takes it for the eight
statements about family counts (``ped-eq-4regular``, ``main-1`` ..
``main-3``, ``cor1`` .. ``cor4``) and refuses it for every other target.

``verify`` and ``list-identities`` read one target list: the registry,
``cor1`` .. ``cor4``, then the negative control.  ``verify`` reports each
through the library's one comparison, ``identities.verify``, and calls
``verify_relation`` only for ``--oracle``: a relation is a case whose first
n is where the comparison starts, and the negative control is compared from
its perturbed q^50, so an order below either would compare nothing
(``verify cor3 --order 1``, and so ``verify all --order 1``, and ``verify
negative-control --order 10``).  The library refuses that order, a negative
n for ``enumerate``, and ``--oracle`` for a target that is no statement
about family counts, each with a ``ValueError``.  The CLI's own refusals,
a negative n for ``count`` or max_n for ``table`` (by the library's
``check_int``, so the message names the argument given), ``enumerate``
beyond ``--oracle-limit`` and an unknown target, raise ``ValueError`` too,
so one ``except`` in :func:`main` turns every usage error into exit 2.
:func:`_print_reports` writes every report: a row of the human table, or
with ``--machine`` the five-field record
``id,order,status,mismatch_exponent,elapsed_ms``.  A side that cannot be
built is no usage error: it is that check's report with status ``error``,
printed as a row like any other, or with ``--machine`` as its record, the
reason going to stderr.

Exit codes: 0 on success with everything passing, 1 when a verification or
cross-check fails or a check reports ``error``, 2 for usage errors, 141
(128 + SIGPIPE) when the reader of stdout closes it early, as
``qident table 1500 | head`` does.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, List, Optional, Tuple

from .identities import (
    RELATION_KINDS,
    RELATIONS,
    VerificationReport,
    family_counts,
    find_case,
    negative_control,
    registry,
    side_values,
    verify,
    verify_all,
    verify_relation,
)
from .partitions import FAMILY_SPECS, enumerate_partitions
from .series import check_int

_TABLE_FAMILIES = (("DE1", "DE1"), ("DE2", "DE2"), ("DE3", "DE3"), ("b4", "regular4"), ("c4", "regular4min2"))
TABLE_COLUMNS = [(label, ((family, 0),)) for label, family in _TABLE_FAMILIES] + [
    # the cor1 and cor3 left sides, headed by their own terms, e.g. DE3(n+2)+DE3(n-1)
    ("+".join(f"{f}(n{s:+d})" if s else f"{f}(n)" for f, s in terms), terms)
    for terms in (RELATIONS["cor1"].lhs, RELATIONS["cor3"].lhs)
]
"""Each table column after n: its header and the (family, shift) terms it sums."""

TABLE_HEADER = ("n",) + tuple(label for label, _ in TABLE_COLUMNS)

_TARGETS = {c.id: c for c in registry() + [find_case(kind) for kind in RELATION_KINDS] + [negative_control()]}
"""The checks ``verify`` and ``list-identities`` name, by id: the registry, cor1..cor4, the negative control."""


def cmd_count(family: str, n: int, oracle: bool, machine: bool) -> int:
    check_int("n", n, 0)
    series_count = family_counts([(family, 0)], n)[family][n]
    if not oracle:
        if machine:
            print(f"{family},{n},{series_count}")
        else:
            print(series_count)
        return 0
    oracle_count = family_counts([(family, 0)], n, use_oracle=True)[family][n]
    agree = series_count == oracle_count
    if machine:
        flag = "agree" if agree else "disagree"
        print(f"{family},{n},{series_count},{oracle_count},{flag}")
    else:
        print(f"series: {series_count}")
        print(f"oracle: {oracle_count}")
        print(f"agree: {'yes' if agree else 'no'}")
    return 0 if agree else 1


def cmd_enumerate(family: str, n: int, oracle_limit: int) -> int:
    if n > oracle_limit:
        raise ValueError(
            f"enumeration is brute force and capped at n <= {oracle_limit}; "
            f"raise --oracle-limit if you really want n = {n}"
        )
    partitions = enumerate_partitions(n, FAMILY_SPECS[family])
    for p in partitions:
        print(p)
    print(f"total: {len(partitions)}")
    return 0


def _print_listing(rows: List[Tuple[str, str]]) -> None:
    # Each (name, text) row, the names left-aligned in one column.
    width = max(len(name) for name, _ in rows)
    for name, text in rows:
        print(f"{name:<{width}}  {text}")


def _print_reports(reports: List[VerificationReport], machine: bool) -> None:
    if machine:
        for r in reports:
            mm = "" if r.mismatch is None else r.mismatch[0]
            print(f"{r.id},{r.order},{r.status},{mm},{round(r.elapsed * 1000)}")
            if r.status == "error":  # the record has no room for the reason
                print(r.error, file=sys.stderr)
        return
    rows = [("id", "status  first mismatch")]
    for r in reports:
        if r.status == "pass":
            detail = "-"
        elif r.status == "fail":
            k, lhs, rhs = r.mismatch
            detail = f"q^{k}: lhs={lhs} rhs={rhs}"
        else:
            detail = r.error
        rows.append((r.id, f"{r.status:<6}  {detail}"))
    _print_listing(rows)
    passed = sum(r.passed for r in reports)
    print(f"{passed}/{len(reports)} passed at order {reports[0].order}")


def cmd_verify(target: str, order: int, oracle: bool, machine: bool) -> int:
    if oracle:  # verify_relation refuses --oracle for a target that is no family statement
        reports = [verify_relation(target, order, use_oracle=True)]
    elif target == "all":
        reports = verify_all(order)
    elif target in _TARGETS:
        reports = [verify(_TARGETS[target], order)]
    else:
        raise ValueError(f"unknown identity {target!r}; valid targets: {', '.join([*_TARGETS, 'all'])}")
    _print_reports(reports, machine)
    return 0 if all(r.passed for r in reports) else 1


def cmd_table(max_n: int, machine: bool) -> int:
    check_int("max_n", max_n, 0)
    counts = family_counts([term for _, terms in TABLE_COLUMNS for term in terms], max_n)
    columns = [side_values(terms, counts, max_n) for _, terms in TABLE_COLUMNS]
    rows = list(zip(range(max_n + 1), *columns))
    if machine:
        print(",".join(TABLE_HEADER))
        for row in rows:
            print(",".join(str(v) for v in row))
    else:
        widths = [
            max(len(h), max(len(str(row[i])) for row in rows))
            for i, h in enumerate(TABLE_HEADER)
        ]
        print("  ".join(h.rjust(w) for h, w in zip(TABLE_HEADER, widths)))
        for row in rows:
            print("  ".join(str(v).rjust(w) for v, w in zip(row, widths)))
    return 0


def cmd_list_identities(machine: bool) -> int:
    if machine:
        print("\n".join(_TARGETS))
    else:
        _print_listing([(case.id, case.description) for case in _TARGETS.values()])
    return 0


_FLAGS = {
    "--order": dict(
        type=int,
        default=200,
        metavar="N",
        help="truncation order: the largest n or power of q computed (default 200)",
    ),
    "--oracle-limit": dict(
        type=int,
        default=40,
        metavar="M",
        help="largest n that brute-force enumeration may reach (default 40)",
    ),
    "--machine": dict(action="store_true", help="emit comma-separated, script-friendly output"),
}
"""Option flags by name, each added by :func:`_subcommand` only to the subcommands that read it."""


def _subcommand(sub, name: str, run: Callable[..., int], summary: str, *flags: str) -> argparse.ArgumentParser:
    """Add subcommand ``name``: :func:`main` calls ``run`` with its parsed values as keywords."""
    p = sub.add_parser(name, help=summary)
    p.set_defaults(run=run)
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qident",
        description="Exact q-series counts and mechanical identity verification "
        "for restricted partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    families = list(FAMILY_SPECS)
    p = _subcommand(sub, "count", cmd_count, "count partitions of n in a family", "--machine")
    p.add_argument("family", choices=families)
    p.add_argument("n", type=int)
    p.add_argument(
        "--oracle",
        action="store_true",
        help="also count part by part from the family's partition rules, "
        "without its generating function, and compare",
    )

    p = _subcommand(sub, "enumerate", cmd_enumerate, "list the partitions of n in a family", "--oracle-limit")
    p.add_argument("family", choices=families)
    p.add_argument("n", type=int)

    p = _subcommand(sub, "verify", cmd_verify, "verify an identity, relation, or everything", "--order", "--machine")
    p.add_argument("target", help=f"an identity id, {', '.join(RELATION_KINDS)}, negative-control, or 'all'")
    p.add_argument(
        "--oracle",
        action="store_true",
        help=f"{', '.join(RELATIONS)} only: count each family "
        "part by part from its partition rules instead of its generating function (up to --order)",
    )

    p = _subcommand(sub, "table", cmd_table, "tabulate counts and paired sums up to max_n", "--machine")
    p.add_argument("max_n", type=int)

    _subcommand(sub, "list-identities", cmd_list_identities, "list verifiable targets", "--machine")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    values = vars(build_parser().parse_args(argv))
    del values["command"]
    try:
        return values.pop("run")(**values)
    except ValueError as exc:  # every usage error: the library's refusals and the CLI's own
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone: point stdout at devnull so the interpreter's
        # final flush cannot raise again, and exit as a shell does on SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    sys.exit(status)


if __name__ == "__main__":
    entry_point()
