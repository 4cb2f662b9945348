"""The four workloads: what one pass runs, and how each result is checked.

A pass is a list of operations issued one at a time by a single caller; the
next starts only when the last returns (a closed loop with one client).  The
seed fixes the order of the operations within each pass.  Every operation's
result is checked, and a wrong result is counted as failed, never retried.
See README.md in this directory for why each workload exists and which
metrics each should move.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from qident import (
    FAMILY_SERIES,
    FAMILY_SPECS,
    RELATION_KINDS,
    count_oracle,
    find_case,
    negative_control,
    registry,
    registry_ids,
    verify,
    verify_relation,
)

import reference

NEGATIVE_CONTROL_EXPONENT = 50
ORACLE_N = 40
GROUPS = ("ped", "qbinomial", "asv", "help", "main")
DEEP_CASES = ("ped-eq-4regular", "help-1", "help-2", "help-3", "main-1", "main-2", "main-3")


@dataclass(frozen=True)
class Op:
    """One operation: ``kind`` is case, relation, oracle or cli; ``group`` is
    the identities group, the oracle family or the CLI command name."""

    name: str
    kind: str
    group: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    value: Optional[Callable[[Any], int]] = None  # count carried by the op's span


@dataclass
class Context:
    """Inputs and expected results, prepared before any timing."""

    root: Path
    env: Dict[str, str]
    families_to_40: Dict[str, List[int]]
    table_rows: List[str]
    target_lines: List[str]

    @classmethod
    def prepare(cls, root: Path, env: Dict[str, str]) -> "Context":
        refs = reference.family_counts(62)
        rows = []
        for n in range(61):
            de1, de3 = refs["DE1"], refs["DE3"]
            pair1 = de1[n] + (de1[n - 1] if n else 0)
            pair3 = de3[n + 2] + (de3[n - 1] if n else 0)
            cols = [n] + [refs[f][n] for f in ("DE1", "DE2", "DE3", "regular4", "regular4min2")]
            rows.append(",".join(str(v) for v in cols + [pair1, pair3]))
        return cls(
            root=root,
            env=env,
            families_to_40={f: list(g(ORACLE_N).coeffs) for f, g in FAMILY_SERIES.items()},
            table_rows=rows,
            target_lines=registry_ids() + list(RELATION_KINDS) + ["negative-control"],
        )


def group_of(case_id: str) -> str:
    for group in GROUPS[1:]:
        if case_id.startswith(group + "-"):
            return group
    return "ped"  # ped-eq-4regular and its perturbed copy, negative-control


def relation_values(kind: str, order: int) -> int:
    """How many n a relation compares: n >= 1 for cor1/cor2, n >= 2 for cor3/cor4."""
    return max(order - (1 if kind in ("cor1", "cor2") else 2) + 1, 0)


def _passed(report) -> bool:
    return report.status == "pass"


def _negative_failed(report) -> bool:
    return report.status == "fail" and report.mismatch[0] == NEGATIVE_CONTROL_EXPONENT


def _case_op(case, order, tracer, check=_passed) -> Op:
    group = group_of(case.id)
    if tracer is not None:
        case = replace(
            case,
            lhs=tracer.wrap(f"identities.{group}.lhs", case.lhs),
            rhs=tracer.wrap(f"identities.{group}.rhs", case.rhs),
        )
    return Op(case.id, "case", group, partial(verify, case, order), check)


def _relation_op(kind: str, order: int, use_oracle: bool = False) -> Op:
    return Op(
        kind,
        "relation",
        "relations",
        partial(verify_relation, kind, order, use_oracle=use_oracle),
        _passed,
        value=lambda _report: relation_values(kind, order),
    )


def sweep_ops(ctx: Context, tracer) -> List[Op]:
    ops = [_case_op(case, 200, tracer) for case in registry()]
    ops += [_relation_op(kind, 200) for kind in RELATION_KINDS]
    ops.append(_case_op(negative_control(NEGATIVE_CONTROL_EXPONENT), 200, tracer, _negative_failed))
    return ops


def deep_ops(ctx: Context, tracer) -> List[Op]:
    ops = [_case_op(find_case(case_id), 600, tracer) for case_id in DEEP_CASES]
    return ops + [_relation_op(kind, 600) for kind in RELATION_KINDS]


def oracle_count_ops(ctx: Context) -> List[Op]:
    return [
        Op(
            f"{family}:{n}",
            "oracle",
            family,
            partial(count_oracle, n, spec),
            lambda got, want=ctx.families_to_40[family][n]: got == want,
            value=int,
        )
        for family, spec in FAMILY_SPECS.items()
        for n in range(ORACLE_N + 1)
    ]


def oracle_ops(ctx: Context, tracer) -> List[Op]:
    relations = [_relation_op(kind, ORACLE_N, use_oracle=True) for kind in RELATION_KINDS]
    return oracle_count_ops(ctx) + relations


def run_cli(ctx: Context, args: List[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "qident.cli", *args],
        cwd=ctx.root,
        env=ctx.env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _lines(proc) -> List[str]:
    return proc.stdout.splitlines()


def cli_commands(ctx: Context) -> Dict[str, tuple]:
    """Command name -> (arguments, check on the finished process)."""
    de2_30 = ctx.families_to_40["DE2"][30]
    header = "n,DE1,DE2,DE3,b4,c4,DE1(n)+DE1(n-1),DE3(n+2)+DE3(n-1)"
    return {
        "count-DE1": (["count", "DE1", "8"], lambda p: p.returncode == 0 and _lines(p) == ["9"]),
        "count-DE2-oracle": (
            ["count", "DE2", "30", "--oracle"],
            lambda p: p.returncode == 0
            and _lines(p) == [f"series: {de2_30}", f"oracle: {de2_30}", "agree: yes"],
        ),
        "enumerate-DE2": (
            ["enumerate", "DE2", "7"],
            lambda p: p.returncode == 0 and _lines(p) == ["3+3+1", "1+1+1+1+1+1+1", "total: 2"],
        ),
        "table-machine": (
            ["table", "60", "--machine"],
            lambda p: p.returncode == 0 and _lines(p) == [header] + ctx.table_rows,
        ),
        "verify-main-2": (
            ["verify", "main-2", "--order", "300"],
            lambda p: p.returncode == 0
            and _lines(p)[1].split() == ["main-2", "pass", "-"]
            and _lines(p)[-1] == "1/1 passed at order 300",
        ),
        "verify-negative-control": (
            ["verify", "negative-control"],
            lambda p: p.returncode == 1
            and _lines(p)[1].split()[:3] == ["negative-control", "fail", f"q^{NEGATIVE_CONTROL_EXPONENT}:"],
        ),
        "list-identities": (
            ["list-identities", "--machine"],
            lambda p: p.returncode == 0 and _lines(p) == ctx.target_lines,
        ),
    }


def cli_ops(ctx: Context, tracer) -> List[Op]:
    return [
        Op(name, "cli", name, partial(run_cli, ctx, args), check)
        for name, (args, check) in cli_commands(ctx).items()
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[Context, Any], List[Op]]
    # Whole passes run until --seconds have passed and at least this many are
    # done.  The minimum keeps op_ms_tail (the 11th-slowest operation) inside
    # one class of operation on the seed code rather than on the boundary
    # between two, where a pass more or less would move it; see README.md.
    min_passes: int
    in_process: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-200", sweep_ops, min_passes=6),
        Workload("deep-600", deep_ops, min_passes=4),
        Workload("oracle-40", oracle_ops, min_passes=4),
        Workload("cli-mix", cli_ops, min_passes=11, in_process=False),
    )
}
