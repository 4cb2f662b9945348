"""Golden CLI outputs: each command's stdout, byte for byte, and its exit code.

Each file in tests/golden/ is the stdout of one command, written from the
command line in that directory with

    qident count DE1 8 > count-DE1.out
    qident count DE2 30 --oracle > count-DE2-oracle.out
    qident enumerate DE2 7 > enumerate-DE2.out
    qident table 60 --machine > table-machine.out
    qident table 60 > table.out
    qident verify main-2 --order 300 > verify-main-2.out
    qident verify main-2 --oracle --order 300 > verify-main-2-oracle.out
    qident verify negative-control > verify-negative-control.out
    qident verify all --order 200 > verify-all.out
    qident verify all --order 200 --machine | cut -d, -f1-4 > verify-all-machine.out
    qident list-identities --machine > list-identities-machine.out
    qident list-identities > list-identities.out

The last field of a ``--machine`` verify line is a wall-clock time, so that
file keeps the first four.  A change that alters the output on purpose writes
the files again the same way, and its diff shows what changed.  The two
``verify main-2`` files are the same bytes: a theorem checked from
part-by-part counts reports as it does from the generating functions.

No command prints a case's statement, so registry-statements.out pins them
instead: one ``id: statement`` line for each case of ``registry()``, then
one for ``negative_control()``, written with

    python -c "from qident.identities import registry, negative_control
    for c in registry() + [negative_control()]: print(f'{c.id}: {c.statement}')"
"""

from pathlib import Path

import pytest

from qident.cli import main
from qident.identities import negative_control, registry

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "count-DE1": ("count DE1 8", 0),
    "count-DE2-oracle": ("count DE2 30 --oracle", 0),
    "enumerate-DE2": ("enumerate DE2 7", 0),
    "table-machine": ("table 60 --machine", 0),
    "table": ("table 60", 0),
    "verify-main-2": ("verify main-2 --order 300", 0),
    "verify-main-2-oracle": ("verify main-2 --oracle --order 300", 0),
    "verify-negative-control": ("verify negative-control", 1),
    "verify-all": ("verify all --order 200", 0),
    "verify-all-machine": ("verify all --order 200 --machine", 0),
    "list-identities-machine": ("list-identities --machine", 0),
    "list-identities": ("list-identities", 0),
}


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted([*COMMANDS, "registry-statements"])


@pytest.mark.parametrize("name", COMMANDS)
def test_output_matches_golden_file(capsys, name):
    argv, expected_code = COMMANDS[name]
    code = main(argv.split())
    out = capsys.readouterr().out
    if name == "verify-all-machine":
        out = "".join(",".join(line.split(",")[:4]) + "\n" for line in out.splitlines())
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.out").read_text()


def test_oracle_route_prints_what_the_series_route_prints():
    assert (GOLDEN / "verify-main-2-oracle.out").read_bytes() == (GOLDEN / "verify-main-2.out").read_bytes()


def test_statements_match_golden_file():
    lines = [f"{case.id}: {case.statement}\n" for case in registry() + [negative_control()]]
    assert "".join(lines) == (GOLDEN / "registry-statements.out").read_text()
