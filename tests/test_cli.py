import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qident
from qident import identities
from qident.cli import _print_reports, main
from qident.partitions import FAMILY_SPECS, count_oracle, count_oracle_table
from qident.series import TruncatedSeries


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- flags ----------------------------------------------------------------------


SUBCOMMAND_FLAGS = {
    "count": {"--oracle", "--machine"},
    "enumerate": {"--oracle-limit"},
    "verify": {"--order", "--oracle", "--machine"},
    "table": {"--machine"},
    "list-identities": {"--machine"},
}


@pytest.mark.parametrize("command", SUBCOMMAND_FLAGS)
def test_help_lists_only_the_flags_a_subcommand_reads(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == SUBCOMMAND_FLAGS[command] | {"--help"}


def test_verify_help_names_the_relations_from_the_registry(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "500")  # one line per option, so no name is wrapped
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    out = capsys.readouterr().out
    assert f"an identity id, {', '.join(identities.RELATION_KINDS)}, negative-control, or 'all'" in out
    assert f"--oracle {', '.join(identities.RELATIONS)} only: count each family" in " ".join(out.split())


@pytest.mark.parametrize(
    "argv",
    [
        "count DE1 8 --order 5",
        "count DE1 8 --oracle-limit 1",
        "table 3 --order 5",
        "table 3 --oracle-limit 1",
        "verify main-1 --oracle-limit 1 --order 20",
        "list-identities --order 5",
        "list-identities --oracle-limit 5",
        "enumerate DE2 7 --order 20",
        "enumerate DE2 7 --machine",
    ],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys, argv):
    argv = argv.split()
    (flag,) = [a for a in argv if a.startswith("--") and a not in SUBCOMMAND_FLAGS[argv[0]]]
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 2 and captured.out == ""
    assert flag in captured.err


# The refusal names the subcommand's own argument: count and table check their
# n and max_n before building, enumerate walks to enumerate_partitions' n.
@pytest.mark.parametrize(
    "argv, name",
    [("count DE1 -1", "n"), ("count DE1 -1 --oracle", "n"), ("enumerate DE2 -1", "n"), ("table -1", "max_n")],
)
def test_negative_n_is_a_usage_error(capsys, argv, name):
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (2, "", f"error: {name} must be nonnegative, got -1\n")


def test_negative_order_and_oracle_limit_are_usage_errors(capsys):
    assert run(capsys, "verify", "main-1", "--order", "-1") == (
        2,
        "",
        "error: main-1 is compared from q^0, so a lower order would compare nothing: needs order >= 0 (got -1)\n",
    )
    assert run(capsys, "enumerate", "DE2", "7", "--oracle-limit", "-1") == (
        2,
        "",
        "error: enumeration is brute force and capped at n <= -1; raise --oracle-limit if you really want n = 7\n",
    )
    # n = -1 is within a cap of -1, so the library refuses the count.
    assert run(capsys, "enumerate", "DE2", "-1", "--oracle-limit", "-1") == (2, "", "error: n must be nonnegative, got -1\n")


# -- count ------------------------------------------------------------------------


def test_count_golden(capsys):
    code, out, _ = run(capsys, "count", "DE1", "8")
    assert code == 0 and out == "9\n"
    code, out, _ = run(capsys, "count", "regular4", "0")
    assert code == 0 and out == "1\n"
    code, out, _ = run(capsys, "count", "DE3", "10")
    assert code == 0 and out == "11\n"


def test_count_with_oracle(capsys):
    code, out, _ = run(capsys, "count", "DE2", "10", "--oracle")
    assert code == 0
    assert out == "series: 5\noracle: 5\nagree: yes\n"


def test_count_machine_mode(capsys):
    code, out, _ = run(capsys, "count", "DE1", "8", "--machine")
    assert code == 0 and out == "DE1,8,9\n"
    code, out, _ = run(capsys, "count", "DE1", "8", "--machine", "--oracle")
    assert code == 0 and out == "DE1,8,9,9,agree\n"


def test_count_builds_to_its_own_n(capsys):
    code, out, _ = run(capsys, "count", "DE1", "300")
    assert code == 0 and out == f"{count_oracle_table(300, FAMILY_SPECS['DE1'])[300]}\n"


def test_count_oracle_reaches_depth(capsys):
    code, out, _ = run(capsys, "count", "DE1", "1000", "--oracle")
    series, oracle, agree = out.splitlines()
    assert code == 0 and agree == "agree: yes"
    assert series.split(": ")[1] == oracle.split(": ")[1]


def test_count_oracle_reports_a_disagreement(capsys, monkeypatch):
    # count reads the series through identities, as verify and table do.
    de1 = identities.FAMILY_SERIES["DE1"]
    off_by_q5 = lambda order: de1(order) + TruncatedSeries.monomial(1, 5, order)
    monkeypatch.setattr(identities, "FAMILY_SERIES", dict(identities.FAMILY_SERIES, DE1=off_by_q5))
    right = count_oracle(5, FAMILY_SPECS["DE1"])
    code, out, _ = run(capsys, "count", "DE1", "5", "--oracle")
    assert code == 1 and out == f"series: {right + 1}\noracle: {right}\nagree: no\n"
    code, out, _ = run(capsys, "count", "DE1", "5", "--oracle", "--machine")
    assert code == 1 and out == f"DE1,5,{right + 1},{right},disagree\n"


def test_count_unknown_family(capsys):
    with pytest.raises(SystemExit) as info:
        main(["count", "DE9", "8"])
    assert info.value.code == 2


# -- enumerate ----------------------------------------------------------------------


def test_enumerate_golden(capsys):
    code, out, _ = run(capsys, "enumerate", "DE2", "7")
    assert code == 0
    assert out == "3+3+1\n1+1+1+1+1+1+1\ntotal: 2\n"


def test_enumerate_empty(capsys):
    code, out, _ = run(capsys, "enumerate", "DE1", "0")
    assert code == 0 and out == "total: 0\n"
    code, out, _ = run(capsys, "enumerate", "regular4", "0")
    assert code == 0 and out == "(empty)\ntotal: 1\n"


def test_enumerate_min2_listing(capsys):
    code, out, _ = run(capsys, "enumerate", "regular4min2", "10")
    lines = out.strip().split("\n")
    assert code == 0
    assert lines[0] == "10"
    assert lines[-2] == "2+2+2+2+2"
    assert lines[-1] == "total: 7"


def test_enumerate_cap(capsys):
    code, _, err = run(capsys, "enumerate", "DE1", "41")
    assert code == 2 and "capped" in err
    code, out, _ = run(capsys, "enumerate", "DE1", "41", "--oracle-limit", "41")
    assert code == 0 and out.rstrip().rsplit("\n", 1)[-1].startswith("total: ")


# -- verify -------------------------------------------------------------------------


def test_verify_single_pass(capsys):
    code, out, _ = run(capsys, "verify", "main-1", "--order", "60")
    assert code == 0
    assert "main-1" in out and "pass" in out


def test_verify_all_order_zero(capsys):
    # Below order 2 some relation would compare nothing, so the batch is refused.
    for order in ("0", "1"):
        code, out, err = run(capsys, "verify", "all", "--order", order)
        assert code == 2 and out == ""
        assert f"needs order >= {int(order) + 1} (got {order})" in err


def test_verify_machine_record(capsys):
    code, out, _ = run(capsys, "verify", "ped-eq-4regular", "--order", "80", "--machine")
    assert code == 0
    case_id, order, status, mismatch, elapsed_ms = out.strip().split(",")
    assert (case_id, order, status, mismatch) == ("ped-eq-4regular", "80", "pass", "")
    assert elapsed_ms.isdigit()


def test_print_reports_machine_record(capsys):
    # The golden files cut elapsed_ms, so its rounding to whole milliseconds is pinned here.
    _print_reports(
        [
            identities.VerificationReport("some-id", 100, "pass", None, 0.01234),
            identities.VerificationReport("other-id", 60, "fail", (50, 1, 2), 0.002),
        ],
        machine=True,
    )
    assert capsys.readouterr().out == "some-id,100,pass,,12\nother-id,60,fail,50,2\n"


def test_verify_negative_control(capsys):
    code, out, _ = run(capsys, "verify", "negative-control", "--order", "200")
    assert code == 1
    assert "fail" in out and "q^50" in out


def test_verify_negative_control_machine(capsys):
    code, out, _ = run(capsys, "verify", "negative-control", "--order", "60", "--machine")
    assert code == 1
    fields = out.strip().split(",")
    assert fields[2] == "fail" and fields[3] == "50"


@pytest.mark.parametrize("order", ["10", "49"])
def test_verify_negative_control_refuses_orders_below_perturbation(capsys, order):
    # The library's refusal, as for a relation: the CLI adds none of its own.
    code, out, err = run(capsys, "verify", "negative-control", "--order", order)
    assert code == 2 and out == ""
    assert err == (
        "error: negative-control is compared from q^50, so a lower order would compare nothing: "
        f"needs order >= 50 (got {order})\n"
    )


def test_verify_negative_control_fails_at_order_50(capsys):
    code, out, _ = run(capsys, "verify", "negative-control", "--order", "50", "--machine")
    assert code == 1
    fields = out.strip().split(",")
    assert fields[:4] == ["negative-control", "50", "fail", "50"]


def test_verify_unknown_id(capsys):
    # The refusal names every target verify takes, in listing order, then all.
    code, out, err = run(capsys, "verify", "bogus-id")
    valid = qident.registry_ids() + ["cor1", "cor2", "cor3", "cor4", "negative-control", "all"]
    assert (code, out) == (2, "")
    assert err == f"error: unknown identity 'bogus-id'; valid targets: {', '.join(valid)}\n"


def test_verify_relation_with_oracle(capsys):
    code, out, _ = run(capsys, "verify", "cor2", "--oracle", "--order", "25")
    assert code == 0
    assert "cor2" in out and "pass" in out


def test_verify_relation_with_oracle_counts_to_order(capsys):
    code, out, _ = run(capsys, "verify", "cor3", "--oracle", "--order", "60", "--machine")
    assert code == 0 and out.startswith("cor3,60,pass,")


@pytest.mark.parametrize("target", ["ped-eq-4regular", "main-1", "main-2", "main-3", "cor2"])
def test_verify_theorems_with_oracle_build_no_series(capsys, monkeypatch, target):
    def refuse(order):
        raise RuntimeError("verify --oracle built a series")

    monkeypatch.setattr(identities, "FAMILY_SERIES", {f: refuse for f in identities.FAMILY_SERIES})
    code, out, err = run(capsys, "verify", target, "--oracle", "--order", "1000", "--machine")
    assert code == 0 and err == ""
    assert out.startswith(f"{target},1000,pass,,")


@pytest.mark.parametrize("target", list(identities.RELATIONS))
def test_verify_family_statements_without_oracle_count_no_partitions(capsys, monkeypatch, target):
    # Without --oracle every family statement, cor1..cor4 included, is read off the series.
    def refuse(*args):
        raise RuntimeError("verify without --oracle counted part by part")

    monkeypatch.setattr(identities, "count_oracle_table", refuse)
    code, out, err = run(capsys, "verify", target, "--order", "300", "--machine")
    assert code == 0 and err == ""
    assert out.startswith(f"{target},300,pass,,")


@pytest.fixture
def broken_de2(monkeypatch):
    def broken(order):
        raise RuntimeError("family build failed")

    monkeypatch.setattr(identities, "FAMILY_SERIES", dict(identities.FAMILY_SERIES, DE2=broken))


def test_verify_prints_a_failed_build_as_an_error_row(capsys, broken_de2):
    # A side that cannot be built is a report like any other, on stdout, exit 1.
    code, out, err = run(capsys, "verify", "main-2", "--order", "20")
    assert code == 1 and err == ""
    assert out.splitlines() == [
        "id      status  first mismatch",
        "main-2  error   main-2: family build failed",
        "0/1 passed at order 20",
    ]


def test_verify_prints_an_error_text_as_it_is(capsys, monkeypatch):
    # Only the columns before the last are padded, so a reason that ends in a blank keeps it.
    def broken(order):
        raise RuntimeError("failed ")

    monkeypatch.setattr(identities, "FAMILY_SERIES", dict(identities.FAMILY_SERIES, DE2=broken))
    code, out, _ = run(capsys, "verify", "main-2", "--order", "20")
    assert code == 1 and out.splitlines()[1] == "main-2  error   main-2: failed "


def test_verify_machine_keeps_an_error_reason_on_stderr(capsys, broken_de2, monkeypatch):
    # The five-field record stays as it is; the reason goes to stderr, one line per report.
    monkeypatch.setattr(identities, "perf_counter", lambda: 0.0)
    code, out, err = run(capsys, "verify", "main-2", "--order", "20", "--machine")
    assert code == 1
    assert out == "main-2,20,error,,0\n"
    assert err == "main-2: family build failed\n"
    code, out, err = run(capsys, "verify", "all", "--order", "20", "--machine")
    assert code == 1 and len(out.splitlines()) == 37
    assert err == "cor2: family build failed\nmain-2: family build failed\n"


def test_verify_all_reports_failed_builds_and_goes_on(capsys, broken_de2):
    code, out, err = run(capsys, "verify", "all", "--order", "20")
    assert code == 1 and err == ""
    rows = {line.split()[0]: line.split()[1] for line in out.splitlines()[1:-1]}
    assert len(rows) == 37
    assert sorted(i for i, status in rows.items() if status != "pass") == ["cor2", "main-2"]
    assert rows["cor2"] == rows["main-2"] == "error"
    assert out.splitlines()[-1] == "35/37 passed at order 20"


@pytest.mark.parametrize(
    "target", ["help-1", "qbinomial-a0-zq", "asv-spec-1", "negative-control", "all", "bogus-id"]
)
def test_verify_refuses_oracle_outside_relations(capsys, target):
    # Only the statements about family counts have a part-by-part count; the
    # flag must not be a no-op anywhere else.
    code, out, err = run(capsys, "verify", target, "--oracle", "--order", "60", "--machine")
    assert code == 2 and out == ""
    targets = "ped-eq-4regular, main-1, main-2, main-3, cor1, cor2, cor3, cor4"
    assert targets in err and repr(target) in err


@pytest.mark.parametrize(
    "argv, first",
    [
        (["cor1", "--order", "0"], 1),
        (["cor3", "--order", "1"], 2),
        (["cor3", "--oracle", "--order", "1"], 2),
    ],
)
def test_verify_relation_refuses_empty_range(capsys, argv, first):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert f"is compared from q^{first}, so a lower order would compare nothing" in err
    assert f"needs order >= {first} (got {first - 1})" in err


def test_verify_relation_at_its_first_n(capsys):
    code, out, _ = run(capsys, "verify", "cor3", "--order", "2", "--machine")
    assert code == 0
    assert out.split(",")[:4] == ["cor3", "2", "pass", ""]


def test_verify_machine_stable_across_runs(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "all", "--order", "25", "--machine")
        assert code == 0
        # elapsed (last field) is wall-clock and may differ between runs
        outputs.append([line.rsplit(",", 1)[0] for line in out.strip().split("\n")])
    assert outputs[0] == outputs[1]


def test_verify_human_and_machine_agree(capsys):
    human_code, human, _ = run(capsys, "verify", "all", "--order", "25")
    machine_code, machine, _ = run(capsys, "verify", "all", "--order", "25", "--machine")
    assert human_code == machine_code == 0
    machine_fail = any(l.split(",")[2] != "pass" for l in machine.strip().split("\n"))
    assert not machine_fail and " fail " not in human


# -- table --------------------------------------------------------------------------


def test_table_machine(capsys):
    code, out, _ = run(capsys, "table", "10", "--machine")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,DE1,DE2,DE3,b4,c4,DE1(n)+DE1(n-1),DE3(n+2)+DE3(n-1)"
    rows = {int(l.split(",")[0]): l.split(",") for l in lines[1:]}
    assert rows[8][1] == "9" and rows[8][4] == "16" and rows[8][6] == "16"
    assert rows[0][1] == "0" and rows[0][4] == "1"
    assert rows[10][2] == "5" and rows[10][5] == "7"
    assert rows[8][7] == "16"  # DE3(10) + DE3(7) = 11 + 5


def test_table_human(capsys):
    code, out, _ = run(capsys, "table", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split() == list(
        ("n", "DE1", "DE2", "DE3", "b4", "c4", "DE1(n)+DE1(n-1)", "DE3(n+2)+DE3(n-1)")
    )
    assert len(lines) == 6


def test_table_machine_rows_match_brute_force(capsys):
    code, out, _ = run(capsys, "table", "40", "--machine")
    assert code == 0
    header, *lines = out.strip().split("\n")
    assert header == "n,DE1,DE2,DE3,b4,c4,DE1(n)+DE1(n-1),DE3(n+2)+DE3(n-1)"
    assert len(lines) == 41

    def c(family, n):  # the n - 1 terms vanish at n = 0
        return count_oracle(n, FAMILY_SPECS[family]) if n >= 0 else 0

    for n, line in enumerate(lines):
        de1, de2, de3, b4, c4 = (c(f, n) for f in ("DE1", "DE2", "DE3", "regular4", "regular4min2"))
        de1_pair = de1 + c("DE1", n - 1)
        de3_pair = c("DE3", n + 2) + c("DE3", n - 1)
        assert line == ",".join(map(str, (n, de1, de2, de3, b4, c4, de1_pair, de3_pair))), n


def test_table_builds_to_its_own_max_n(capsys):
    code, out, _ = run(capsys, "table", "300", "--machine")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 302
    assert lines[-1].split(",")[:2] == ["300", str(count_oracle_table(300, FAMILY_SPECS["DE1"])[300])]


def test_table_counts_each_family_once(capsys, monkeypatch):
    # One count for all seven columns: DE1 and DE3 each appear in two columns and are built once,
    # DE3 to max_n + 2 for the n + 2 term of its pair.
    builds = []

    def recording(family, build):
        def record(order):
            builds.append((family, order))
            return build(order)

        return record

    monkeypatch.setattr(identities, "FAMILY_SERIES", {f: recording(f, b) for f, b in identities.FAMILY_SERIES.items()})
    code, _, _ = run(capsys, "table", "60")
    assert code == 0
    assert sorted(builds) == [("DE1", 60), ("DE2", 60), ("DE3", 62), ("regular4", 60), ("regular4min2", 60)]


# -- list-identities -------------------------------------------------------------------


def test_list_identities(capsys):
    code, out, _ = run(capsys, "list-identities")
    assert code == 0
    for token in ("ped-eq-4regular", "asv-spec-2", "cor4", "negative-control"):
        assert token in out


def test_list_identities_machine(capsys):
    code, out, _ = run(capsys, "list-identities", "--machine")
    assert code == 0
    lines = out.strip().split("\n")
    assert "main-2" in lines and "cor1" in lines and "negative-control" in lines
    assert all("," not in line for line in lines)  # ids are single tokens


# -- the console script ---------------------------------------------------------


def test_reader_closing_stdout_early_exits_141_without_a_traceback():
    # As `qident table 1500 | head -n 1`: the table is far larger
    # than a pipe buffer, so the write after the reader is gone fails.
    src = str(Path(qident.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qident.cli", "table", "1500"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().split()[:2] == [b"n", b"DE1"]
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")
