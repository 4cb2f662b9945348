"""The mutation gate: every mutant below must make the tier-1 tests fail.

Run from anywhere as ``python tests/mutants.py``.  The script copies the
tree to a temporary directory, checks that the tests pass there unchanged,
then applies one mutant at a time, runs ``python -m pytest -x -q -p
no:cacheprovider`` under ``PYTHONDONTWRITEBYTECODE=1`` and restores the file.
It exits non-zero if the copy's own tests fail, if a mutant's ``old`` text
does not occur exactly once, or if a mutant that is not marked equivalent
survives.  A survivor calls for a new test, not an entry in EQUIVALENT.

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, old, new, why): old must occur exactly once in the file.
MUTANTS = [
    # -- the binomial kernel
    ("src/qident/series.py", "map(sub if sign == 1 else add", "map(add if sign == 1 else sub", "_mul_pass's sign flipped"),
    ("src/qident/series.py", "map(add if sign == 1 else sub", "map(sub if sign == 1 else add", "_div_pass's sign flipped"),
    ("src/qident/series.py", "cs[e] -= sign * cs[0]", "cs[e] += sign * cs[0]", "the product loop's own term of a multiplied factor flipped"),
    ("src/qident/series.py", "cs[e] -= sign * cs[0]", "cs[e] -= sign", "a multiplied factor's own term taken on 1, not on the head cs[0]"),
    ("src/qident/series.py", "cycle((sign, 1))", "cycle((sign,))", "a divisor's own terms all sign, not sign**j"),
    ("src/qident/series.py", "lo = min(step, top + 1)", "lo = min(step + 1, top + 1)", "the product loop starts a sum's T_0 one past its zero prefix"),
    ("src/qident/series.py", "if 0 < e < lo:\n            lo = e", "lo = e", "the product loop sets lo to a factor above it, not only lowers it"),
    ("src/qident/series.py", "if 0 < e < lo:", "if e < lo:", "a unit factor lowers lo to 0, so the next one scales the head twice"),
    ("src/qident/series.py", "if e < room:", "if e < room - 1:", "ratio_sum's room test skips a factor that still acts"),
    ("src/qident/series.py", "if e < room:", "if e <= room:", "ratio_sum's room test runs a pass that changes nothing"),
    ("src/qident/series.py", "_factors([(*pair, m) for pair in den], order, True)", "_factors([(*pair, m) for pair in den], order, False)", "ratio_sum's denominator pairs not checked as divisors"),
    ("src/qident/series.py", "types.count(int) != len(types)", "False", "the constructor's coefficient type test dropped"),
    ("src/qident/series.py", "@dataclass(frozen=True, slots=True)", "@dataclass(slots=True)", "TruncatedSeries not frozen: assignable and unhashable"),
    ("src/qident/series.py", "a, b = self.coeffs[: n + 1], other.coeffs[: n + 1]", "a, b = self.coeffs[:n], other.coeffs[:n]", "first_mismatch's fast path misses the last coefficient"),
    # -- the one argument rule
    ("src/qident/series.py", "value < least", "value <= least", "check_int refuses its own least"),
    ("src/qident/series.py", "type(value) is not kind", "not isinstance(value, kind)", "check_type takes a subclass, so True is an int"),
    # _combine and __mul__ share the refusal, so the mutant is anchored on _combine's return after it.
    ("src/qident/series.py", "return NotImplemented\n        return TruncatedSeries(list(map(", "other = TruncatedSeries([other], self.order)\n        return TruncatedSeries(list(map(", "_combine takes an int as the constant series"),
    ("src/qident/partitions.py", 'check_int("up_to", up_to, 0)', 'check_int("up_to", up_to)', "count_oracle_table takes a negative bound"),
    ("src/qident/partitions.py", 'check_int("n", n, 0)', 'check_int("n", n)', "_plan takes a negative n, so both walks do"),
    ("src/qident/partitions.py", "self.largest not in LARGEST_RULES", "False", "ConstraintSpec takes an unknown largest rule"),
    ("src/qident/series.py", 'check_int("shift", k)\n', "", "QMonomial.shifted takes True as a shift of 1"),
    ("src/qident/identities.py", 'check_type("case", case, IdentityCase)\n', "", "verify takes a non-case and fails inside it"),
    ("src/qident/identities.py", 'check_int("shift", shift)\n', "", "side_values takes True as a shift of 1"),
    ("src/qident/identities.py", "if family not in FAMILY_SPECS:", "if False:", "side_values builds the families before it meets an unknown one"),
    ("src/qident/identities.py", "zip(zeros, *(", "zip(*(", "side_values returns no values for a side with no terms"),
    ("src/qident/identities.py", "[0] * min(-s, order + 1)", "[0] * -s", "side_values pads a negative shift with |shift| zeros, not at most order + 1"),
    ("src/qident/identities.py", 'check_type("term", term, tuple)  #', "#", "side_values takes a flat term list and fails to unpack a family name"),
    ("src/qident/identities.py", "if len(term) != 2:", "if False:", "side_values takes a term of the wrong length and fails to unpack it"),
    ("src/qident/identities.py", 'check_type("case_id", case_id, str)\n', "", "find_case takes a non-str id and returns None"),
    ("src/qident/identities.py", 'check_type("kind", kind, str)  #', "#", "verify_relation takes a list and fails its lookup as unhashable"),
    ("src/qident/cli.py", "except ValueError", "except KeyError", "main lets the library's refusal escape as a traceback"),
    # -- the product builders at depth
    ("src/qident/partitions.py", "(QMonomial(-1, 2), 2, None)", "(QMonomial(-1, 2), 2, 1250)", "gf_ped's numerator cut to 1250 factors, short from q^2502"),
    # -- the part-by-part counts
    ("src/qident/partitions.py", "range(up_to, k - 1, -1) if", "range(k, up_to + 1) if", "the knapsack's descending pass: an even part repeats"),
    ("src/qident/partitions.py", '"odd_exactly_one": (1, -1)', '"odd_exactly_one": (1, 0)', "the knapsack's exactly_one weight without its subtraction"),
    ("src/qident/partitions.py", '"any": (1, 0), "odd": (1, 0)', '"any": (1, 0), "odd": (0, 1)', "the knapsack's odd weight counts only a largest part that appears twice"),
    ("src/qident/partitions.py", "two * table[n - 2 * k]", "two * table[n - k]", "the knapsack's at-least-two read takes one k off, not two"),
    ("src/qident/partitions.py", "if n >= 2 * k else 0", "if True else 0", "the knapsack's at-least-two read unguarded: below 2k it wraps to the end of the table"),
    ("src/qident/partitions.py", "k - 1 if spec.distinct_even and k % 2 == 0 else k", "k", "the walks let an even part repeat"),
    ("src/qident/partitions.py", "near[r] + is_part[r]", "near[r] + 0", "count_oracle's part-r-alone leaf dropped"),
    ("src/qident/partitions.py", "total, m = full[r] if r <= c else near[r],", "total, m = near[r],", "a node adds near where full applies: its part r alone dropped"),
    ("src/qident/partitions.py", "total += full[r2] if r2 <= after else near[r2]", "total += near[r2]", "the child level adds near where full applies"),
    ("src/qident/partitions.py", "m2 = after", "m2 = r2 - lo - 1", "a child with r2 - lo over its cap descends past the cap"),
    ("src/qident/partitions.py", "(tails(budget, cap) if cap >= lo else 0)", "tails(budget, cap)", "a head with a cap below lo is walked and counts its run of lo"),
    ("src/qident/partitions.py", "    del tails  #", "    #", "count_oracle leaves the walk's self-reference for the cycle collector"),
    ("src/qident/partitions.py", "for j in accumulate(is_part)]", "for j in [0, *accumulate(is_part)]]", "below[m] leaves out the part m itself"),
    ("src/qident/partitions.py", "if m > lo:\n            for k, after", "if True:\n            for k, after", "count_oracle descends at a negative m, reading below from its far end"),
    ("src/qident/partitions.py", "heads = [((), n, n)]", "heads = [((), n, n - 1)]", "a spec with no largest-part rule loses the partition of n into one part"),
    ("src/qident/partitions.py", "r > lo and run[lo] and", "r > lo and", "count_oracle closes r - lo with a lo that cannot be a part"),
    ("src/qident/partitions.py", "if k % 2 == 1 and (", "if (", "an odd-largest spec takes an even largest part"),
    ("src/qident/partitions.py", '{"odd": (1, 0)', '{"odd": (1, 1)', "a free odd largest part may not repeat"),
    ("src/qident/partitions.py", '"odd_at_least_two": (2, 0)', '"odd_at_least_two": (1, 0)', "an at-least-two head holds its largest part once"),
    ("src/qident/partitions.py", '"odd_at_least_two": (2, 0)', '"odd_at_least_two": (2, 1)', "an at-least-two head bars a third copy of its largest part"),
    ("src/qident/partitions.py", '"odd_exactly_one": (1, 1)', '"odd_exactly_one": (1, 0)', "an exactly-one largest part may repeat"),
    ("src/qident/partitions.py", "range(n // copies", "range(n", "a head larger than n is listed with a negative budget"),
    # -- the statements and the comparison
    ("src/qident/identities.py", "(0, 1, -1)", "(0, 1, 1)", "main-3's q^2 correction flipped"),
    ("src/qident/identities.py", "if self.mismatch is not None and self.error is not None:", "if False:", "a report takes both a mismatch and an error"),
    ("src/qident/identities.py", '"error" if self.error is not None else "fail" if self.mismatch is not None else "pass"', '"pass" if self.mismatch is None else "error" if self.error is not None else "fail"', "status tests the mismatch before the error, so an error report reads pass"),
    ("src/qident/identities.py", "TruncatedSeries(correction, order)", "TruncatedSeries(correction[:1], order)", "a correction cut to its constant term: main-3's q and q^2 dropped"),
    ("src/qident/identities.py", "(0,) * case.first + side.coeffs[case.first :]", "side.coeffs", "verify compares the sides below a case's first n"),
    ("src/qident/identities.py", "lhs, rhs = case.lhs(order).truncate(order), case.rhs(order).truncate(order)", "lhs, rhs = case.lhs(order), case.rhs(order)", "verify does not truncate: a short side is compared, not refused"),
    ("src/qident/identities.py", "- case.first + 1", "+ 1", "verify's checked count not offset by the first n"),
    ("src/qident/identities.py", "order < case.first", "order < case.first - 1", "the range check off by one: an order that compares nothing passes"),
    ("src/qident/identities.py", "first=first_n,", "first=0,", "_family_case compares a relation from n = 0"),
    ("src/qident/identities.py", "1 + 2 * finite_start", "1 + finite_start", "_help_case's term ratio without its difference of squares"),
    ("src/qident/identities.py", "    for case in cases:\n        _check_range(case, order)\n", "", "verify_all builds before its range pre-check"),
    ("src/qident/identities.py", "monomial(1, exponent, order)", "monomial(1, exponent + 1, order)", "the negative control perturbs the wrong exponent"),
    ("src/qident/identities.py", "        first=exponent,\n", "", "the negative control compared from q^0: below its exponent it passes vacuously"),
    ("src/qident/identities.py", "kind not in _CASES_BY_ID", "kind in _CASES_BY_ID", "RELATION_KINDS lists the registry's relations, not the others"),
    ("src/qident/identities.py", "if use_oracle else find_case(kind)", "if use_oracle else _family_case(kind, RELATIONS[kind].statement)", "verify_relation builds a new series case, not find_case's"),
    ("src/qident/identities.py", "_CASES_BY_ID.update((kind, _family_case(kind, RELATIONS[kind].statement)) for kind in RELATION_KINDS)\n", "", "find_case does not find cor1..cor4"),
    ("src/qident/cli.py", "    if oracle:  #", "    if True:  #", "verify counts part by part without --oracle"),
    ("src/qident/cli.py", " + [negative_control()]", "", "the CLI's target list drops the negative control"),
    ("src/qident/cli.py", "round(r.elapsed * 1000)", "round(r.elapsed)", "the --machine record gives elapsed in seconds, not milliseconds"),
    ("src/qident/cli.py", "return 0 if all(r.passed for r in reports) else 1", "return 0", "cmd_verify exits 0 on a failed check"),
    ("src/qident/cli.py", "columns = side_values([terms for _, terms in TABLE_COLUMNS], max_n)", "columns = [side_values([terms], max_n)[0] for _, terms in TABLE_COLUMNS]", "cmd_table counts once per column, building DE1 and DE3 twice"),
    ("src/qident/cli.py", "print(\"  \".join(map(align, row, widths)))", "print(\"  \".join(map(align, row, widths)).rstrip())", "_print_rows strips every row, so an error text loses its last blank"),
    ("src/qident/cli.py", "if align is str.ljust:\n        widths[-1] = 0\n", "", "_print_rows pads a left-aligned last column: listings gain trailing blanks"),
    # -- equivalent: listed so the argument is kept, not gated
    ("src/qident/series.py", "cs[es[n]] = 1", "cs[es[n]] += 1", "ratio_sum's write of the 1"),
    ("src/qident/series.py", "factors.sort(reverse=True)", "factors.sort(key=lambda f: f[0], reverse=True)", "the product loop's order ignores the sign"),
    ("src/qident/partitions.py", "if m2 > lo:\n", "if True:\n", "count_oracle's child level loops over below[m2] for m2 <= lo"),
]

# why -> the argument that the mutant cannot change any result.
EQUIVALENT = {
    "ratio_sum's write of the 1": "cs[es[n]] is always 0 before the write, as every pass acts on cs[es[n+1]:] only",
    "the product loop's order ignores the sign": "factors with equal exponent commute: each is applied exactly by the one rule whatever lo is, and the unit factors still sort after every divisor",
    "count_oracle's child level loops over below[m2] for m2 <= lo": "a child has r2 > lo and a cap of at least lo, so m2 >= 0 and below[m2] is empty; the guard only saves the empty loop",
}


def _run_tests(tree: Path) -> bool:
    # PYTHONPATH points at the copy, so neither an installed qident nor a CLI subprocess runs the unmutated tree.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=600)
    except subprocess.TimeoutExpired:
        return False  # a mutant that hangs the suite is caught too
    return proc.returncode == 0


def main() -> int:
    texts = {}
    for file, old, _, why in MUTANTS:
        text = texts.setdefault(file, (ROOT / file).read_text())
        if text.count(old) != 1:
            print(f"mutant {why!r}: {old!r} occurs {text.count(old)} times in {file}, not once")
            return 2
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", "*.egg-info")
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=ignore)
        if not _run_tests(tree):
            print("the tests fail on the unmutated copy; no mutant was run")
            return 2
        survivors = []
        for file, old, new, why in MUTANTS:
            path = tree / file
            path.write_text(texts[file].replace(old, new))
            start = time.perf_counter()
            survived = _run_tests(tree)
            path.write_text(texts[file])
            if survived and why in EQUIVALENT:
                outcome = f"survived, equivalent: {EQUIVALENT[why]}"
            elif survived:
                outcome = "SURVIVED"
                survivors.append(why)
            else:
                outcome = "killed"
            print(f"{time.perf_counter() - start:6.1f} s  {file}: {why}: {outcome}", flush=True)
    print(f"{len(MUTANTS)} mutants, {len(survivors)} real survivors")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
