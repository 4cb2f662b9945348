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
    ("src/qident/series.py", "cs[e] -= sign  #", "cs[e] += sign  #", "binomial_quotient's own term of a multiplied factor flipped"),
    ("src/qident/series.py", "[sign**i for i in range(1, j)]", "[sign for i in range(1, j)]", "a divisor's multiples below lo all get sign, not sign**j"),
    ("src/qident/series.py", "cs[j * e] += sign**j", "cs[j * e] = sign**j", "a divisor's first multiple at or above lo overwritten, not added to"),
    ("src/qident/series.py", "if e < room:", "if e < room - 1:", "ratio_sum's room test skips a factor that still acts"),
    ("src/qident/series.py", "if e < room:", "if e <= room:", "ratio_sum's room test runs a pass that changes nothing"),
    ("src/qident/series.py", "_factors([(*pair, m) for pair in den], order, True)", "_factors([(*pair, m) for pair in den], order, False)", "ratio_sum's denominator pairs not checked as divisors"),
    ("src/qident/series.py", "types.count(int) != len(types)", "False", "the constructor's coefficient type test dropped"),
    ("src/qident/series.py", "a, b = self.coeffs[: n + 1], other.coeffs[: n + 1]", "a, b = self.coeffs[:n], other.coeffs[:n]", "first_mismatch's fast path misses the last coefficient"),
    # -- the one argument rule
    ("src/qident/series.py", "value < least", "value <= least", "check_int refuses its own least"),
    ("src/qident/partitions.py", 'check_int("up_to", up_to, 0)', 'check_int("up_to", up_to)', "count_oracle_table takes a negative bound"),
    # -- the part-by-part counts
    ("src/qident/partitions.py", "range(up_to, k - 1, -1) if", "range(k, up_to + 1) if", "the knapsack's descending pass: an even part repeats"),
    ("src/qident/partitions.py", '"at_least_two": (1, -1)', '"at_least_two": (1, 0)', "the knapsack's at_least_two weight without its subtraction"),
    ("src/qident/partitions.py", "k - 1 if spec.distinct_even and k % 2 == 0 else k", "k", "the walks let an even part repeat"),
    ("src/qident/partitions.py", "total += is_part[r]", "total += 0", "count_oracle's part-r-alone leaf dropped"),
    # -- the statements and the comparison
    ("src/qident/identities.py", "(1, 1), (2, -1)", "(1, 1), (2, 1)", "main-3's q^2 correction flipped"),
    ("src/qident/identities.py", "values = [0] * first_n + values[first_n:]", "values = values[:]", "a relation's sides not zeroed below its first n"),
    ("src/qident/identities.py", "lhs, rhs = (side.truncate(order) for side in sides())", "lhs, rhs = sides()", "_compare does not truncate: a short side is compared, not refused"),
    ("src/qident/identities.py", "- first + 1", "+ 1", "_compare's checked count not offset by the first n"),
    ("src/qident/identities.py", "order < first", "order < first - 1", "the range check off by one: an order that compares nothing passes"),
    ("src/qident/identities.py", "monomial(1, exponent, order)", "monomial(1, exponent + 1, order)", "the negative control perturbs the wrong exponent"),
    ("src/qident/cli.py", "return 0 if all(r.passed for r in reports) else 1", "return 0", "cmd_verify exits 0 on a failed check"),
    # -- equivalent: listed so the argument is kept, not gated
    ("src/qident/series.py", "cs[es[n]] = 1", "cs[es[n]] += 1", "ratio_sum's write of the 1"),
    ("src/qident/series.py", "factors.sort(reverse=True)", "factors.sort(key=lambda f: f[0], reverse=True)", "binomial_quotient's order ignores the sign"),
]

# why -> the argument that the mutant cannot change any result.
EQUIVALENT = {
    "ratio_sum's write of the 1": "cs[es[n]] is always 0 before the write, as every pass acts on cs[es[n+1]:] only",
    "binomial_quotient's order ignores the sign": "factors with equal exponent commute, so their order among themselves is free",
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
