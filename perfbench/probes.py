"""Direct timings of single layers and of fresh interpreters.

Every traced run times the series kernel and the family builders on their
own at orders 200 and 600, and also CLI start-up and the cost of
`verify all` beyond the library call.  Kernel operands are drawn
from the seed: dense coefficients in -9..9, and a constant term of +1 or -1
where the series is inverted.  Every timed result is compared with a
reference from reference.py, computed before the timing starts.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from functools import partial
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

from qident import FAMILY_SERIES, QMonomial, TruncatedSeries, poch_infinite, verify_all

import reference
from ledger import Ledger

SIZES = (200, 600)
BINOMIAL_EXPONENTS = range(1, 9)  # 1 - q^e for small e: the dense-quotient case the sums hit most
REPEATS = 7
GF_REPEATS = 3
CLI_REPEATS = 3
OVERHEAD_REPEATS = 2

Call = Tuple[Callable[[], TruncatedSeries], List[int]]


def time_calls(label: str, calls: Sequence[Call], repeats: int, ledger: Ledger) -> float:
    """Median over repeats of the mean seconds per call; every result checked."""
    per_call = []
    for _ in range(repeats):
        start = perf_counter()
        results = [fn() for fn, _ in calls]
        took = perf_counter() - start
        per_call.append(took / len(calls))
        for result, (_, want) in zip(results, calls):
            ledger.check(label, list(result.coeffs) == want)
        ledger.calibrate(after=took)
    return statistics.median(per_call)


def series_probe(rng, ledger: Ledger) -> Dict[str, float]:
    metrics = {}
    for n in SIZES:
        a = [rng.randint(-9, 9) for _ in range(n + 1)]
        b = [rng.randint(-9, 9) for _ in range(n + 1)]
        u = [rng.choice((1, -1))] + b[1:]
        sa, sb, su = TruncatedSeries(a), TruncatedSeries(b), TruncatedSeries(u)
        binomials = [(e, TruncatedSeries.one(n) - TruncatedSeries.monomial(1, e, n)) for e in BINOMIAL_EXPONENTS]
        kernels = {
            "construct_us": (1e6, [(partial(TruncatedSeries, a), a)] * 50),
            "add_ms": (1e3, [(partial(sa.__add__, sb), [x + y for x, y in zip(a, b)])] * 20),
            "mul_dense_ms": (1e3, [(partial(sa.__mul__, sb), reference.convolve(a, b, n))]),
            "invert_dense_ms": (1e3, [(su.invert, reference.inverse(u, n))]),
            "mul_binomial_ms": (
                1e3,
                [(partial(sa.__mul__, f), reference.times_binomial(a, e)) for e, f in binomials],
            ),
            "div_binomial_ms": (
                1e3,
                [(lambda f=f: sa * f.invert(), reference.over_binomial(a, e)) for e, f in binomials],
            ),
            "poch_infinite_ms": (1e3, [(partial(poch_infinite, QMonomial(1, 1), 1, n), reference.euler(n))]),
        }
        for name, (scale, calls) in kernels.items():
            label = f"series.{name}.n{n}"
            metrics[label] = scale * time_calls(label, calls, REPEATS, ledger)
    return metrics


def family_probe(ledger: Ledger) -> Dict[str, float]:
    refs = reference.family_counts(max(SIZES))
    metrics = {}
    for family, build in FAMILY_SERIES.items():
        for n in SIZES:
            label = f"partitions.gf_{family}_ms.n{n}"
            calls = [(partial(build, n), refs[family][: n + 1])]
            metrics[label] = 1e3 * time_calls(label, calls, GF_REPEATS, ledger)
    return metrics


def exited_0(proc) -> bool:
    return proc.returncode == 0


def spawn_ms(ctx, argv: List[str], ok, repeats: int, ledger: Ledger, label: str) -> float:
    """Median wall time in ms of a fresh interpreter running argv; each run checked."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ctx.root, env=ctx.env, capture_output=True, text=True, timeout=120
        )
        times.append(1e3 * (perf_counter() - start))
        ledger.check(label, ok(proc))
        ledger.calibrate_spawn()
    return statistics.median(times)


def cli_probe(ctx, ledger: Ledger) -> Dict[str, float]:
    """CLI start-up, and what `verify all` costs beyond the library call: the
    medians of OVERHEAD_REPEATS of each, alternated."""
    cases = len(ctx.target_lines) - 1  # every target but the negative control
    verify_all_argv = ["-m", "qident.cli", "verify", "all", "--order", "200", "--machine"]

    def verify_all_ok(proc):
        lines = proc.stdout.splitlines()
        return exited_0(proc) and len(lines) == cases and all(",pass," in line for line in lines)

    in_process, subprocess_ms = [], []
    for _ in range(OVERHEAD_REPEATS):
        start = perf_counter()
        reports = verify_all(200)
        took = perf_counter() - start
        in_process.append(1e3 * took)
        ledger.check("verify_all(200)", len(reports) == cases and all(r.passed for r in reports))
        ledger.calibrate(after=took)
        subprocess_ms.append(spawn_ms(ctx, verify_all_argv, verify_all_ok, 1, ledger, "verify all"))
    return {
        "cli.startup_ms": spawn_ms(
            ctx,
            ["-m", "qident.cli", "--help"],
            lambda p: exited_0(p) and p.stdout.startswith("usage: qident"),
            5,
            ledger,
            "startup",
        ),
        "cli.verify_all_overhead_ms": statistics.median(subprocess_ms) - statistics.median(in_process),
    }
