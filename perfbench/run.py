"""qident benchmark: one workload per run, closed loop, one caller.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-200 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics listed in BENCHMARK.json; with
``--trace 1`` they are the per-layer metrics.  ``--workload all`` runs every
workload in turn, each in a fresh process, and prints one table.  The
program is the package under ``src/`` of the checkout; without it the run
exits with code 2 and prints no result.  README.md in this directory says
why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
COUNTS_FILE = ROOT / ".perfbench-counts.json"  # exact counts per source tree and workload
SETUP_SPAWNS = 9
TAIL_BEYOND = 10  # the tail is the highest percentile with at least this many operations above it
SETUP_CODE = "import qident; qident.registry()"
TIME_UNITS = ("s", "ms", "us")  # reported at reference-machine speed; see ledger.py


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_pass(make_ops, ctx, order_rng, ledger, latencies, tracer=None) -> float:
    """One pass in seeded order; returns its wall time in seconds."""
    start = perf_counter()
    calibrating = 0.0
    ops = make_ops(ctx, tracer)
    order_rng.shuffle(ops)
    for op in ops:
        t0 = perf_counter()
        try:
            result = op.run() if tracer is None else tracer.call(f"op.{op.kind}.{op.group}", op.run, op.value)
        except Exception as exc:  # a failed operation is counted, never retried
            result = exc
        latencies.append(perf_counter() - t0)
        ledger.check(op.name, passes_check(op, result))
        calibrating += ledger.calibrate_spawn() if op.kind == "cli" else ledger.calibrate(after=latencies[-1])
    return perf_counter() - start - calibrating


def passes_check(op, result) -> bool:
    if isinstance(result, Exception):
        print(f"operation {op.name} raised {result!r}", file=sys.stderr)
        return False
    try:
        return bool(op.check(result))
    except (IndexError, AttributeError, TypeError) as exc:  # output too malformed to inspect
        print(f"operation {op.name} returned output the check could not read: {exc!r}", file=sys.stderr)
        return False


def traced_pass(make_ops, ctx, order_rng, ledger):
    """One traced pass: its per-layer times, exact counts and wall seconds."""
    from tracing import Tracer, instrumented, summarize

    tracer = Tracer()
    with instrumented(tracer):
        seconds = run_pass(make_ops, ctx, order_rng, ledger, [], tracer)
    times, counts = summarize(tracer)
    return times, counts, seconds


def medians(dicts: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(d[key] for d in dicts if key in d) for key in set().union(*dicts)}


def check_counts(counts: List[Dict[str, int]], workload: str, ledger) -> Dict[str, int]:
    """Exact counts must repeat in every traced pass, and across runs of the same source."""
    ledger.check("counts repeat across passes", all(c == counts[0] for c in counts))
    key = f"{source_digest()}/{workload}"
    try:
        known = json.loads(COUNTS_FILE.read_text())
    except (OSError, ValueError):
        known = {}
    if key in known:
        ledger.check("counts repeat across runs", known[key] == counts[0])
    else:
        known[key] = counts[0]
        tmp = COUNTS_FILE.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, COUNTS_FILE)
    return counts[0]


def layer_metrics(workload, ctx, args, wanted, order_rng, operand_rng, ledger, info) -> Dict[str, float]:
    """Every per-layer metric: the workload's own spans, then probes for the rest."""
    import probes
    from workloads import WORKLOADS, cli_ops, oracle_count_ops

    untraced, traced = [], []
    start = perf_counter()
    while len(untraced) + len(traced) < workload.min_passes or perf_counter() - start < args.seconds:
        if len(untraced) <= len(traced):
            untraced.append(run_pass(workload.ops, ctx, order_rng, ledger, []))
        else:
            traced.append(traced_pass(workload.ops, ctx, order_rng, ledger))
    metrics = medians([t[0] for t in traced])
    metrics.update(check_counts([t[1] for t in traced], workload.name, ledger))
    metrics["trace.pass_s"] = statistics.median(t[2] for t in traced)
    metrics["trace.overhead_ms"] = 1e3 * (metrics["trace.pass_s"] - statistics.median(untraced))
    spans_from_workload = set(metrics)

    # Layers this workload does not run are timed by probes, so that every
    # per-layer figure is a measurement.
    metrics.update(probes.series_probe(operand_rng, ledger))
    metrics.update(probes.family_probe(ledger))
    probe_passes = {
        "identities.": (WORKLOADS["sweep-200"].ops, 1),
        "partitions.oracle": (lambda c, _tracer: oracle_count_ops(c), 1),
        "cli.cmd_ms.": (cli_ops, probes.CLI_REPEATS),
    }
    for prefix, (make_ops, repeats) in probe_passes.items():
        if any(name.startswith(prefix) and name not in metrics for name in wanted):
            times = medians([traced_pass(make_ops, ctx, order_rng, ledger)[0] for _ in range(repeats)])
            for key, value in times.items():
                metrics.setdefault(key, value)

    metrics.update(probes.cli_probe(ctx, ledger))
    info["samples"] = {"untraced_passes": len(untraced), "traced_passes": len(traced)}
    info["from_workload_spans"] = sorted(spans_from_workload)
    return metrics


def end_to_end_metrics(workload, ctx, args, order_rng, ledger, info) -> Dict[str, float]:
    from probes import exited_0, spawn_ms

    spawn_ms(ctx, ["-c", SETUP_CODE], exited_0, 1, ledger, "setup warm-up")  # writes bytecode caches
    setup_ms = spawn_ms(ctx, ["-c", SETUP_CODE], exited_0, SETUP_SPAWNS, ledger, "setup")
    latencies: List[float] = []
    passes: List[float] = []
    start = perf_counter()
    while len(passes) < workload.min_passes or perf_counter() - start < args.seconds:
        passes.append(run_pass(workload.ops, ctx, order_rng, ledger, latencies))
    ordered = sorted(latencies)
    n = len(ordered)
    tail_rank = max(n - TAIL_BEYOND, 1)  # 1-based rank with TAIL_BEYOND operations above it
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    info["samples"] = {
        "setup_s": SETUP_SPAWNS,
        "pass_s": len(passes),
        "operations": n,
        "op_ms_tail_percentile": 100.0 * tail_rank / n,
    }
    return {
        "setup_s": setup_ms / 1e3,
        "pass_s": statistics.median(passes),
        "op_ms_p50": 1e3 * statistics.median(ordered),
        "op_ms_tail": 1e3 * ordered[tail_rank - 1],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def in_fresh_processes(name: str, workload) -> bool:
    """Whether a metric times work in fresh processes, which the spawn unit
    calibrates, rather than work in this one."""
    if name in ("setup_s", "cli.startup_ms") or name.startswith("cli.cmd_ms."):
        return True
    return not workload.in_process and (name in ("pass_s", "op_ms_p50", "op_ms_tail") or name.startswith("trace."))


def run_workload(args) -> int:
    import qident
    from ledger import Ledger
    from workloads import WORKLOADS, Context

    if not Path(qident.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported qident from {qident.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    ctx = Context.prepare(ROOT, env)
    order_rng = random.Random(f"order-{args.seed}")
    operand_rng = random.Random(f"operands-{args.seed}")
    ledger = Ledger()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }
    if args.trace:
        values = layer_metrics(workload, ctx, args, [m["name"] for m in wanted], order_rng, operand_rng, ledger, info)
    else:
        values = end_to_end_metrics(workload, ctx, args, order_rng, ledger, info)
    info["failed_frac"] = ledger.failed / ledger.attempted
    if ledger.failures:
        print("failed checks: " + ", ".join(sorted(set(ledger.failures))), file=sys.stderr)

    def scale(name: str, unit: str) -> float:
        if unit not in TIME_UNITS:
            return 1  # counts stay integers
        return ledger.spawn_scale if in_fresh_processes(name, workload) else ledger.scale

    metrics = {m["name"]: {"value": values[m["name"]] * scale(m["name"], m["unit"]), "unit": m["unit"]} for m in wanted}
    info["calibration"] = {
        "units": len(ledger.unit_seconds),
        "scale": ledger.scale,
        "spawns": len(ledger.spawn_seconds),
        "spawn_scale": ledger.spawn_scale,
    }
    info["wall"] = {m["name"]: values[m["name"]] for m in wanted if m["unit"] in TIME_UNITS}
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"{'failed_frac':<40} {info['failed_frac']:>14.6g} ({ledger.failed}/{ledger.attempted})")
    print("info " + json.dumps(info, sort_keys=True))
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process; one table at the end."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    for name, res in results.items():
        print(f"== {name}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<40} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'failed_frac':<40} {res['failed'] / res['attempted']:>14.6g} ({res['failed']}/{res['attempted']})")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qident" / "__init__.py").is_file():
        print(f"error: no qident package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
