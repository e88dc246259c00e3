"""ratsys benchmark: seeded workloads, checked outputs, end-to-end and
per-layer metrics.

One run, as the metric contract in BENCHMARK.json defines it:

    python3 bench/run.py --workload classify-sweep --seed 1 --seconds 15 --trace 0

builds the workload's round of operations from the seed, then repeats whole
rounds in this one single-threaded process, one operation at a time, for
--seconds. Every output is checked against reference.py. With --trace 0
the last stdout line holds the end-to-end metrics; with --trace 1 it runs
one round untraced and one round traced and holds the per-layer metrics,
and the line before it reports the tracing overhead.

Every workload, several seeds, written as a result set for compare.py:

    python3 bench/run.py --workload all --runs 10 --trace 1 --out set.json

The source tree is the one next to this directory (src/ratsys); without
it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"

COLD_STARTS = 7  # fresh interpreters per run at least; setup_s is their median
ROUND_OPS = 110  # at least: op_p90_ms then has ten operations above it
MIN_ROUNDS = 3  # at least: each operation's time is its best of the rounds
TRACE_ROUNDS = 3  # plain and traced rounds of a traced run, alternating
COLD_START_CODE = "import ratsys, ratsys.cli; ratsys.cli.build_parser()"


def cold_start() -> float:
    """Wall time of a fresh interpreter that imports ratsys and builds the CLI
    parser, the cost every ratsys invocation pays before any work."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", COLD_START_CODE], cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    return time.perf_counter() - start


def execute(op) -> tuple:
    """(op, seconds, items, error) for one call; error None on success."""
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:
        return op, time.perf_counter() - start, 0, type(exc).__name__
    elapsed = time.perf_counter() - start
    try:
        return op, elapsed, op.check(result), None
    except workloads.CheckFailed as exc:
        return op, elapsed, 0, f"CheckFailed: {exc}"
    except (ValueError, KeyError, IndexError) as exc:
        return op, elapsed, 0, f"CheckFailed: unreadable output: {exc!r}"


def run_rounds(ops, seconds: float, tracer=None,
               between=None) -> list:
    """Whole rounds until seconds have passed and MIN_ROUNDS ran; seconds <= 0
    runs exactly one round. between() runs after every round."""
    records = []
    gc.collect()
    start = time.perf_counter()
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op_id += 1
            records.append(execute(op))
        if between is not None:
            between()
        if seconds <= 0 or (time.perf_counter() - start >= seconds
                            and len(records) >= MIN_ROUNDS * len(ops)):
            return records


def failures(records, known_error: str) -> tuple[list, bool]:
    """Failed operations grouped by label and error, and whether every one of
    them is a known-fault operation failing in the known way."""
    groups: dict = {}
    for op, _, _, error in records:
        if error is not None:
            key = (op.label, error, op.known_fault)
            groups[key] = groups.get(key, 0) + 1
    rows = [{"op": label, "error": error, "count": count,
             "known_fault": known}
            for (label, error, known), count in groups.items()]
    only_known = all(r["known_fault"] and r["error"] == known_error for r in rows)
    return rows, only_known


def best_times(records, per_round: int) -> list[float]:
    """Each operation's best wall time over the rounds of the run.

    The host this was built on switches, for seconds at a time, between
    speeds up to 1.7x apart; a run's median then depends on how long it spent
    in each, while the best of several rounds finds the fast state.
    """
    rounds = len(records) // per_round
    return [min(records[r * per_round + k][1] for r in range(rounds))
            for k in range(per_round)]


def end_to_end(records, per_round: int) -> dict[str, float]:
    """items_per_s is the items of a round over the summed best times of
    every operation, failed ones included; the percentiles are over the
    operations' best times."""
    rounds = len(records) // per_round
    best = best_times(records, per_round)
    deciles = statistics.quantiles(best, n=10)
    return {
        "items_per_s": sum(r[2] for r in records) / rounds / sum(best),
        "op_p50_ms": statistics.median(best) * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    spec = json.loads(SPEC.read_text())
    sys.path.insert(0, str(SRC))
    import ratsys
    import ratsys.cli  # noqa: F401  (the CLI module is not imported by ratsys)

    wl = workloads.build(name, seed, ratsys)
    if len(wl.ops) < ROUND_OPS:
        raise SystemExit(f"{name}: {len(wl.ops)} operations per round, "
                         f"need {ROUND_OPS}")
    detail = {"workload": name, "seed": seed, "input_digest": wl.digest,
              "ops_per_round": len(wl.ops),
              "known_fault": workloads.KNOWN_FAULT}
    if trace:
        # Plain and traced rounds alternate, so both meet the same states of
        # the host; the overhead compares their best times per operation.
        tracer = spans.Tracer()
        plain, traced = [], []
        for _ in range(TRACE_ROUNDS):
            plain += run_rounds(wl.ops, 0)
            tracer.install(ratsys)
            try:
                traced += run_rounds(wl.ops, 0, tracer)
            finally:
                tracer.remove()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{name}-{seed}.csv")
        detail["trace_overhead"] = (sum(best_times(traced, len(wl.ops)))
                                    / sum(best_times(plain, len(wl.ops))) - 1)
        layer = tracer.metrics()
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        records = plain + traced
    else:
        # cold starts alternate with the rounds, so they meet the same
        # states of the host as the operations do
        cold_start()  # byte-compiles the package once
        starts = []
        records = run_rounds(wl.ops, seconds,
                             between=lambda: starts.append(cold_start()))
        starts += [cold_start() for _ in range(COLD_STARTS - len(starts))]
        values = end_to_end(records, len(wl.ops)) | {
            "setup_s": statistics.median(starts)}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    failed, only_known = failures(records, "OverflowError")
    detail.update(rounds=len(records) // len(wl.ops), failures=failed)
    print(json.dumps(detail))
    print(json.dumps({"correct": only_known, "attempted": len(records),
                      "failed": sum(r["count"] for r in failed),
                      "metrics": metrics}))
    return 0


def run_all(seed: int, runs: int, seconds: float, trace: bool,
            out: str | None) -> int:
    """Every workload in its own process: runs untraced runs on seeds
    seed .. seed+runs-1, then one traced run; prints a summary."""
    spec = json.loads(SPEC.read_text())
    result_set = {"seconds": seconds, "workloads": {}}
    ok = True
    for wl in spec["workloads"]:
        name = wl["name"]
        entry = result_set["workloads"][name] = {"runs": [], "traced": None}
        plan = [(seed + i, 0) for i in range(runs)] + ([(seed, 1)] if trace else [])
        for run_seed, traced in plan:
            cmd = [sys.executable, str(Path(__file__)), "--workload", name,
                   "--seed", str(run_seed), "--seconds", str(seconds),
                   "--trace", str(traced)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} seed {run_seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                return 1
            record = {"seed": run_seed, "detail": json.loads(lines[-2]),
                      "result": json.loads(lines[-1])}
            ok &= record["result"]["correct"]
            if traced:
                entry["traced"] = record
            else:
                entry["runs"].append(record)
        print_summary(name, entry)
    if out:
        Path(out).write_text(json.dumps(result_set, indent=1) + "\n")
    return 0 if ok else 1


def print_summary(name: str, entry: dict) -> None:
    runs = entry["runs"]
    if runs:
        first = runs[0]["result"]
        print(f"== {name}: {len(runs)} run(s), attempted "
              f"{[r['result']['attempted'] for r in runs]}, failed "
              f"{[r['result']['failed'] for r in runs]}, correct "
              f"{all(r['result']['correct'] for r in runs)}")
        for metric, m in first["metrics"].items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            spread = ""
            if len(values) >= 2:
                q1, q2, q3 = statistics.quantiles(values, n=4)
                spread = f"  quartiles {q1:.6g} .. {q3:.6g} ({(q3 - q1) / q2:.1%})"
            print(f"  {metric:<14} {statistics.median(values):>12.6g} "
                  f"{m['unit']:<8}{spread}")
    traced = entry["traced"]
    if traced:
        d, r = traced["detail"], traced["result"]
        print(f"  traced run: seed {traced['seed']}, attempted {r['attempted']}, "
              f"failed {r['failed']}, tracing overhead "
              f"{d['trace_overhead']:.1%}")
        for metric, m in r["metrics"].items():
            print(f"    {metric:<40} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name from BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="with --workload all: untraced runs per workload")
    parser.add_argument("--out", help="with --workload all: result-set file")
    args = parser.parse_args(argv)
    if not (SRC / "ratsys" / "__init__.py").is_file():
        print(f"error: no ratsys source tree at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.runs, args.seconds, bool(args.trace),
                       args.out)
    names = [w["name"] for w in json.loads(SPEC.read_text())["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
