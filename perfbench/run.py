"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload prf-roundtrip --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from anywhere; it imports the program from ``src/`` beside this
directory and nothing else.  A run repeats whole rounds of its workload's
operations until ``--seconds`` have passed.  With ``--trace 0`` the last
line of standard output holds the end-to-end metrics; with ``--trace 1``
the rounds alternate between untraced and traced, and it holds the
per-layer metrics of the traced rounds and the tracing overhead, and the
spans are written to ``perfbench/runs/``.  Progress, failed operations and
failed checks go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "runs"
SETUPS_PER_GAP = 2  # set-up processes timed before each round and after the last
WORKLOAD_NAMES = ("prf-roundtrip", "rfn-frege", "oracle-certify")
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "proof_lines": "lines",
    "proof_bytes": "bytes",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_program() -> None:
    """Put ``src/`` first on the path and insist that ``proofbench`` comes
    from there, so a checkout without the program fails instead of
    measuring some other copy."""
    init = SRC / "proofbench" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"run.py: no program source at {init.parent}")
    sys.path.insert(0, str(SRC))
    import proofbench

    if Path(proofbench.__file__).resolve() != init.resolve():
        raise SystemExit(f"run.py: proofbench was imported from {proofbench.__file__}")


def time_setup(args: argparse.Namespace) -> list[float]:
    """Wall times of fresh processes that start, import the program, make
    this run's inputs and exit."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    times = []
    for _ in range(SETUPS_PER_GAP):
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_workload(args: argparse.Namespace) -> dict:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    if args.setup_only:
        return {}
    setups: list[float] = []  # interleaved with the rounds, so no one moment sets them
    plain: list = []
    traced: list = []  # (round, tracer)
    spent = 0.0  # in rounds, set-up processes excluded
    while True:
        if not args.trace:
            setups += time_setup(args)
        gc.collect()  # every round starts without the previous one's garbage
        t0 = time.perf_counter()
        if args.trace and len(traced) < len(plain):
            tracer = tracing.Tracer()
            r = workloads.Round(tracer)
            with tracing.instrument(tracer):
                workload.round(r, inputs)
            traced.append((r, tracer))
        else:
            r = workloads.Round()
            workload.round(r, inputs)
            plain.append(r)
        spent += time.perf_counter() - t0
        print(
            f"{args.workload} round {len(plain) + len(traced)}"
            f"{' (traced)' if r.tracer else ''}: {r.wall:.3f} s timed, "
            f"{r.attempted} operations, {r.failed} failed",
            file=sys.stderr,
        )
        if spent >= args.seconds and (traced or not args.trace):
            break

    if not args.trace:
        setups += time_setup(args)
    rounds = plain + [r for r, _ in traced]
    errors = [e for r in rounds for e in r.errors]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    wall = statistics.median(r.wall for r in plain)
    if args.trace:
        per_round = [tracing.layer_metrics(t.spans) for _, t in traced]
        values = {name: statistics.median(m[name] for m in per_round) for name, _ in tracing.LAYER_METRICS}
        traced_wall = statistics.median(r.wall for r, _ in traced)
        values["trace.overhead_pct"] = 100.0 * (traced_wall / wall - 1.0)
        units = dict(tracing.LAYER_METRICS)
        write_spans(args, traced)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "proof_lines": statistics.median(r.lines for r in plain),
            "proof_bytes": statistics.median(r.bytes for r in plain),
        }
        units = END_TO_END_UNITS
    return {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def write_spans(args: argparse.Namespace, traced: list) -> None:
    RUNS.mkdir(exist_ok=True)
    path = RUNS / f"{args.workload}-seed{args.seed}.spans.jsonl"
    with path.open("w") as out:
        for idx, (_, tracer) in enumerate(traced):
            for s in tracer.spans:
                out.write(json.dumps({
                    "round": idx, "op": s.op, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "counts": s.counts,
                }) + "\n")


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in a fresh process, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True, timeout=600)
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        res = results[name]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
              file=sys.stderr)
        for metric, v in res["metrics"].items():
            print(f"  {metric:42s} {v['value']:>16.6g} {v['unit']}", file=sys.stderr)
    return results


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    load_program()
    result = run_workload(args)
    if args.setup_only:
        return 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
