"""Batch front door: encode formula families, check refutations, and run
experiment suites with machine-readable reports.

Three subcommands.  ``encode`` writes a family member as DIMACS (CNF
families) or a gate list (circuit families), with an optional
``<index> <name>`` variable-map sidecar: one line per input, in input order,
named by the encoder.  ``check`` verifies a resolution refutation against its
CNF.  ``experiment`` runs a batch suite and emits a JSON report with
per-instance records and aggregate least-squares degree fits.

Exit codes: 0 success/valid, 1 semantic failure (invalid proof, falsified
property), 2 usage or I/O trouble, 3 internal error (a generator whose own
proof fails its check, a search that hits its wall-clock cap).  Identical
invocations produce byte-identical artifacts; reports vary only in the
``generated_at`` and ``wall_clock_s`` fields.  The environment variable
``PROOFBENCH_MAX_SECONDS`` caps each internal search-oracle call (60
seconds when unset).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import random
import re
import sys
import time
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from itertools import chain

from .cfcheck import cf_check
from .cfrege import cf_prove_rfn_res
from .core import (
    Cnf,
    cnf,
    emit_dimacs,
    emit_gates,
    encode_cnf,
    eval_cnf,
    parse_dimacs,
)
from .encoder import (
    PolyBudget,
    PrfLayout,
    am_reduce,
    block_names,
    build_clique_color,
    build_con,
    build_lrfn,
    build_php,
    build_prf,
    build_rfn,
    build_sat,
    build_strongly_friendly,
    code_names,
    map_text,
    strongly_friendly_layout,
)
from .oracle import dpll_refute, dpll_sat, env_max_seconds, min_refutation_length
from .proofgen import encode_witness, line_bound, refute_prf_nontaut
from .resolution import check_refutation, parse_proof


class UsageError(Exception):
    """Bad arguments or unusable input files (exit code 2)."""


# ---------------------------------------------------------------------------
# Small parsers


_POLY_TERM = re.compile(r"^(\d+)?(s(?:\^(\d+))?)?$")


def parse_poly(text: str) -> tuple[int, ...]:
    """``"4s"``, ``"s^2+1"``, ``"3s^3+2s"`` -> ascending coefficients."""
    coeffs: dict[int, int] = {}
    for term in text.replace(" ", "").split("+"):
        mt = _POLY_TERM.match(term)
        if not term or mt is None or (mt.group(1) is None and mt.group(2) is None):
            raise UsageError(f"bad polynomial term {term!r} (examples: 4s, s^2+1)")
        coef = int(mt.group(1)) if mt.group(1) else 1
        deg = int(mt.group(3)) if mt.group(3) else (1 if mt.group(2) else 0)
        coeffs[deg] = coeffs.get(deg, 0) + coef
    top = max(coeffs)
    return tuple(coeffs.get(d, 0) for d in range(top + 1))


def _parse_ladder(text: str) -> list[int]:
    """``"1..3"`` or ``"1,2,3"`` -> [1, 2, 3]; an empty range is refused."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        ladder = list(range(int(lo), int(hi) + 1))
        if not ladder:
            raise UsageError(f"empty ladder {text!r}")
        return ladder
    return [int(x) for x in text.split(",")]


def _read_text(path: str) -> str:
    # newline="" hands the reader the file's own line ends, which it checks
    with open(path, encoding="ascii", newline="") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _read_cnf(path: str) -> Cnf:
    try:
        return parse_dimacs(_read_text(path))
    except ValueError as e:  # keep the reader's line number in the message
        raise UsageError(str(e)) from None


def fit_degree(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log ys against log xs (a degree estimate)."""
    if len(set(xs)) < 2:
        raise ValueError("degree fit needs at least two distinct x values")
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1)) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    den = sum((a - mx) ** 2 for a in lx)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / den


# ---------------------------------------------------------------------------
# encode


def _budget(p: tuple | None, q: tuple | None) -> PolyBudget:
    """``--p`` and ``--q``, each defaulting to :class:`PolyBudget`'s."""
    return PolyBudget(p or PolyBudget.p, q or PolyBudget.q)


def _enc_prf(m: int, n: int | None, k: int | None, f: Cnf | None) -> tuple:
    if f is not None:  # n and k default to the CNF's
        n, k = f.n if n is None else n, len(f.clauses) if k is None else k
    if n is None or k is None:
        raise UsageError("encode prf needs --n and --k, or --cnf")
    art = build_prf(m, n, k, None if f is None else encode_cnf(f, strict=False))
    note = f"prf m={m} n={n} k={k}: {art.formula.n} vars, {len(art.formula.clauses)} clauses"
    return emit_dimacs(art.formula), art.layout.names(), note


def _enc_sat(n: int, k: int) -> tuple:
    text = emit_gates(build_sat(n, k))
    return text, chain(code_names(n, k), block_names("z", n)), f"sat n={n} k={k}"


def _enc_rfn(m: int, n: int, k: int) -> tuple:
    text = emit_gates(build_rfn(m, n, k))
    names = chain(PrfLayout(m, n, k, symbolic=True).names(), block_names("z", n))
    return text, names, f"rfn m={m} n={n} k={k}"


def _enc_lrfn(m: int, f: Cnf) -> tuple:
    text = emit_gates(build_lrfn(f, m))
    names = chain(PrfLayout(m, f.n, f.k).names(), block_names("z", f.n))
    return text, names, f"lrfn m={m} over {f.n} vars, {len(f.clauses)} clauses"


def _enc_con(m: int, n: int) -> tuple:
    return emit_gates(build_con(m, n)), PrfLayout(m, n, 0).names(), f"con m={m} n={n}"


def _enc_am(f: Cnf, p: tuple | None, q: tuple | None) -> tuple:
    art = am_reduce(f, _budget(p, q))
    note = (
        f"am m={art.layout.m} (source {art.params['source_bytes']} bytes): "
        f"{art.formula.n} vars, {len(art.formula.clauses)} clauses"
    )
    return emit_dimacs(art.formula), art.layout.names(), note


def _enc_php(p: int, h: int) -> tuple:
    names = (f"p[{i},{j}]" for i in range(1, p + 1) for j in range(1, h + 1))
    return emit_dimacs(build_php(p, h)), names, f"php {p} pigeons, {h} holes"


def _enc_clique_color(k: int, v: int, out2: str) -> tuple:
    side_a, side_b, edges = build_clique_color(k, v)
    _write_text(out2, emit_dimacs(side_b))
    names = (f"e[{u},{w}]" for u, w in edges)  # edges are numbered in insertion order
    note = f"clique-color k={k} on {v} vertices (shared edge vars in the map)"
    return emit_dimacs(side_a), names, note


def _enc_strongly_friendly(n: int, k: int | None, p: tuple | None, q: tuple | None) -> tuple:
    budget = _budget(p, q)
    k_in, lay = strongly_friendly_layout(n, budget, k)  # refuses sizes it cannot build
    text = emit_gates(build_strongly_friendly(n, budget, k))
    names = chain(lay.names(), code_names(n, k_in), block_names("u", lay.n))
    return text, names, f"strongly-friendly n={n}"


def cmd_encode(args: argparse.Namespace) -> int:
    """Write one family member.  Each ``_enc_*`` returns ``(text, names,
    note)``: the --out text, the input names for --map, and the line printed
    after writing."""
    build, (*values, out, map_path) = _read_options(args, FAMILIES)
    text, names, note = build(*values)
    _write_text(out, text)
    if map_path is not None:
        _write_text(map_path, map_text(names))
    if out != "-":
        print(f"wrote {out}: {note}")
    return 0


# ---------------------------------------------------------------------------
# check


def cmd_check(args: argparse.Namespace) -> int:
    f = parse_dimacs(_read_text(args.cnf))
    proof = parse_proof(_read_text(args.proof), f)
    rep = check_refutation(f, proof, mode=args.mode)
    if rep.ok:
        print(f"valid, {rep.lines} lines")
        return 0
    print(f"invalid at step {rep.step}: {rep.reason}")
    return 1


# ---------------------------------------------------------------------------
# experiment workers (top-level so a process pool can import them)


def _random_cnf(rng: random.Random, max_n: int, max_k: int, max_width: int = 3) -> Cnf:
    nv = rng.randint(1, max_n)
    nc = rng.randint(1, max_k)
    clauses = []
    for _ in range(nc):
        w = rng.randint(1, min(max_width, nv))
        vs = rng.sample(range(1, nv + 1), w)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return cnf(nv, clauses)


def _sample_with_status(rng: random.Random, want: str, max_n: int, max_k: int) -> tuple:
    """Rejection-sample a CNF whose satisfiability status is ``want``:
    ``(f, model)`` for ``sat``, ``(f,)`` for ``unsat``.  An ``exhausted``
    search is no verdict, so that CNF is drawn again."""
    while True:
        f = _random_cnf(rng, max_n, max_k, max_width=2 if want == "unsat" else 3)
        res = dpll_sat(f)
        if res[0] == want:
            return (f,) + res[1:]


def _lrfn_task(task: tuple) -> dict:
    f, a, m = task
    lines = len(refute_prf_nontaut(f, a, m))
    bound = line_bound(m, f.n, f.k)
    return {
        "n": f.n,
        "k": f.k,
        "m": m,
        "lines": lines,
        "bound": bound,
        "valid": True,  # refute_prf_nontaut raises on a proof that fails its check
        "within_bound": lines <= bound,
    }


def _am_task(task: tuple) -> dict:
    f, status, model, budget = task
    art = am_reduce(f, budget)
    m = art.layout.m
    rec: dict = {"status": status, "m": m, "source_n": f.n, "source_k": f.k}
    if status == "sat":
        lines = len(refute_prf_nontaut(f, model, m))  # checked, as in _lrfn_task
        q_bound = budget.eval_q(m)
        rec.update(lines=lines, q_bound=q_bound, valid=True, direction_ok=lines <= q_bound)
    else:
        proof = dpll_refute(f)
        rec["lines"] = len(proof.lines)
        if len(proof.lines) > m:
            rec["direction_ok"] = None  # premise (a <= m-line refutation) fails
        else:
            bits = encode_witness(f, proof, m, art)
            rec["witness_satisfies"] = eval_cnf(art.formula, bits)
            rec["direction_ok"] = rec["witness_satisfies"]
    return rec


def _trend_task(task: tuple) -> dict:
    f, max_lines = task
    art = build_prf(1, f.n, f.k, encode_cnf(f, strict=False))
    rho = art.formula
    rec: dict = {"n": f.n, "vars": rho.n, "clauses": len(rho.clauses)}
    upper = dpll_refute(rho)
    rec["dpll_upper"] = len(upper.lines)
    rec["dpll_valid"] = True  # dpll_refute raises on a proof that fails its check
    res = min_refutation_length(rho, max_lines)
    rec["search"] = res[0]
    if res[0] == "found":
        rec["value"] = res[1]
        rec["valid"] = True  # min_refutation_length raises on a proof that fails its check
    elif res[0] == "none-up-to":
        rec["value"] = res[1] + 1  # certified lower bound
    else:
        rec["value"] = None
    return rec


def _cf_task(task: tuple) -> dict:
    m, n, k = task
    proof = cf_prove_rfn_res(m, n, k, check=False)
    rep = cf_check(proof)
    return {"m": m, "n": n, "k": k, "lines": rep.lines, "valid": rep.ok}


def _run_tasks(fn, tasks: list, workers: int) -> list:
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=1))


# ---------------------------------------------------------------------------
# experiment suites

_Result = tuple[dict, list, dict, bool]  # parameters, records, aggregate, ok


def _exp_lrfn_nontaut(count: int, n: int, k: int, ms: list, seed: int, workers: int) -> _Result:
    if len(ms) >= 2 and len(set(ms)) < 2:
        # the degree fit needs two distinct points; say so before any work
        raise UsageError("--m ladder needs at least two distinct values")
    if n > 3 * min(ms):
        # the sampled CNFs have up to --n variables, and the generator needs n <= 3m
        raise UsageError("--n must be at most 3 times the smallest --m")
    params = {"count": count, "n": n, "k": k, "m": ms, "seed": seed}
    rng = random.Random(seed)
    instances = [_sample_with_status(rng, "sat", n, k) for _ in range(count)]
    tasks = [(f, model, m) for f, model in instances for m in ms]
    records = _run_tasks(_lrfn_task, tasks, workers)
    fits = {}
    if len(ms) >= 2:
        per = [
            fit_degree(
                [float(m) for m in ms],
                [records[i * len(ms) + j]["lines"] for j in range(len(ms))],
            )
            for i in range(count)
        ]
        fits["degree_in_m"] = round(sum(per) / len(per), 3)
    valid = sum(1 for r in records if r["valid"] and r["within_bound"])
    aggregate = {"valid": valid, "total": len(records), "fits": fits}
    ok = valid == len(records) and fits.get("degree_in_m", 0.0) <= 3.0
    return params, records, aggregate, ok


def _exp_am_roundtrip(count: int, n: int, p: tuple, q: tuple, seed: int, workers: int) -> _Result:
    params = {"count": count, "n": n, "p": list(p), "q": list(q), "seed": seed}
    budget = PolyBudget(p, q)  # refuses a degree-0 polynomial before any sampling
    rng = random.Random(seed)
    tasks = []
    for idx in range(count):
        want = "sat" if idx % 2 == 0 else "unsat"
        got = _sample_with_status(rng, want, n, 2 * n)
        f = got[0]
        model = got[1] if want == "sat" else None
        tasks.append((f, want, model, budget))
    records = _run_tasks(_am_task, tasks, workers)
    correct = sum(1 for r in records if r["direction_ok"])
    skipped = sum(1 for r in records if r["direction_ok"] is None)
    aggregate = {
        "direction_correct": correct,
        "not_applicable": skipped,
        "total": len(records),
        "fits": {},
    }
    ok = correct + skipped == len(records)
    return params, records, aggregate, ok


def _unsat_pair_family(n: int) -> Cnf:
    clauses = []
    for i in range(1, n + 1):
        clauses.append([i])
        clauses.append([-i])
    return cnf(n, clauses)


def _exp_lowerbound_trend(ladder: list, budgets: list, workers: int) -> _Result:
    if len(budgets) == 1:
        budgets = budgets * len(ladder)
    if len(budgets) != len(ladder):
        raise UsageError("--max-lines needs one value, or one per ladder point")
    params = {"family": "unsat-pairs", "n": ladder, "max_lines": budgets}
    tasks = [(_unsat_pair_family(n), b) for n, b in zip(ladder, budgets)]
    records = _run_tasks(_trend_task, tasks, workers)
    known = [r["value"] for r in records if r["value"] is not None]
    nondecreasing = all(a <= b for a, b in zip(known, known[1:]))
    aggregate = {
        "values": [r["value"] for r in records],
        "nondecreasing": nondecreasing,
        "fits": {},
    }
    ok = nondecreasing and all(
        r.get("valid", True) and r["dpll_valid"] for r in records
    )
    return params, records, aggregate, ok


# The derivation emits at most this many lines; grid-measured tail slopes
# stay inside the per-axis degrees (2, 2, 1).  See cf_prove_rfn_res.
CF_BOUND_COEFF = 360
CF_DEGREES = {"m": 2, "n": 2, "k": 1}


def _exp_rfn_cf_sizes(top: int, workers: int) -> _Result:
    params = {"max": top}
    grid = [
        (m, n, k)
        for m in range(1, top + 1)
        for n in range(1, top + 1)
        for k in range(1, top + 1)
    ]
    records = _run_tasks(_cf_task, grid, workers)
    sizes = {(r["m"], r["n"], r["k"]): r["lines"] for r in records}
    fits = {}
    if top >= 2:
        axis_points = list(range(max(1, top - 3), top + 1))
        for axis in ("m", "n", "k"):
            pt = lambda v: tuple(v if a == axis else top for a in ("m", "n", "k"))
            fits[f"degree_in_{axis}"] = round(
                fit_degree([float(v) for v in axis_points],
                           [sizes[pt(v)] for v in axis_points]),
                3,
            )
    ratio = max(s / (m * n * (m + n + k)) for (m, n, k), s in sizes.items())
    aggregate = {
        "fits": fits,
        "max_ratio_to_bound_shape": round(ratio, 1),
        "bound": f"lines <= {CF_BOUND_COEFF} * m * n * (m + n + k)",
    }
    ok = (
        all(r["valid"] for r in records)
        and ratio <= CF_BOUND_COEFF
        and all(fits.get(f"degree_in_{a}", 0.0) <= d for a, d in CF_DEGREES.items())
    )
    return params, records, aggregate, ok


# Each family and each suite with the options it reads, in the order its
# function takes them, then the options that say where the output goes.  A
# default of None leaves the option unset; _REQUIRED refuses a run without it.
_REQUIRED = object()
_Opt = namedtuple("_Opt", "name read default positive", defaults=(int, _REQUIRED, False))
_P, _Q = _Opt("p", parse_poly, None), _Opt("q", parse_poly, None)
_OUT = (_Opt("out", str), _Opt("map", str, None))
FAMILIES = {
    "prf": (_enc_prf, (_Opt("m"), _Opt("n", int, None), _Opt("k", int, None),
                       _Opt("cnf", _read_cnf, None), *_OUT)),
    "sat": (_enc_sat, (_Opt("n"), _Opt("k"), *_OUT)),
    "rfn": (_enc_rfn, (_Opt("m"), _Opt("n"), _Opt("k"), *_OUT)),
    "lrfn": (_enc_lrfn, (_Opt("m"), _Opt("cnf", _read_cnf), *_OUT)),
    "con": (_enc_con, (_Opt("m"), _Opt("n"), *_OUT)),
    "am": (_enc_am, (_Opt("cnf", _read_cnf), _P, _Q, *_OUT)),
    "php": (_enc_php, (_Opt("pigeons"), _Opt("holes"), *_OUT)),
    "clique-color": (_enc_clique_color, (_Opt("k"), _Opt("vertices"), _Opt("out2", str), *_OUT)),
    "strongly-friendly": (_enc_strongly_friendly, (_Opt("n"), _Opt("k", int, None), _P, _Q, *_OUT)),
}
_COUNT, _N = _Opt("count", int, "100", True), _Opt("n", int, "6", True)
_SEED, _RUN = _Opt("seed", int, "0"), (_Opt("workers", int, "1", True), _Opt("report", str, None))
EXPERIMENTS = {
    "lrfn-nontaut": (_exp_lrfn_nontaut, (
        _COUNT, _N, _Opt("k", int, "8", True), _Opt("m", _parse_ladder, "32", True), _SEED, *_RUN)),
    "am-roundtrip": (_exp_am_roundtrip, (
        _COUNT, _N, _Opt("p", parse_poly, "s"), _Opt("q", parse_poly, "s^3"), _SEED, *_RUN)),
    "lowerbound-trend": (_exp_lowerbound_trend, (
        _Opt("n", _parse_ladder, "1..3", True), _Opt("max-lines", _parse_ladder, "11,10,10", True),
        *_RUN)),
    "rfn-cf-sizes": (_exp_rfn_cf_sizes, (_Opt("max", int, "3", True), *_RUN)),
}


def _read_options(args: argparse.Namespace, table: dict) -> tuple:
    """The function of the family or suite ``args.name`` and its option
    values: every option is read and range-checked here, before any work."""
    fn, options = table[args.name]
    values = []
    for flag, read, _, positive in options:
        text = getattr(args, flag.replace("-", "_"))
        if text is _REQUIRED:
            raise UsageError(f"{args.command} {args.name} needs --{flag}")
        try:
            value = None if text is None else read(text)
        except ValueError:
            raise UsageError(f"--{flag}: bad value {text!r}") from None
        except UsageError as e:
            raise UsageError(f"--{flag}: {e}") from None
        if positive and min(value if isinstance(value, list) else [value]) < 1:
            raise UsageError(f"--{flag} must be at least 1")
        values.append(value)
    return fn, values


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run one suite and write its JSON report.  Every record carries the
    checker verdict wherever a proof was produced (``valid``, or
    ``dpll_valid`` for auxiliary upper-bound proofs); ``generated_at`` and
    ``wall_clock_s`` are the only fields that differ between identical
    invocations."""
    env_max_seconds()
    suite, (*values, report_path) = _read_options(args, EXPERIMENTS)
    t0 = time.monotonic()
    params, records, aggregate, ok = suite(*values)
    report = {
        "experiment": args.name,
        "parameters": params,
        "records": records,
        "aggregate": aggregate,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "wall_clock_s": round(time.monotonic() - t0, 3),
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if report_path:
        _write_text(report_path, text)
        print(f"{args.name}: {'ok' if ok else 'FAILED'}, report in {report_path}")
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument surface


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="proofbench",
        description="encode, check, and probe reflection-principle formulas",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_leaves(command: str, help: str, table: dict, func) -> None:
        leaves = sub.add_parser(command, help=help).add_subparsers(dest="name", required=True)
        for name, (_, options) in table.items():
            leaf = leaves.add_parser(name, allow_abbrev=False)  # --max is not --max-lines
            for flag, _, default, _ in options:
                hint = "required" if default is _REQUIRED else default and f"default {default}"
                leaf.add_argument(f"--{flag}", default=default, help=hint)
            leaf.set_defaults(func=func, parser=leaf)

    add_leaves("encode", "write a formula-family member to disk", FAMILIES, cmd_encode)
    chk = sub.add_parser("check", help="verify a resolution refutation")
    chk.add_argument("--cnf", required=True)
    chk.add_argument("--proof", required=True)
    chk.add_argument("--mode", choices=("strict", "weakening"), default="strict")
    chk.set_defaults(func=cmd_check, parser=chk)
    add_leaves("experiment", "run a batch suite, emit a JSON report", EXPERIMENTS, cmd_experiment)
    return top


def main(argv: list[str] | None = None) -> int:
    args, unread = build_parser().parse_known_args(argv)
    if unread:  # name the family or suite, not the top-level parser
        args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (RuntimeError, TimeoutError) as e:
        # TimeoutError is an OSError, so it must be caught first
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
