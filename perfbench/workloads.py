"""The benchmark's three workloads.

Each workload has a ``setup(seed)`` that makes its inputs and a
``round(r, inputs)`` that runs one fixed set of operations on them.  Every
call into the program goes through :meth:`Round.call`, which times it;
the checks against :mod:`reference` stay outside the timed section.  An
operation that gets no answer from the program (an exhausted search
budget, an exception) counts as failed; a wrong answer makes the run
incorrect.
"""

from __future__ import annotations

import itertools
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import reference as ref
from proofbench import cfrege, core, encoder, oracle, proofgen, resolution


class NoAnswer(Exception):
    """The program gave up on an operation instead of answering it."""


class Round:
    """Timing, operation counts, proof sizes and failed checks of one round."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.lines = 0
        self.bytes = 0
        self.errors: list[str] = []

    def call(self, fn: Callable, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.wall += time.perf_counter() - t0

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)

    def proof(self, lines: int, text: str) -> None:
        """Count a proof the round produced, checked and serialized."""
        self.lines += lines
        self.bytes += len(text.encode())

    @contextmanager
    def op(self, label: str):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = label
        try:
            yield
        except Exception as e:  # one operation's failure must not end the run
            self.failed += 1
            print(f"operation {label!r} failed: {type(e).__name__}: {e}", file=sys.stderr)


def _verified(r: Round, f: core.Cnf, proof, mode: str, what: str) -> None:
    reason = ref.verify_refutation(f.clauses, f.n, proof.lines, mode)
    r.check(reason is None, f"{what}: {reason}")


def _random_clause(rng: random.Random, n: int, width: int) -> list[int]:
    return [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), width)]


def _planted_source(rng: random.Random, n: int, k: int, width: int) -> tuple[core.Cnf, tuple]:
    """A satisfiable ``k``-clause CNF over ``n`` variables, with the
    satisfying assignment the reference picks for it.  The CNF is built
    around a planted assignment with ``n // 2`` ones, so the balanced
    assignment the reference picks has that many ones too."""
    planted = [0] * n
    for v in rng.sample(range(n), n // 2):
        planted[v] = 1
    clauses: list[list[int]] = []
    while len(clauses) < k:
        cl = _random_clause(rng, n, width)
        if ref.clause_true(cl, planted):
            clauses.append(cl)
    return core.cnf(n, clauses), ref.balanced_model(n, clauses)


# ---------------------------------------------------------------------------
# prf-roundtrip

SAT_SHAPE = (6, 8, 3)  # n, k, clause width of the satisfiable sources
M_LADDER = (16, 32, 52)
# Unsatisfiable sources: 6 two-literal clauses over 3 variables with six
# negative literals, so their DIMACS text has 52 bytes and the am-roundtrip
# budget p(s) = s gives m = 52.
UNSAT_SHAPE = (3, 6, 2, 6)  # n, k, clause width, negative literals
AM_BUDGET = encoder.PolyBudget(p=(0, 1), q=(0, 0, 0, 1))
AM_LINES = 52


@dataclass
class RoundtripInputs:
    sat: core.Cnf
    model: tuple
    unsat: core.Cnf


def _unsat_source(rng: random.Random) -> core.Cnf:
    n, k, width, negatives = UNSAT_SHAPE
    while True:
        clauses = [_random_clause(rng, n, width) for _ in range(k)]
        if sum(lit < 0 for cl in clauses for lit in cl) == negatives and not ref.models(n, clauses):
            return core.cnf(n, clauses)


def roundtrip_setup(seed: int) -> RoundtripInputs:
    rng = random.Random(seed)
    f, model = _planted_source(rng, *SAT_SHAPE)
    return RoundtripInputs(f, model, _unsat_source(rng))


def roundtrip_round(r: Round, inp: RoundtripInputs) -> None:
    f, a = inp.sat, inp.model
    n, k = f.n, f.k
    code = r.call(core.encode_cnf, f, strict=False)
    for m in M_LADDER:
        with r.op(f"sat source, m={m}"):
            art = r.call(encoder.build_prf, m, n, k, code)
            proof = r.call(proofgen.refute_prf_nontaut, f, a, m)
            rep = r.call(resolution.check_refutation, art.formula, proof, "weakening")
            dimacs = r.call(core.emit_dimacs, art.formula)
            text = r.call(resolution.emit_proof, proof)
            g = r.call(core.parse_dimacs, dimacs)
            back = r.call(resolution.parse_proof, text, g)
            rep2 = r.call(resolution.check_refutation, g, back, "weakening")
            where = f"prf({m},{n},{k})"
            r.check(rep.ok and rep2.ok, f"{where}: program check rejects the refutation")
            r.check(art.formula.n == m * (3 * n + k + m), f"{where}: wrong variable count")
            r.check(len(proof) <= 10 * m * m * (m + n + k), f"{where}: refutation over its line bound")
            r.check(g == art.formula, f"{where}: DIMACS round trip changed the CNF")
            r.check(back.lines == proof.lines, f"{where}: proof text round trip changed the proof")
            _verified(r, art.formula, proof, "weakening", f"{where} refutation")
            r.proof(len(proof), text)
            del art, proof, dimacs, text, g, back

    f = inp.unsat
    with r.op("unsat source, am-roundtrip"):
        art = r.call(encoder.am_reduce, f, AM_BUDGET)
        m = art.layout.m
        proof = r.call(oracle.dpll_refute, f)
        bits = r.call(proofgen.encode_witness, f, proof, m, art)
        holds = r.call(core.eval_cnf, art.formula, bits)
        decoded = r.call(encoder.decode_prf_assignment, art, bits)
        r.check(m == AM_LINES, f"am_reduce gave m={m}, expected {AM_LINES}")
        r.check(art.formula.n == m * (3 * f.n + f.k + m), "am-roundtrip: wrong variable count")
        _verified(r, f, proof, "strict", "DPLL refutation of the source")
        r.check(len(proof) <= m, "DPLL refutation does not fit in m lines")
        r.check(holds, "program evaluator rejects the witness")
        r.check(
            ref.first_false_clause(art.formula.clauses, bits) is None,
            "witness falsifies a prf clause",
        )
        r.proof(len(proof), r.call(resolution.emit_proof, proof))
        r.check(decoded is not None, "a satisfying witness does not decode")
        if decoded is not None:
            _verified(r, f, decoded, "weakening", "decoded proof")
            r.proof(len(decoded), r.call(resolution.emit_proof, decoded))


# ---------------------------------------------------------------------------
# rfn-frege

CF_GRID = ((2, 2, 2), (3, 3, 3), (6, 6, 6))
# Seeded CNFs localized at the small grid points, by their (m, n, k).
LRFN_POINTS = ((2, 2, 2), (2, 2, 2), (3, 3, 3))
SAMPLED_ASSIGNMENTS = 64


@dataclass
class FregeInputs:
    columns: dict  # (m, n, k) -> packed random assignments to the rfn inputs
    local: list  # ((m, n, k), CNF, packed random assignments to the lrfn inputs)


def _rfn_inputs(m: int, n: int, k: int) -> int:
    return m * (3 * n + k + m) + 2 * n * k + n


def frege_setup(seed: int) -> FregeInputs:
    rng = random.Random(seed)
    local = []
    for m, n, k in LRFN_POINTS:
        f = _planted_source(rng, n, k, 2)[0]
        width = m * (3 * n + k + m) + n
        local.append(((m, n, k), f, ref.random_inputs(rng, width, SAMPLED_ASSIGNMENTS)))
    columns = {
        pt: ref.random_inputs(rng, _rfn_inputs(*pt), SAMPLED_ASSIGNMENTS) for pt in CF_GRID
    }
    return FregeInputs(columns, local)


def _lines_hold(r: Round, proof, columns, what: str) -> None:
    nodes = [node for node, _ in proof.lines]
    bad = ref.first_false_line(proof.arena.nodes, nodes, columns, SAMPLED_ASSIGNMENTS)
    r.check(bad is None, f"{what}: line {bad} is false under a sampled assignment")


def frege_round(r: Round, inp: FregeInputs) -> None:
    for m, n, k in CF_GRID:
        where = f"rfn({m},{n},{k})"
        proof = None
        with r.op(where):
            proof = r.call(cfrege.cf_prove_rfn_res, m, n, k, check=False)
            rep = r.call(cfrege.cf_check, proof)
            text = r.call(cfrege.cf_serialize, proof)
            target = r.call(encoder.build_rfn, m, n, k)
            last = r.call(proof.last_circuit)
            r.check(rep.ok, f"{where}: cf_check rejects the proof: {rep.reason}")
            r.check(last == target, f"{where}: last circuit is not build_rfn")
            r.check(len(proof) <= 360 * m * n * (m + n + k), f"{where}: proof over its line bound")
            _lines_hold(r, proof, inp.columns[(m, n, k)], where)
            r.proof(len(proof), text)
            del text, target, last
        for pt, f, columns in inp.local:
            if pt != (m, n, k):
                continue
            label = f"lrfn({m},{n},{k})"
            with r.op(label):
                if proof is None:
                    raise NoAnswer("no reflection proof to localize")
                local = r.call(cfrege.lrfn_from_rfn, proof, f)
                target = r.call(encoder.build_lrfn, f, m)
                text = r.call(cfrege.cf_serialize, local)
                last = r.call(local.last_circuit)
                r.check(last == target, f"{label}: last circuit is not build_lrfn")
                _lines_hold(r, local, columns, label)
                r.proof(len(local), text)
        del proof


# ---------------------------------------------------------------------------
# oracle-certify

# Criterion 5: one-line prf instances of the unsatisfiable pairs
# x_1..x_n, -x_1..-x_n, with the line limits searched at each n.
MIN_LADDER = ((1, (10, 11)), (2, (10,)), (3, (10,)))
MIN_BUDGET = oracle.SearchBudget(max_nodes=200_000_000, max_seconds=150)
# Small unsatisfiable prf(m, n, k, code(F)) instances for seeded
# satisfiable F with two-literal clauses.
SMALL_PRF = ((2, 2, 2), (2, 2, 2), (2, 3, 3), (2, 3, 3))
# The kept failing operation: dpll_sat on prf(4, 3, 3, code(F0)) under a
# node budget of three times the 6,427 nodes dpll_refute needs on it.
STUCK_SOURCE = ((1, 2), (-1, 3), (-2, -3))
STUCK_M = 4
STUCK_BUDGET = oracle.SearchBudget(max_nodes=3 * 6427, max_seconds=150)
TAUT_MAX_INPUTS = 22
EXHAUSTIVE_MAX_INPUTS = 16


@dataclass
class OracleInputs:
    pairs: list  # (n, CNF, limits)
    small: list  # (m, CNF)
    stuck: core.Cnf
    taut: list  # (label, encoder function name, args, inputs)


def _all_cnfs(n: int, k: int):
    """Every CNF with ``k`` clauses over ``n`` variables in which each
    variable occurs at most once per clause (criterion 6's codes)."""
    for signs in itertools.product((0, 1, -1), repeat=n * k):
        clauses = [
            [s * (i + 1) for i, s in enumerate(signs[l * n:(l + 1) * n]) if s]
            for l in range(k)
        ]
        yield core.cnf(n, clauses)


def oracle_setup(seed: int) -> OracleInputs:
    rng = random.Random(seed)
    pairs = [
        (n, core.cnf(n, [[i] for i in range(1, n + 1)] + [[-i] for i in range(1, n + 1)]), limits)
        for n, limits in MIN_LADDER
    ]
    small = [(m, _planted_source(rng, n, k, 2)[0]) for m, n, k in SMALL_PRF]
    taut = []
    for m, n, k in itertools.product((1, 2), repeat=3):
        taut.append((f"rfn({m},{n},{k})", "build_rfn", (m, n, k), _rfn_inputs(m, n, k)))
    for m, n in itertools.product((1, 2), repeat=2):
        taut.append((f"con({m},{n})", "build_con", (m, n), m * (3 * n + m)))
    for m, n, k in itertools.product((1, 2), (1, 2), (0, 1, 2)):
        for f in _all_cnfs(n, k):
            taut.append((f"lrfn({m},{n},{k})", "build_lrfn", (f, m), m * (3 * n + k + m) + n))
    taut = [t for t in taut if t[3] <= TAUT_MAX_INPUTS]
    rng.shuffle(taut)
    return OracleInputs(pairs, small, core.cnf(3, STUCK_SOURCE), taut)


def _prf_of(r: Round, m: int, f: core.Cnf):
    return r.call(encoder.build_prf, m, f.n, f.k, core.encode_cnf(f, strict=False)).formula


def _refute(r: Round, g: core.Cnf, what: str):
    """dpll_refute on an unsatisfiable ``g``, checked by the program and by
    the reference, serialized and counted."""
    proof = r.call(oracle.dpll_refute, g)
    rep = r.call(resolution.check_refutation, g, proof, "strict")
    text = r.call(resolution.emit_proof, proof)
    r.check(rep.ok, f"{what}: program check rejects the DPLL refutation")
    _verified(r, g, proof, "strict", f"{what} DPLL refutation")
    r.proof(len(proof), text)
    return proof


def _unsat_verdict(r: Round, g: core.Cnf, ans: tuple, what: str) -> None:
    """``g`` has a verified refutation; so ``unsat`` is the only right answer."""
    if ans[0] == "exhausted":
        raise NoAnswer(f"{what}: dpll_sat exhausted its budget")
    r.check(ans == ("unsat",), f"{what}: dpll_sat answers {ans[0]} on an unsatisfiable CNF")


def oracle_round(r: Round, inp: OracleInputs) -> None:
    for n, f, limits in inp.pairs:
        where = f"unsat pairs n={n}"
        with r.op(where):
            rho = _prf_of(r, 1, f)
            upper = len(_refute(r, rho, where))
            answers = {}
            for limit in limits:
                res = r.call(oracle.min_refutation_length, rho, limit, budget=MIN_BUDGET)
                answers[limit] = res
                if res[0] == "exhausted":
                    raise NoAnswer(f"{where}: search exhausted at limit {limit}")
                if res[0] == "satisfiable":
                    r.check(False, f"{where}: search calls a refuted CNF satisfiable")
                elif res[0] == "found":
                    length, witness = res[1], res[2]
                    r.check(len(witness) == length <= limit, f"{where}: witness length")
                    r.check(length <= upper, f"{where}: minimum above a DPLL refutation")
                    for mode in ("strict", "weakening"):
                        _verified(r, rho, witness, mode, f"{where} minimal witness")
                    r.proof(len(witness), r.call(resolution.emit_proof, witness))
                else:
                    r.check(res == ("none-up-to", limit), f"{where}: answer {res!r}")
                    r.check(limit + 1 <= upper, f"{where}: lower bound above a DPLL refutation")
            low, high = min(limits), max(limits)
            if high == low + 1:
                r.check(
                    answers[low][0] == "none-up-to" and answers[high][:2] == ("found", high),
                    f"{where}: none-up-to {low} and found {high} disagree",
                )

    for m, f in inp.small:
        where = f"prf({m},{f.n},{f.k}) of a satisfiable source"
        with r.op(where):
            g = _prf_of(r, m, f)
            ans = r.call(oracle.dpll_sat, g)
            _refute(r, g, where)
            _unsat_verdict(r, g, ans, where)

    f = inp.stuck
    where = f"prf({STUCK_M},{f.n},{f.k}) of F0"
    with r.op(f"dpll_refute on {where}"):
        g = _prf_of(r, STUCK_M, f)
        _refute(r, g, where)
    with r.op(f"dpll_sat on {where}, {STUCK_BUDGET.max_nodes} nodes"):
        ans = r.call(oracle.dpll_sat, g, STUCK_BUDGET)
        _unsat_verdict(r, g, ans, where)

    for label, build, args, _ in inp.taut:
        with r.op(label):
            c = r.call(getattr(encoder, build), *args)
            ans = r.call(oracle.is_tautology, c)
            r.check(ans == ("yes",), f"{label}: is_tautology answers {ans!r}")
            if c.n_vars <= EXHAUSTIVE_MAX_INPUTS:
                r.check(ref.valid_everywhere(c.gates, c.n_vars), f"{label}: false somewhere")


@dataclass(frozen=True)
class Workload:
    setup: Callable
    round: Callable


WORKLOADS = {
    "prf-roundtrip": Workload(roundtrip_setup, roundtrip_round),
    "rfn-frege": Workload(frege_setup, frege_round),
    "oracle-certify": Workload(oracle_setup, oracle_round),
}
