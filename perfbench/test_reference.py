"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest perfbench -q

Each reference check must reject what it exists to reject: a mutated
proof, a false circuit, a wrong verdict.
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest

import reference as ref
import run
import tracing
import workloads
from proofbench import cfrege, core, encoder, oracle, proofgen, resolution

PHP = core.cnf(2, [[1], [2], [-1, -2]])


def _dpll_lines():
    return list(oracle.dpll_refute(PHP).lines)


# ---------------------------------------------------------------------------
# Resolution verifier


def test_verifier_accepts_program_refutations():
    assert ref.verify_refutation(PHP.clauses, PHP.n, _dpll_lines(), "strict") is None
    f = core.cnf(3, [[1, 2], [-1, 3], [-2, -3]])
    m = 3
    proof = proofgen.refute_prf_nontaut(f, (1, 0, 1), m)
    g = encoder.build_prf(m, f.n, f.k, core.encode_cnf(f, strict=False)).formula
    assert ref.verify_refutation(g.clauses, g.n, proof.lines, "weakening") is None


def _mutations(lines):
    """Single-line corruptions of a strict refutation, each of which breaks it."""
    last = len(lines) - 1
    res = next(t for t, (_, j) in enumerate(lines) if j[0] == "R")
    clause, (_, j1, j2, v) = lines[res]
    yield "dropped line", lines[:-1]
    yield "axiom index out of range", [(lines[0][0], ("A", 99))] + lines[1:]
    yield "wrong pivot", lines[:res] + [(clause, ("R", j1, j2, v % PHP.n + 1))] + lines[res + 1:]
    yield "swapped premises", lines[:res] + [(clause, ("R", j2, j1, v))] + lines[res + 1:]
    yield "forward premise", lines[:res] + [(clause, ("R", res, j2, v))] + lines[res + 1:]
    yield "unknown rule", lines[:res] + [(clause, ("W", j1))] + lines[res + 1:]
    yield "empty justification", lines[:res] + [(clause, ())] + lines[res + 1:]
    yield "literal out of range", lines[:res] + [(clause | {7}, lines[res][1])] + lines[res + 1:]
    yield "non-empty last line", lines[:last] + [(frozenset([1]), lines[last][1])]
    yield "not a pair", lines[:res] + [clause] + lines[res + 1:]


@pytest.mark.parametrize("mode", ["strict", "weakening"])
def test_verifier_rejects_mutated_proofs(mode):
    lines = _dpll_lines()
    for what, bad in _mutations(lines):
        assert ref.verify_refutation(PHP.clauses, PHP.n, bad, mode) is not None, what


def test_verifier_rejects_resolution_without_a_clash():
    # Line 2 "resolves" line 0 with itself on x1; the result is line 0 again,
    # so only the clash test catches it.
    f = core.cnf(1, [[1], [-1]])
    lines = [
        (frozenset([1]), ("A", 0)),
        (frozenset([-1]), ("A", 1)),
        (frozenset([1]), ("R", 0, 0, 1)),
        (frozenset(), ("R", 2, 1, 1)),
    ]
    for mode in ("strict", "weakening"):
        assert ref.verify_refutation(f.clauses, f.n, lines, mode) is not None
    assert ref.verify_refutation(f.clauses, f.n, lines[:2] + [(frozenset(), ("R", 0, 1, 1))], "strict") is None


def test_strict_mode_rejects_weakened_lines():
    f = core.cnf(2, [[1, 2]])
    proof = proofgen.refute_prf_nontaut(f, (1, 0), 3)
    g = encoder.build_prf(3, f.n, f.k, core.encode_cnf(f, strict=False)).formula
    assert ref.verify_refutation(g.clauses, g.n, proof.lines, "weakening") is None
    assert ref.verify_refutation(g.clauses, g.n, proof.lines, "strict") is not None


# ---------------------------------------------------------------------------
# Circuit evaluator


def test_evaluator_separates_tautologies_from_false_circuits():
    b = core.CircuitBuilder(2)
    x, y = b.var(1), b.var(2)
    excluded_middle = b.build(b.or_(x, b.not_(x)))
    peirce = b.build(b.imp(b.imp(b.imp(x, y), x), x))
    converse = b.build(b.imp(b.imp(x, y), b.imp(y, x)))
    assert ref.valid_everywhere(excluded_middle.gates, 2)
    assert ref.valid_everywhere(peirce.gates, 2)
    assert not ref.valid_everywhere(converse.gates, 2)
    assert not ref.valid_everywhere(b.build(b.and_(x, y)).gates, 2)


def test_evaluator_matches_program_on_random_circuits():
    rng = random.Random(3)
    for _ in range(50):
        b = core.CircuitBuilder(4)
        ops = [b.and_, b.or_, b.imp, lambda g, h: b.not_(g)]
        nodes = [b.var(i) for i in range(1, 5)]
        for _ in range(12):
            nodes.append(rng.choice(ops)(rng.choice(nodes), rng.choice(nodes)))
        c = b.build(nodes[-1])
        table = ref.eval_gates(c.gates, ref.exhaustive_inputs(4), 16)[-1]
        for a in range(16):
            bits = [(a >> i) & 1 for i in range(4)]
            assert bool(table >> a & 1) == core.eval_circuit(c, bits)


def test_evaluator_rejects_forward_references():
    with pytest.raises(ValueError):
        ref.eval_gates([("var", 1), ("and", 0, 2), ("var", 2)], [1, 1], 1)


def test_line_check_finds_a_false_frege_line():
    proof = cfrege.cf_prove_rfn_res(1, 1, 1, check=False)
    n_vars = proof.arena.n_vars
    cols = ref.random_inputs(random.Random(5), n_vars, 64)
    nodes = [node for node, _ in proof.lines]
    assert ref.first_false_line(proof.arena.nodes, nodes, cols, 64) is None
    falsum = proof.arena.and_(proof.arena.var(1), proof.arena.not_(proof.arena.var(1)))
    nodes[3] = falsum
    assert ref.first_false_line(proof.arena.nodes, nodes, cols, 64) == 3


# ---------------------------------------------------------------------------
# Brute-force satisfiability


def test_brute_force_verdicts():
    assert ref.models(PHP.n, PHP.clauses) == []
    f = [[1, 2], [-1, 3], [-2, -3]]
    found = ref.models(3, f)
    assert (1, 0, 1) in found and (0, 0, 0) not in found
    assert all(ref.first_false_clause(f, bits) is None for bits in found)
    assert ref.balanced_model(4, [[1], [2]]) == (1, 1, 0, 0)
    with pytest.raises(ValueError):
        ref.models(7, [[1]])


def test_wrong_verdicts_are_caught():
    g = PHP
    r = workloads.Round()
    workloads._unsat_verdict(r, g, ("unsat",), "right")
    assert not r.errors
    workloads._unsat_verdict(r, g, ("sat", (1, 1)), "wrong")
    assert r.errors
    with pytest.raises(workloads.NoAnswer):
        workloads._unsat_verdict(r, g, ("exhausted",), "none")
    # A claimed model that falsifies a clause is no model.
    assert ref.first_false_clause(g.clauses, (1, 1)) == 2


# ---------------------------------------------------------------------------
# Tracing and the metric list


def test_tracing_nests_inner_calls_and_restores_the_program():
    before = (proofgen.build_prf, proofgen.check_refutation, resolution.emit_proof)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert proofgen.build_prf is not before[0]
        proofgen.refute_prf_nontaut(core.cnf(2, [[1, 2]]), (1, 0), 3)
    assert (proofgen.build_prf, proofgen.check_refutation, resolution.emit_proof) == before
    names = [s.name for s in tracer.spans]
    assert names[0] == "proofgen.refute_prf_nontaut"
    top = tracer.spans[0]
    children = {s.name for s in tracer.spans if s.parent == 0}
    assert {"encoder.build_prf", "resolution.check_refutation"} <= children
    assert "resolution.emit_proof" in names  # bit_size inside the checker
    metrics = tracing.layer_metrics(tracer.spans)
    assert 0 < metrics["proofgen.refute_prf_nontaut.self_s"] < metrics["proofgen.refute_prf_nontaut.s"]
    assert metrics["proofgen.refute_prf_nontaut.s"] == pytest.approx(top.end - top.start)
    assert metrics["proofgen.refute_prf_nontaut.lines"] == top.counts["lines"]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
