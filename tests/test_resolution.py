"""
The refutation checker, proof restriction, the variable-disjoint split,
and the proof text format.
"""

import ast
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import proofbench
import proofbench.resolution as resolution
from proofbench.core import Cnf, cnf, emit_dimacs, eval_cnf, parse_dimacs
from proofbench.encoder import build_php
from proofbench.oracle import dpll_refute, dpll_sat
from proofbench.proofgen import join_disjoint, refute_prf_nontaut, split_disjoint_refutation
from proofbench.resolution import (
    ResolutionProof,
    check_refutation,
    emit_proof,
    parse_proof,
    restrict_proof,
)

PACKAGE = Path(resolution.__file__).parent

PAIR = cnf(1, [[1], [-1]])
PAIR_PROOF = ResolutionProof(
    PAIR,
    (
        (frozenset({1}), ("A", 0)),
        (frozenset({-1}), ("A", 1)),
        (frozenset(), ("R", 0, 1, 1)),
    ),
)


def test_smallest_resolvable_pair():
    rep = check_refutation(PAIR, PAIR_PROOF)
    assert rep.ok and rep.lines == 3
    assert rep.bit_size == len(emit_proof(PAIR_PROOF).encode())


def test_php_2_1_five_lines():
    php = build_php(2, 1)
    assert php == cnf(2, [[1], [2], [-1, -2]])
    proof = ResolutionProof(
        php,
        (
            (frozenset({1}), ("A", 0)),
            (frozenset({2}), ("A", 1)),
            (frozenset({-1, -2}), ("A", 2)),
            (frozenset({-2}), ("R", 0, 2, 1)),
            (frozenset(), ("R", 1, 3, 2)),
        ),
    )
    assert check_refutation(php, proof).ok


def test_pivot_missing_is_invalid():
    proof = ResolutionProof(
        PAIR,
        (
            (frozenset({1}), ("A", 0)),
            (frozenset({1}), ("A", 0)),
            (frozenset(), ("R", 0, 1, 1)),
        ),
    )
    rep = check_refutation(PAIR, proof)
    assert not rep.ok and rep.step == 2 and "pivot" in rep.reason


def test_weakening_accepts_supersets_strict_does_not():
    f = cnf(2, [[1], [-1]])
    proof = ResolutionProof(
        f,
        (
            (frozenset({1, 2}), ("A", 0)),
            (frozenset({-1, 2}), ("A", 1)),
            (frozenset({2}), ("R", 0, 1, 1)),
            (frozenset({-1}), ("A", 1)),
            (frozenset({1}), ("A", 0)),
            (frozenset(), ("R", 4, 3, 1)),
        ),
    )
    assert check_refutation(f, proof, mode="weakening").ok
    assert not check_refutation(f, proof, mode="strict").ok


def test_non_empty_final_clause_rejected():
    proof = ResolutionProof(PAIR, ((frozenset({1}), ("A", 0)),))
    rep = check_refutation(PAIR, proof)
    assert not rep.ok and "empty" in rep.reason


@pytest.mark.parametrize(
    "just",
    [
        ("A", 99),
        (),
        ("R", 0, 1),
        ("A", "x"),
        ("A", 0.0),
        ("R", "a", 0, 1),
        ("R", 0, 1.0, 1),
        ("R", 0, 1, "x"),
        ("R", 0, 1, None),
    ],
)
def test_malformed_justification_is_a_failing_report(just):
    lines = PAIR_PROOF.lines[:2] + ((frozenset(), just),)
    rep = check_refutation(PAIR, ResolutionProof(PAIR, lines))
    assert not rep.ok and rep.step == 2 and rep.bit_size == 0


JUST_ATOMS = st.one_of(
    st.integers(-3, 40), st.integers(), st.text(max_size=2), st.floats(), st.none(), st.booleans()
)
JUST_ARGS = st.one_of(JUST_ATOMS, st.lists(JUST_ATOMS, max_size=3).map(tuple))
# Justifications of the right length with arguments of any type, and
# tuples of any rule and length.
RANDOM_JUSTS = st.one_of(
    st.tuples(st.just("A"), JUST_ATOMS),
    st.tuples(st.just("R"), JUST_ATOMS, JUST_ATOMS, JUST_ATOMS),
    st.builds(
        lambda rule, rest: (rule,) + tuple(rest),
        st.one_of(st.sampled_from(("A", "R", "schema", "ext", "mp", "canon")), JUST_ATOMS),
        st.lists(JUST_ARGS, max_size=4),
    ),
    st.just(()),
)


@settings(deadline=None)
@given(just=RANDOM_JUSTS, mode=st.sampled_from(("strict", "weakening")))
def test_random_justification_is_a_failing_report(just, mode):
    # {1, -1} is the last line and not empty, so no justification saves it
    lines = PAIR_PROOF.lines[:2] + ((frozenset({1, -1}), just),)
    rep = check_refutation(PAIR, ResolutionProof(PAIR, lines), mode=mode)
    assert not rep.ok and rep.step == 2


# Values that are not literals of PAIR, none equal to 1 or -1.
NON_LITERALS = st.one_of(
    st.integers().filter(lambda v: abs(v) != 1),
    st.text(max_size=2),
    st.floats().filter(lambda v: abs(v) != 1),
    st.none(),
)
# Anything but a (frozenset, justification) pair, weakenings that add a
# non-literal to a download of PAIR, and downloads that spell the literal 1
# as a value equal to it but of another type.
MALFORMED_LINES = st.one_of(
    JUST_ATOMS,
    st.lists(JUST_ARGS, max_size=3),
    st.lists(JUST_ARGS, max_size=4).filter(lambda xs: len(xs) != 2).map(tuple),
    st.tuples(
        st.one_of(
            JUST_ATOMS,
            st.lists(st.integers(-1, 1), max_size=2),
            st.sets(st.integers(-1, 1), max_size=2),
            st.lists(st.integers(-1, 1), max_size=2).map(tuple),
        ),
        st.one_of(st.just(("A", 0)), RANDOM_JUSTS),
    ),
    st.tuples(
        st.frozensets(NON_LITERALS, min_size=1).map(lambda c: c | {1}), st.just(("A", 0))
    ),
    st.tuples(st.sampled_from([frozenset({True}), frozenset({1.0})]), st.just(("A", 0))),
)


@settings(deadline=None)
@given(line=MALFORMED_LINES, mode=st.sampled_from(("strict", "weakening")))
def test_malformed_line_is_a_failing_report(line, mode):
    # without the bad line at step 2 this is PAIR_PROOF, which checks
    lines = PAIR_PROOF.lines[:2] + (line, (frozenset(), ("R", 0, 1, 1)))
    rep = check_refutation(PAIR, ResolutionProof(PAIR, lines), mode=mode)
    assert not rep.ok and rep.step == 2 and rep.bit_size == 0


@pytest.mark.parametrize("junk", [0, 2, -2, "x", 1.5, None])
def test_weakening_by_a_non_literal_is_a_failing_report(junk):
    # a passing report would need the proof's text form, which has no
    # spelling for ``junk``
    for just, base in ((("A", 0), PAIR_PROOF.lines[0][0]), (("R", 0, 1, 1), frozenset())):
        lines = PAIR_PROOF.lines[:2] + ((base | {junk}, just), PAIR_PROOF.lines[2])
        rep = check_refutation(PAIR, ResolutionProof(PAIR, lines), mode="weakening")
        assert not rep.ok and rep.step == 2 and "out of range" in rep.reason


# F has variables 1..2, so 3 is out of range; {1}, {-1} resolve on 1 to {}.
F12 = cnf(2, [[1], [-1]])
DOWNLOADS = ((frozenset({1}), ("A", 0)), (frozenset({-1}), ("A", 1)))


@pytest.mark.parametrize(
    "lines, mode, step, reason",
    [
        (((frozenset({1, 2}), ("A", 0)),), "strict", 0, "axiom clause mismatch"),
        (((frozenset(), ("A", 0)),), "strict", 0, "axiom clause mismatch"),
        (DOWNLOADS + ((frozenset({2}), ("R", 0, 1, 1)),), "strict", 2, "resolvent mismatch"),
        (((frozenset(), ("A", 0)),), "weakening", 0, "clause does not contain the axiom"),
        (((frozenset({2}), ("A", 0)),), "weakening", 0, "clause does not contain the axiom"),
        (
            ((frozenset({1, 2}), ("A", 0)), DOWNLOADS[1], (frozenset(), ("R", 0, 1, 1))),
            "weakening",
            2,
            "clause does not contain the resolvent",
        ),
        (((frozenset({1, 3}), ("A", 0)),), "weakening", 0, "weakening adds a literal out of range"),
        (((frozenset({1, -3}), ("A", 0)),), "weakening", 0, "weakening adds a literal out of range"),
        (
            DOWNLOADS + ((frozenset({2, 3}), ("R", 0, 1, 1)),),
            "weakening",
            2,
            "weakening adds a literal out of range",
        ),
    ],
)
def test_check_refutation_reasons_are_pinned(lines, mode, step, reason):
    rep = check_refutation(F12, ResolutionProof(F12, lines), mode=mode)
    assert (rep.ok, rep.step, rep.reason, rep.bit_size) == (False, step, reason, 0)


@pytest.mark.parametrize("module", ["resolution.py", "cfcheck.py"])
def test_trusted_base_imports_only_core(module):
    # Each checker's module reads nothing above core.
    internal = set()
    for node in ast.walk(ast.parse((PACKAGE / module).read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("proofbench")):
            internal.add(node.module)
        elif isinstance(node, ast.Import):
            internal |= {a.name for a in node.names if a.name.startswith("proofbench")}
    assert internal == {"core"}


def test_trusted_base_loads_only_core():
    # What the AST test cannot see: a fresh interpreter that imports both
    # checkers holds no other proofbench module.
    code = (
        "import sys, proofbench.cfcheck, proofbench.resolution\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('proofbench'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["proofbench", "proofbench.cfcheck", "proofbench.core", "proofbench.resolution"]


def test_no_module_imports_inside_a_function():
    # So the package's imports form a plain DAG.
    nested = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


def test_package_docstring_names_every_module():
    listed = re.findall(r"^\* ``(\w+)``", proofbench.__doc__, re.MULTILINE)
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    assert sorted(listed) == modules


# ---------------------------------------------------------------------------
# restriction


def test_restrict_empty_assignment_is_identity():
    out = restrict_proof(PAIR_PROOF, {})
    assert out.target == PAIR and out.lines == PAIR_PROOF.lines
    assert check_refutation(PAIR, out, mode="weakening").ok


def test_restrict_five_line_example():
    f = cnf(2, [[1, 2], [-1], [-2]])
    proof = ResolutionProof(
        f,
        (
            (frozenset({1, 2}), ("A", 0)),
            (frozenset({-1}), ("A", 1)),
            (frozenset({2}), ("R", 0, 1, 1)),
            (frozenset({-2}), ("A", 2)),
            (frozenset(), ("R", 2, 3, 2)),
        ),
    )
    assert check_refutation(f, proof).ok
    out = restrict_proof(proof, {2: 0})
    assert out.target == cnf(2, [[1], [-1]])
    rep = check_refutation(out.target, out, mode="weakening")
    assert rep.ok and rep.lines <= len(proof.lines)


def test_restrict_trivializes():
    f = cnf(1, [[1]])
    proof = ResolutionProof(f, ((frozenset({1}), ("A", 0)),))
    with pytest.raises(ValueError, match="trivializes"):
        restrict_proof(proof, {1: 1})


def _random_unsat_with_proof(rng, max_n=4):
    while True:
        n = rng.randint(1, max_n)
        clauses = []
        for _ in range(rng.randint(2, 2 * n + 2)):
            width = rng.randint(1, min(2, n))
            vs = rng.sample(range(1, n + 1), width)
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
        f = cnf(n, clauses)
        if dpll_sat(f)[0] == "unsat":
            return f, dpll_refute(f)


def test_restriction_never_lengthens_suite():
    rng = random.Random(1106)
    for _ in range(60):
        f, proof = _random_unsat_with_proof(rng)
        rho = {
            v: rng.randint(0, 1)
            for v in rng.sample(range(1, f.n + 1), rng.randint(0, f.n - 1) if f.n > 1 else 0)
        }
        out = restrict_proof(proof, rho)
        kept = [
            frozenset(lit for lit in cl if abs(lit) not in rho)
            for cl in f.clauses
            if not any(rho.get(abs(lit)) == (lit > 0) for lit in cl)
        ]
        assert out.target == Cnf(f.n, tuple(kept))
        rep = check_refutation(out.target, out, mode="weakening")
        assert rep.ok and rep.lines <= len(proof.lines)


# ---------------------------------------------------------------------------
# feasible-disjunction split


def test_split_b_side_when_a_satisfiable():
    a0 = cnf(1, [[1]])
    b0 = cnf(1, [[1], [-1]])
    a, b, joined = join_disjoint(a0, b0)
    side, out = split_disjoint_refutation(a, b, dpll_refute(joined))
    assert side == "B"
    assert check_refutation(b, out, mode="weakening").ok


def test_split_a_side_when_b_satisfiable():
    a0 = cnf(1, [[1], [-1]])
    b0 = cnf(1, [[1]])
    a, b, joined = join_disjoint(a0, b0)
    side, out = split_disjoint_refutation(a, b, dpll_refute(joined))
    assert side in ("A", "B")
    target = a if side == "A" else b
    assert check_refutation(target, out, mode="weakening").ok
    # b is satisfiable, so the refuted side must be a
    assert side == "A"


def test_split_both_unsat_still_valid():
    a0 = cnf(1, [[1], [-1]])
    b0 = cnf(2, [[1], [2], [-1, -2]])
    a, b, joined = join_disjoint(a0, b0)
    side, out = split_disjoint_refutation(a, b, dpll_refute(joined))
    target = a if side == "A" else b
    assert check_refutation(target, out, mode="weakening").ok


def test_split_with_a_clause_free_side():
    # a side without clauses mentions no variable: the empty restriction
    # checks the proof and keeps it line for line
    pair = cnf(1, [[1], [-1]])
    for a0, b0, want in ((cnf(0, []), pair, "B"), (pair, cnf(0, []), "A")):
        a, b, joined = join_disjoint(a0, b0)
        proof = dpll_refute(joined)
        side, out = split_disjoint_refutation(a, b, proof)
        assert side == want and out.target == (a if want == "A" else b)
        assert out.lines == proof.lines


def test_split_rejects_shared_variables():
    f = cnf(1, [[1], [-1]])
    with pytest.raises(ValueError):
        split_disjoint_refutation(f, f, dpll_refute(f))


# ---------------------------------------------------------------------------
# proof text format


def test_parse_three_line_refutation():
    proof = parse_proof("A 0\nA 1\nR 0 1 1 :\n", PAIR)
    assert proof.lines == PAIR_PROOF.lines


def test_proof_round_trip_suite():
    rng = random.Random(86)
    for _ in range(200):
        f, proof = _random_unsat_with_proof(rng)
        text = emit_proof(proof)
        again = parse_proof(text, f)
        assert again.lines == proof.lines
        assert emit_proof(again) == text


def test_forward_reference_rejected():
    with pytest.raises(ValueError, match="line 1"):
        parse_proof("R 2 1 1 :\n", PAIR)


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("A 0\nA 1\nR 0 1 \u0661 :\n", 3),
        ("A 0\nA 1\nR 0 1 1 : 1_0\n", 3),
        ("A +1\n", 1),
        ("A 00\n", 1),
        ("A 0\nA 01\n", 2),
        ("A 0\nA 1\nR 0 1 01 :\n", 3),
        ("A 0\nA 1\nR 0 1 1 : -0\n", 3),
    ],
)
def test_numbers_emit_proof_never_writes_are_refused(text, lineno):
    # int() reads non-ASCII digits, "_" separators, "+" signs, leading
    # zeros and "-0"
    with pytest.raises(ValueError, match=f"line {lineno}: bad number"):
        parse_proof(text, PAIR)


def test_readers_grow_with_the_text_not_the_header():
    # a table sized by the declared 4e9 variables would take gigabytes
    text = "p cnf 4000000000 1\n1 -3999999999 0\n"
    tracemalloc.start()
    try:
        f = parse_dimacs(text)
        proof = parse_proof("A 0\nA 0 : 1 -3999999999 4000000000\n", f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f.clauses == (frozenset({1, -3999999999}),)
    assert proof.lines[1][0] == frozenset({1, -3999999999, 4000000000})
    assert peak < 1 << 20


def test_weakened_axiom_line_grammar():
    f = cnf(2, [[1]])
    proof = parse_proof("A 0 : 1 2\n", f)
    assert proof.lines[0][0] == frozenset({1, 2})


def test_each_proof_is_printed_once(monkeypatch):
    printed = []
    real = resolution._print_proof

    def spy(proof):
        printed.append(proof)
        return real(proof)

    monkeypatch.setattr(resolution, "_print_proof", spy)
    proof = refute_prf_nontaut(cnf(2, [[1, 2], [-1, 2]]), (0, 1), 3)
    rep = check_refutation(proof.target, proof, "weakening")
    text = emit_proof(proof)
    assert len(printed) == 1 and printed[0] is proof  # printed by the generator's own check
    assert rep.ok and rep.bit_size == len(text.encode())
    # A parsed-back proof is a new object whose text is the text it was read
    # from, so neither its check nor its emitter prints it.
    back = parse_proof(text, proof.target)
    assert check_refutation(back.target, back, "weakening") == rep
    assert emit_proof(back) is text
    assert len(printed) == 1


def test_memoized_text_is_the_text_of_a_fresh_proof():
    proof = refute_prf_nontaut(cnf(2, [[1, 2], [-1, 2]]), (0, 1), 3)
    fresh = ResolutionProof(proof.target, proof.lines)
    assert emit_proof(proof) is emit_proof(proof)
    assert emit_proof(fresh) == emit_proof(proof)
    assert fresh == proof and hash(fresh) == hash(proof)


def test_a_variable_and_its_negation_print_negative_first():
    # {3, -3, -1, 2}: by variable, and -x before x on a tie, in both formats
    clause = frozenset({3, -3, -1, 2})
    assert emit_dimacs(Cnf(3, (clause,))) == "p cnf 3 1\n-1 2 -3 3 0\n"
    f = cnf(3, [[-1, 2], [1], [-2], [3], [-3]])
    weak = ResolutionProof(
        f,
        (
            (clause, ("A", 0)),
            (frozenset({1}), ("A", 1)),
            (frozenset({2, -3, 3}), ("R", 1, 0, 1)),
        ),
    )
    assert check_refutation(f, weak, "weakening").step == 2  # not a refutation
    assert emit_proof(weak) == "A 0 : -1 2 -3 3\nA 1\nR 1 0 1 : 2 -3 3\n"
    assert parse_proof(emit_proof(weak), f).lines == weak.lines


# ---------------------------------------------------------------------------
# soundness cross-check


def test_checker_sound_against_oracle():
    # valid refutations exist only for formulas with no satisfying assignment
    rng = random.Random(3111)
    refuted = satisfied = 0
    for _ in range(200):
        n = rng.randint(1, 10)
        clauses = []
        for _ in range(rng.randint(1, 2 * n)):
            width = rng.randint(1, min(3, n))
            vs = rng.sample(range(1, n + 1), width)
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
        f = cnf(n, clauses)
        res = dpll_sat(f)
        if res[0] == "sat":
            assert eval_cnf(f, res[1])
            satisfied += 1
        else:
            proof = dpll_refute(f)
            assert check_refutation(f, proof).ok
            # exhaustive confirmation that no model exists
            assert all(
                not eval_cnf(f, [(x >> i) & 1 for i in range(n)])
                for x in range(1 << n)
            )
            refuted += 1
    assert refuted >= 20 and satisfied >= 20


def test_strict_validity_implies_weakening_validity():
    rng = random.Random(99)
    for _ in range(50):
        f, proof = _random_unsat_with_proof(rng)
        if check_refutation(f, proof, mode="strict").ok:
            assert check_refutation(f, proof, mode="weakening").ok
