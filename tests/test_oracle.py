"""
Ground-truth machinery: exhaustive tautology checks, DPLL, refutation
extraction, and minimal-length search.
"""

import hashlib
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from proofbench import oracle
from proofbench.core import (
    Circuit,
    CircuitBuilder,
    Cnf,
    TABLE_CHUNK_BITS,
    _eval_packed,
    _input_column,
    cnf,
    cone,
    encode_cnf,
    eval_circuit,
    eval_cnf,
)
from proofbench.encoder import build_php, build_prf, build_rfn, decode_prf_assignment
from proofbench.oracle import (
    SearchBudget,
    dpll_refute,
    dpll_sat,
    is_tautology,
    min_refutation_length,
)
from proofbench.resolution import CheckReport, ResolutionProof, check_refutation, emit_proof

PAIR = cnf(1, [[1], [-1]])


# ---------------------------------------------------------------------------
# is_tautology


def _truth_table(c: Circuit) -> int:
    """All ``2**n_vars`` outputs of ``c`` in one integer, the output under
    assignment ``a`` at bit ``a``: the packed evaluator on the whole table."""
    n = c.n_vars
    return next(_eval_packed(c, [(lambda i: _input_column(i, n), (1 << (1 << n)) - 1)]))


def _falsified_only_at(b: CircuitBuilder, n: int, idx: int) -> int:
    """A gate false exactly under assignment ``idx``: the disjunction of
    the literals that assignment falsifies."""
    out = b.const(0)
    for i in range(1, n + 1):
        lit = b.not_(b.var(i)) if idx >> (i - 1) & 1 else b.var(i)
        out = b.or_(out, lit)
    return out


@pytest.mark.parametrize("n", [0] + [TABLE_CHUNK_BITS + d for d in (-1, 0, 1, 3)])
def test_tautology_counterexample_across_chunks(n):
    # The falsifying assignments sit in the first and the last chunk and on
    # each side of a chunk edge; the answer is the lowest zero of the whole
    # table, computed here in one piece.
    total = 1 << n
    width = 1 << min(n, TABLE_CHUNK_BITS)
    spots = {0, 5 % total, total - 1, width - 1, width % total, (3 * width - 2) % total}
    cases = [(s,) for s in sorted(spots)] + [(width + 7, 2 * width), (total - 1, width)]
    for zeros in cases:
        zeros = [z for z in zeros if z < total]
        if not zeros:
            continue
        b = CircuitBuilder(n)
        out = b.const(1)
        for z in zeros:
            out = b.and_(out, _falsified_only_at(b, n, z))
        c = b.build(out)
        table = _truth_table(c)
        missing = table ^ ((1 << total) - 1)
        low = (missing & -missing).bit_length() - 1
        assert low == min(zeros)
        want = ("no", tuple(low >> i & 1 for i in range(n)))
        assert is_tautology(c) == want, zeros
        assert is_tautology(c, SearchBudget(max_assignments=total)) == want
        assert is_tautology(c, SearchBudget(max_assignments=total - 1)) == ("exhausted",)


def test_tautology_clock_is_checked_between_chunks():
    # The output reads every input, so its table spans two chunks.
    n = TABLE_CHUNK_BITS + 1
    b = CircuitBuilder(n)
    c = b.build(b.and_many([b.or_(b.var(i), b.not_(b.var(i))) for i in range(1, n + 1)]))
    assert is_tautology(c) == ("yes",)
    assert is_tautology(c, SearchBudget(max_seconds=0)) == ("exhausted",)


def _sparse_circuit(rng: random.Random, n: int, read: list[int]) -> Circuit:
    """A random gate list over ``n`` inputs whose output reads exactly the
    inputs ``read``: a random CNF over them, each input also read by an
    ``x | !x`` term.  Most literals are negative, and half the clauses draw
    from the top three inputs read, so that zeros also lie past the first
    chunk.  Gates outside the output's cone are interleaved: vars of any
    input, constants, and gates over anything before them."""
    gates: list[tuple] = [("var", rng.randint(1, n)) if n else ("const", 0)]

    def add(g: tuple) -> int:
        if rng.random() < 0.3:
            dead = rng.choice(["var", "const", "not", "and", "or", "imp"])
            if dead == "var" and n:
                gates.append(("var", rng.randint(1, n)))
            elif dead in ("var", "const"):
                gates.append(("const", rng.randint(0, 1)))
            elif dead == "not":
                gates.append(("not", rng.randrange(len(gates))))
            else:
                gates.append((dead, rng.randrange(len(gates)), rng.randrange(len(gates))))
        gates.append(g)
        return len(gates) - 1

    var = {v: add(("var", v)) for v in read}
    out = add(("const", 1))
    for v in read:
        out = add(("and", out, add(("or", var[v], add(("not", var[v]))))))
    for _ in range(rng.randint(0, 2)):
        clause = add(("const", 0))
        pool = read if rng.random() < 0.5 else read[-3:]
        for v in rng.sample(pool, rng.randint(min(len(pool), 1), min(len(pool), 4))):
            lit = var[v] if rng.random() < 0.1 else add(("not", var[v]))
            clause = add(("or", clause, lit))
        out = add(("and", out, clause))
    return Circuit(n, tuple(gates))


def test_tautology_reads_only_the_support_and_answers_for_the_whole_table():
    # The answer is the lowest zero of the whole 2**n table, unread inputs
    # at 0, and the cap counts all 2**n assignments, whatever the support.
    rng = random.Random(17)
    shapes = [(0, 0), (5, 0), (5, 3), (18, 2), (19, 16), (20, 17)]
    shapes += [(n, s) for n in (19, 20) for s in range(TABLE_CHUNK_BITS + 1, n + 1)] * 4
    shapes += [(n, rng.randint(0, n)) for n in (rng.randint(1, 20) for _ in range(16))]
    past_first_chunk = 0
    for n, s in shapes:
        read = sorted(rng.sample(range(1, n + 1), s))
        c = _sparse_circuit(rng, n, read)
        assert len(cone(c.gates, [c.output])) < len(c.gates)
        total = 1 << n
        missing = _truth_table(c) ^ ((1 << total) - 1)
        if missing:
            low = (missing & -missing).bit_length() - 1
            want = ("no", tuple(low >> i & 1 for i in range(n)))
            assert all(want[1][v - 1] == 0 for v in range(1, n + 1) if v not in read)
            past_first_chunk += any(want[1][v - 1] for v in read[TABLE_CHUNK_BITS:])
        else:
            want = ("yes",)
        assert is_tautology(c) == want, (n, read)
        assert is_tautology(c, SearchBudget(max_assignments=total)) == want, (n, read)
        assert is_tautology(c, SearchBudget(max_assignments=total - 1)) == ("exhausted",)
    assert past_first_chunk >= 3  # counterexamples that set a per-chunk input


def test_tautology_cap_counts_unread_inputs():
    n = 20
    b = CircuitBuilder(n)
    c = b.build(b.or_(b.var(3), b.not_(b.var(n))))
    assert is_tautology(c, SearchBudget(max_assignments=2**n - 1)) == ("exhausted",)
    assert is_tautology(c, SearchBudget(max_assignments=2**n)) == ("no", (0,) * (n - 1) + (1,))


def test_tautology_cap_on_huge_input_counts():
    # The cap is tested without building 2**n_vars.
    for n in (25, 10**9, 10**11):
        assert is_tautology(Circuit(n, (("const", 1),))) == ("exhausted",)
    assert is_tautology(Circuit(24, (("const", 1),))) == ("yes",)
    for cap in (0, -1):
        assert is_tautology(Circuit(0, (("const", 1),)), SearchBudget(max_assignments=cap)) == (
            "exhausted",
        )


def test_excluded_middle_is_tautology():
    b = CircuitBuilder(1)
    c = b.build(b.or_(b.var(1), b.not_(b.var(1))))
    assert is_tautology(c) == ("yes",)


def test_bare_variable_is_not():
    b = CircuitBuilder(1)
    assert is_tautology(b.build(b.var(1))) == ("no", (0,))


def test_rfn_2_1_1_is_tautology():
    assert is_tautology(build_rfn(2, 1, 1)) == ("yes",)


def test_search_budget_reads_environment(monkeypatch):
    monkeypatch.setenv("PROOFBENCH_MAX_SECONDS", "0.25")
    before = time.monotonic()
    assert before + 0.25 <= SearchBudget().deadline() <= time.monotonic() + 0.25
    monkeypatch.delenv("PROOFBENCH_MAX_SECONDS")
    before = time.monotonic()
    assert before + 60 <= SearchBudget().deadline() <= time.monotonic() + 60


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "abc"])
def test_bad_max_seconds_is_refused(monkeypatch, value):
    # nan and inf would give a deadline that never passes, -1 one that has
    # passed before the search starts
    monkeypatch.setenv("PROOFBENCH_MAX_SECONDS", value)
    with pytest.raises(ValueError, match="^PROOFBENCH_MAX_SECONDS must be a finite number above 0"):
        SearchBudget().deadline()


def test_tautology_budget_exhaustion():
    b = CircuitBuilder(5)
    c = b.build(b.or_(b.var(1), b.var(2)))
    assert is_tautology(c, SearchBudget(max_assignments=4)) == ("exhausted",)


# ---------------------------------------------------------------------------
# dpll


def test_dpll_pair_unsat():
    assert dpll_sat(PAIR) == ("unsat",)


def test_dpll_sat_with_verified_model():
    res = dpll_sat(cnf(2, [[1, 2]]))
    assert res[0] == "sat" and eval_cnf(cnf(2, [[1, 2]]), res[1])


def test_dpll_php_4_3_unsat():
    f = build_php(4, 3)
    assert dpll_sat(f) == ("unsat",)
    # cross-check by exhaustive enumeration (12 variables)
    assert all(
        not eval_cnf(f, [(x >> i) & 1 for i in range(f.n)])
        for x in range(1 << f.n)
    )


def _lit_tables(n):
    total = 1 << n
    mask = (1 << total) - 1
    pos = {}
    for i in range(1, n + 1):
        block = (1 << (1 << (i - 1))) - 1
        period = 1 << i
        col = 0
        for start in range(1 << (i - 1), total, period):
            col |= block << start
        pos[i] = col
    return {i: (pos[i], pos[i] ^ mask) for i in range(1, n + 1)}


def test_dpll_agrees_with_exhaustive_10k():
    rng = random.Random(41)
    tables = {n: _lit_tables(n) for n in range(1, 11)}
    for _ in range(10_000):
        n = rng.randint(1, 10)
        total_mask = (1 << (1 << n)) - 1
        clauses = []
        for _ in range(rng.randint(1, 2 * n)):
            width = rng.randint(1, min(3, n))
            vs = rng.sample(range(1, n + 1), width)
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
        f = cnf(n, clauses)
        table = total_mask
        for cl in f.clauses:
            cl_table = 0
            for lit in cl:
                p, ng = tables[n][abs(lit)]
                cl_table |= p if lit > 0 else ng
            table &= cl_table
        res = dpll_sat(f)
        assert (res[0] == "sat") == (table != 0)
        if res[0] == "sat":
            assert eval_cnf(f, res[1])


def test_dpll_refute_rejects_satisfiable():
    with pytest.raises(ValueError):
        dpll_refute(cnf(1, [[1]]))


def test_dpll_refute_strict_valid_suite():
    rng = random.Random(7)
    found = 0
    while found < 40:
        n = rng.randint(1, 6)
        clauses = []
        for _ in range(rng.randint(2, 2 * n + 2)):
            width = rng.randint(1, min(2, n))
            vs = rng.sample(range(1, n + 1), width)
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
        f = cnf(n, clauses)
        if dpll_sat(f)[0] != "unsat":
            continue
        assert check_refutation(f, dpll_refute(f), mode="strict").ok
        found += 1


def test_dpll_refute_check_survives_optimization(monkeypatch):
    # The final self-check is an explicit raise, not an assert, so it also
    # runs under ``python -O``.
    def reject(f, proof, mode="strict"):
        return CheckReport(False, 0, "rejected", len(proof.lines), 0)

    monkeypatch.setattr(oracle, "check_refutation", reject)
    with pytest.raises(RuntimeError, match="internal refutation invalid"):
        dpll_refute(PAIR)


# ---------------------------------------------------------------------------
# the search against the scan-order DPLL it replaced


def _scan_propagate(clauses, assign, trail, reasons):
    """Passes over the clauses in index order until one changes nothing;
    returns the first falsified clause index or None."""
    changed = True
    while changed:
        changed = False
        for ci, cl in enumerate(clauses):
            unassigned = None
            count = 0
            for lit in cl:
                if abs(lit) in assign:
                    if assign[abs(lit)] == (1 if lit > 0 else 0):
                        break
                else:
                    unassigned = lit
                    count += 1
            else:
                if count == 0:
                    return ci
                if count == 1:
                    assign[abs(unassigned)] = 1 if unassigned > 0 else 0
                    trail.append(abs(unassigned))
                    reasons[abs(unassigned)] = ci
                    changed = True
    return None


def _scan_dpll_sat(f):
    """Plain DPLL over the scan, without backjumping."""
    clauses = list(f.clauses)

    def solve(assign):
        trail = []
        if _scan_propagate(clauses, assign, trail, {}) is None:
            var = next((i for i in range(1, f.n + 1) if i not in assign), None)
            if var is None:
                return ("sat", tuple(assign[i] for i in range(1, f.n + 1)))
            for bit in (0, 1):
                assign[var] = bit
                res = solve(assign)
                del assign[var]
                if res[0] == "sat":
                    return res
        for v in trail:
            del assign[v]
        return ("unsat",)

    return ("unsat",) if any(not cl for cl in clauses) else solve({})


def _scan_refutation(f):
    """The refutation extracted from the scan's search tree, as text."""
    clauses = list(f.clauses)
    lines, line_of, assign, reasons = [], {}, {}, {}

    def emit(clause, just):
        if clause not in line_of:
            lines.append((clause, just))
            line_of[clause] = len(lines) - 1
        return line_of[clause]

    def resolve(j1, j2, pivot):
        c1, c2 = lines[j1][0], lines[j2][0]
        return emit((c1 - {pivot}) | (c2 - {-pivot}), ("R", j1, j2, pivot))

    def explain(line, keep):
        while True:
            lit = next((x for x in lines[line][0] if abs(x) != keep and abs(x) in reasons), None)
            if lit is None:
                return line
            v = abs(lit)
            reason_line = explain(emit(clauses[reasons[v]], ("A", reasons[v])), v)
            line = resolve(line, reason_line, v) if lit > 0 else resolve(reason_line, line, v)

    def solve(var_from):
        trail = []
        conflict = _scan_propagate(clauses, assign, trail, reasons)
        out = None
        if conflict is not None:
            out = explain(emit(clauses[conflict], ("A", conflict)), None)
        else:
            var = next((i for i in range(var_from, f.n + 1) if i not in assign), None)
            assert var is not None, "satisfiable"
            subs = []
            for bit in (0, 1):
                assign[var] = bit
                sub = solve(var + 1)
                del assign[var]
                if (var if bit == 0 else -var) not in lines[sub][0]:
                    out = sub
                    break
                subs.append(sub)
            else:
                out = resolve(subs[0], subs[1], var)
        for v in trail:
            del assign[v]
            del reasons[v]
        return out

    empty = next((ci for ci, cl in enumerate(clauses) if not cl), None)
    if empty is not None:
        emit(clauses[empty], ("A", empty))
    else:
        solve(1)
    return emit_proof(ResolutionProof(f, tuple(lines)))


def _agrees_with_scan(f):
    want = _scan_dpll_sat(f)
    assert dpll_sat(f) == want, f.clauses
    if want[0] == "unsat":
        assert emit_proof(dpll_refute(f)) == _scan_refutation(f), f.clauses
    return want[0]


def _seeded_cnfs(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 8)
        clauses = []
        for _ in range(rng.randint(1, 3 * n)):
            vs = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
        yield cnf(n, clauses)


def _prf(m, f):
    return build_prf(m, f.n, f.k, encode_cnf(f, strict=False)).formula


F0 = cnf(3, [[1, 2], [-1, 3], [-2, -3]])


def test_search_matches_scan_on_seeded_cnfs():
    answers = [_agrees_with_scan(f) for f in _seeded_cnfs(17, 1500)]
    assert answers.count("sat") >= 300 and answers.count("unsat") >= 300


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.sets(st.integers(-n, n).filter(bool), max_size=4), min_size=1, max_size=12
        ).map(lambda cls: cnf(n, cls))
    )
)
def test_search_matches_scan_on_random_cnfs(f):
    _agrees_with_scan(f)


def test_search_matches_scan_on_small_prf():
    # Unsatisfiable prf of satisfiable sources, and satisfiable prf of
    # refutable ones: models and refutations both get compared.
    pair2 = cnf(2, [[1], [2], [-1], [-2]])
    answers = [
        _agrees_with_scan(_prf(m, f))
        for m, f in [(1, PAIR), (1, pair2), (2, F0), (3, F0), (3, PAIR), (4, PAIR), (2, pair2)]
    ]
    assert answers == ["unsat", "unsat", "unsat", "unsat", "sat", "sat", "unsat"]


def test_search_on_prf_4_f0_is_pinned():
    # The scan-order search produced this refutation, byte for byte; the
    # backjumping dpll_sat closes the same 6,427-node tree.
    g = _prf(4, F0)
    text = emit_proof(dpll_refute(g))
    assert len(text.splitlines()) == 1493
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6bed01d0e21baeda64bd7c83adfc049680c6cf011d42dc90cb5f15d3e6ad6254"
    )
    assert dpll_sat(g, SearchBudget(max_nodes=6427)) == ("unsat",)
    assert dpll_sat(g, SearchBudget(max_nodes=6426)) == ("exhausted",)


def test_prf_satisfiable_exactly_when_a_short_refutation_exists():
    # Two independent answers to "is there a refutation of at most l
    # lines": the minimal-length search, and DPLL on prf(l, F).  A model
    # decodes to a checked refutation; an unsat answer comes with a checked
    # refutation of prf(l, F).  The sources are 2-CNFs over two variables
    # with distinct clauses, whose minima are 3, 5 or 7 lines.  (Over three
    # variables, a source with no refutation of 5 lines makes prf(5, F) a
    # DPLL tree of some 10^5 nodes, seconds apiece.)
    rng = random.Random(53)
    sources = []
    while len(sources) < 60:
        f = cnf(2, [
            [v if rng.random() < 0.5 else -v for v in rng.sample((1, 2), rng.choice((1, 2, 2)))]
            for _ in range(rng.randint(2, 5))
        ])
        if len(set(f.clauses)) == f.k and dpll_sat(f)[0] == "unsat":
            sources.append(f)
    found = 0
    for f in sources:
        for length in range(1, 6):
            short = min_refutation_length(f, length)
            art = build_prf(length, f.n, f.k, encode_cnf(f, strict=False))
            ans = dpll_sat(art.formula)
            assert short[0] in ("found", "none-up-to") and ans[0] in ("sat", "unsat")
            assert (short[0] == "found") == (ans[0] == "sat"), (f.clauses, length)
            if ans[0] == "sat":
                proof = decode_prf_assignment(art, ans[1])
                assert check_refutation(f, proof, mode="weakening").ok
                found += 1
            else:
                refutation = dpll_refute(art.formula)
                assert check_refutation(art.formula, refutation, mode="strict").ok
    assert 60 <= found <= 240  # both answers are common


# ---------------------------------------------------------------------------
# minimal length


def test_min_length_pair_is_three():
    res = min_refutation_length(PAIR, 5)
    assert res[0] == "found" and res[1] == 3
    assert check_refutation(PAIR, res[2], mode="weakening").ok
    assert min_refutation_length(PAIR, 2) == ("none-up-to", 2)


def test_min_length_php_2_1_is_five():
    php = build_php(2, 1)
    assert min_refutation_length(php, 4) == ("none-up-to", 4)
    res = min_refutation_length(php, 5)
    assert res[0] == "found" and res[1] == 5
    assert check_refutation(php, res[2], mode="strict").ok


def test_min_length_flags_satisfiable():
    res = min_refutation_length(cnf(1, [[1]]), 6)
    assert res[0] == "satisfiable" and eval_cnf(cnf(1, [[1]]), res[1])


def test_min_length_budget_exhaustion():
    f = build_php(3, 2)
    res = min_refutation_length(f, 12, budget=SearchBudget(max_nodes=50))
    assert res == ("exhausted",)


def _reference_min_length(f, cap):
    """Least refutation length, found breadth-first with no pruning.

    Level ``t`` holds every set of clauses that some ``t``-line sequence of
    downloads and resolvents (on any pivot, tautologies included) derives;
    the order of the lines never changes what may follow, so sets suffice.
    """
    level = {frozenset()}
    for length in range(1, cap + 1):
        following = set()
        for derived in level:
            candidates = set(f.clauses)
            for c1 in derived:
                for c2 in derived:
                    for lit in c1:
                        if lit > 0 and -lit in c2:
                            candidates.add((c1 - {lit}) | (c2 - {-lit}))
            if frozenset() in candidates:
                return length
            following.update(derived | {c} for c in candidates - derived)
        level = following
    return None


def _small_unsat_cnfs(rng, count):
    found = []
    while len(found) < count:
        n = rng.randint(2, 3)
        clauses = []
        for _ in range(rng.randint(3, 6)):
            vs = rng.sample(range(1, n + 1), min(n, rng.choice((1, 2, 2, 3))))
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
        f = cnf(n, clauses)
        if dpll_sat(f)[0] == "unsat":
            found.append(f)
    return found


def test_min_length_matches_unpruned_reference():
    # The pruned search must agree with a search that prunes nothing: the
    # same shortest length, also when allowed one line more (the first
    # limit with slack left for a download) or three, with the same
    # witness, and a certified "none" one line below it.
    rng = random.Random(3)
    cases = [
        (f, _reference_min_length(f, 12))
        for f in [PAIR, build_php(2, 1)] + _small_unsat_cnfs(rng, 150)
    ]
    # Two CNFs whose minimum, 10, the reference confirms in about 60 s and
    # 11 s, so it is given here.  Testing the slack-1 complement among the
    # unused lines only, instead of among all lines, still finds 10 lines on
    # each but returns another witness, so their witnesses are pinned too.
    deep = {
        cnf(4, [[-2, -1, 3], [-3, -1], [-3, 1, 2], [2, 3], [-4, -3, -2], [-2, 1]]): "c689f3dda605cf6e",
        cnf(4, [[-2, -1], [-4, 1], [2, 4], [-2, 1, 4], [-4, -1, 2]]): "9fa589ae60d01f9b",
    }
    cases += [(f, 10) for f in deep]
    lengths = []
    for f, want in cases:
        got = min_refutation_length(f, want)
        assert got[:2] == ("found", want), f.clauses
        assert check_refutation(f, got[2], mode="strict").ok
        for roomy in (min_refutation_length(f, want + 1), min_refutation_length(f, want + 3)):
            assert roomy[:2] == ("found", want), f.clauses
            assert emit_proof(roomy[2]) == emit_proof(got[2])
        assert min_refutation_length(f, want - 1) == ("none-up-to", want - 1), f.clauses
        if f in deep:
            assert hashlib.sha256(emit_proof(got[2]).encode()).hexdigest()[:16] == deep[f]
        lengths.append(want)
    assert max(lengths) >= 9  # deep enough for the order and line-count prunes


def test_min_length_answers_are_pinned():
    # Answers and witness bytes with ``max_lines`` at, below and well above
    # the minimum: the unsatisfiable-pair ladder of criterion 5 (minimum 11
    # at n = 1, none up to 10 at n = 2), PHP(2,1) (minimum 5) and seeded
    # small CNFs.  sha256 prefix of the answers, witnesses as proof text.
    def pair(n):
        f = cnf(n, [[i] for i in range(1, n + 1)] + [[-i] for i in range(1, n + 1)])
        return build_prf(1, n, 2 * n, encode_cnf(f, strict=False)).formula

    cases = [(pair(1), limit) for limit in range(1, 12)]
    cases += [(pair(2), limit) for limit in range(1, 11)]
    cases += [(build_php(2, 1), limit) for limit in (4, 5, 8, 12)]
    cases += [(f, limit) for f in _small_unsat_cnfs(random.Random(29), 12) for limit in (3, 6, 9)]
    answers = []
    for f, limit in cases:
        res = min_refutation_length(f, limit)
        answers.append(res[:2] + (emit_proof(res[2]),) if res[0] == "found" else res)
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()[:16]
    assert digest == "8d9929f47b8bc927"


@pytest.mark.parametrize("n, nodes", [(2, 8_000), (3, 60_000)])
def test_min_length_certifies_criterion_5_within_a_node_budget(n, nodes):
    # The slack cap's work count on criterion 5's prf(1, F) of the
    # unsatisfiable pairs: searches of 6,638 and 46,251 nodes, which took
    # 30,312 and 335,959 under the unused-line cap alone.
    f = cnf(n, [[i] for i in range(1, n + 1)] + [[-i] for i in range(1, n + 1)])
    rho = build_prf(1, n, 2 * n, encode_cnf(f, strict=False)).formula
    budget = SearchBudget(max_nodes=nodes)
    assert min_refutation_length(rho, 10, budget) == ("none-up-to", 10)


def test_min_length_witness_check_survives_optimization(monkeypatch):
    # The witness self-check is an explicit raise, not an assert, so it
    # also runs under ``python -O``.
    def reject(f, proof, mode="strict"):
        return CheckReport(False, 0, "rejected", len(proof.lines), 0)

    monkeypatch.setattr(oracle, "check_refutation", reject)
    with pytest.raises(RuntimeError, match="minimal witness fails strict check"):
        min_refutation_length(PAIR, 5)


# ---------------------------------------------------------------------------
# clausification


def _random_circuit(rng, n, extra_gates):
    b = CircuitBuilder(n)
    nodes = [b.var(i) for i in range(1, n + 1)] + [b.const(0), b.const(1)]
    for _ in range(extra_gates):
        op = rng.choice(("not", "and", "or", "imp"))
        if op == "not":
            nodes.append(b.not_(rng.choice(nodes)))
        else:
            g, h = rng.choice(nodes), rng.choice(nodes)
            nodes.append(getattr(b, {"and": "and_", "or": "or_", "imp": "imp"}[op])(g, h))
    return b.build(nodes[-1])


def clausify_circuit(c: Circuit) -> tuple[Cnf, dict[int, int]]:
    """Equisatisfiable CNF via fresh definition variables per gate.

    Returns the CNF and a map from gate index to its CNF variable; input
    gates map to their own variable index.  The CNF asserts the output.
    """
    var_of: dict[int, int] = {}
    clauses: list[frozenset[int]] = []
    next_var = c.n_vars

    def fresh() -> int:
        nonlocal next_var
        next_var += 1
        return next_var

    for idx, g in enumerate(c.gates):
        kind = g[0]
        if kind == "var":
            var_of[idx] = g[1]
            continue
        v = fresh()
        var_of[idx] = v
        if kind == "const":
            clauses.append(frozenset([v if g[1] else -v]))
        elif kind == "not":
            a = var_of[g[1]]
            clauses.append(frozenset([-v, -a]))
            clauses.append(frozenset([v, a]))
        elif kind == "and":
            a, b = var_of[g[1]], var_of[g[2]]
            clauses.append(frozenset([-v, a]))
            clauses.append(frozenset([-v, b]))
            clauses.append(frozenset([v, -a, -b]))
        elif kind == "or":
            a, b = var_of[g[1]], var_of[g[2]]
            clauses.append(frozenset([-v, a, b]))
            clauses.append(frozenset([v, -a]))
            clauses.append(frozenset([v, -b]))
        else:  # imp: v <-> (-a or b)
            a, b = var_of[g[1]], var_of[g[2]]
            clauses.append(frozenset([-v, -a, b]))
            clauses.append(frozenset([v, a]))
            clauses.append(frozenset([v, -b]))

    clauses.append(frozenset([var_of[c.output]]))
    return Cnf(next_var, tuple(clauses)), var_of


def test_tautology_versus_clausified_negation():
    rng = random.Random(905)
    agree_yes = agree_no = 0
    for _ in range(60):
        c = _random_circuit(rng, rng.randint(1, 12), rng.randint(1, 12))
        bn = CircuitBuilder(c.n_vars)
        negated = bn.build(bn.not_(bn.import_circuit(c)))
        g, _ = clausify_circuit(negated)
        verdict = is_tautology(c)
        if verdict[0] == "yes":
            assert dpll_sat(g)[0] == "unsat"
            agree_yes += 1
        else:
            res = dpll_sat(g)
            assert res[0] == "sat"
            # the model's projection to circuit inputs falsifies c
            assert eval_circuit(c, res[1][: c.n_vars]) is False
            agree_no += 1
    assert agree_yes >= 5 and agree_no >= 5


def test_truth_table_matches_eval():
    rng = random.Random(11)
    for _ in range(40):
        c = _random_circuit(rng, rng.randint(1, 6), rng.randint(1, 10))
        table = _truth_table(c)
        for x in range(1 << c.n_vars):
            bits = [(x >> i) & 1 for i in range(c.n_vars)]
            assert ((table >> x) & 1) == int(eval_circuit(c, bits))
