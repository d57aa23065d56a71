"""
The formula families: prf / sat / rfn / lrfn / con, the satisfiability-to-
proof-search reduction, benchmark CNFs, and template codes.
"""

import hashlib
import itertools
import math
import random

import pytest

from proofbench.core import (
    Circuit,
    CircuitBuilder,
    Cnf,
    CnfCode,
    _eval_packed,
    _input_column,
    cnf,
    code_pos,
    decode_cnf,
    emit_dimacs,
    encode_cnf,
    eval_circuit,
    eval_cnf,
    instantiate_template,
    parse_dimacs,
)
from proofbench.encoder import (
    PolyBudget,
    PrfLayout,
    _prf_circuit,
    _prf_clauses,
    am_reduce,
    block_names,
    build_clique_color,
    build_con,
    build_lrfn,
    build_php,
    build_prf,
    build_prf_template,
    build_rfn,
    build_sat,
    build_strongly_friendly,
    decode_prf_assignment,
    map_text,
)
from proofbench.oracle import dpll_refute, dpll_sat, is_tautology
from proofbench.proofgen import encode_witness, refute_prf_nontaut
from proofbench.resolution import check_refutation, emit_proof, parse_proof

PAIR = cnf(1, [[1], [-1]])


def _truth_table(c: Circuit) -> int:
    """All ``2**n_vars`` outputs of ``c`` in one integer, the output under
    assignment ``a`` at bit ``a``: the packed evaluator on the whole table."""
    n = c.n_vars
    return next(_eval_packed(c, [(lambda i: _input_column(i, n), (1 << (1 << n)) - 1)]))


# ---------------------------------------------------------------------------
# layout arithmetic


def test_layout_closed_form():
    for m, n, k in itertools.product((1, 2, 3), repeat=3):
        lay = PrfLayout(m, n, k)
        assert lay.vars_proof == m * (3 * n + k + m)
    assert PrfLayout(2, 1, 1).vars_proof == 12


def test_artifact_variable_counts_match_layout():
    for m, n, k in itertools.product((1, 2), (1, 2), (1, 2)):
        art = build_prf(m, n, k)  # symbolic: code bits are inputs too
        assert art.formula.n == art.layout.total_vars
        assert art.layout.total_vars == m * (3 * n + k + m) + 2 * n * k
        inst = build_prf(m, n, k, encode_cnf(cnf(n, [[1]] * k)))
        assert inst.formula.n == inst.layout.total_vars == m * (3 * n + k + m)


def test_layout_map_covers_every_variable_once():
    lay = PrfLayout(2, 1, 1, symbolic=True)
    lines = map_text(lay.names()).splitlines()
    assert len(lines) == lay.total_vars
    indices = [int(line.split()[0]) for line in lines]
    assert indices == list(range(1, lay.total_vars + 1))
    names = [line.split()[1] for line in lines]
    assert len(set(names)) == len(names)
    assert names[0] == "y[e=0,i=1,j=1]" and names[4] == "ax[j=1]"


def test_every_index_lands_on_its_own_name():
    for m, n, k, symbolic in itertools.product((1, 2, 3), (1, 2), (0, 1, 2), (False, True)):
        lay = PrfLayout(m, n, k, symbolic)
        names = [None] + list(lay.names()) + list(block_names("z", n))
        hits = {}
        for j in range(1, m + 1):
            hits[lay.ax(j)] = f"ax[j={j}]"
            for i in range(1, n + 1):
                hits[lay.piv(i, j)] = f"piv[i={i},j={j}]"
                for e in (0, 1):
                    hits[lay.y(e, i, j)] = f"y[e={e},i={i},j={j}]"
            for l in range(1, k + 1):
                hits[lay.s(l, j)] = f"s[l={l},j={j}]"
            for jp in range(1, j):
                hits[lay.L(jp, j)] = f"L[j'={jp},j={j}]"
                hits[lay.R(jp, j)] = f"R[j'={jp},j={j}]"
        for i in range(1, n + 1):
            hits[lay.z(i)] = f"z[{i}]"
            for e, l in itertools.product((0, 1), range(1, k + 1)):
                if symbolic:
                    hits[lay.code(e, i, l)] = f"c[e={e},i={i},l={l}]"
        assert sorted(hits) == list(range(1, len(names)))
        assert all(names[v] == name for v, name in hits.items())


def test_out_of_range_index_is_a_value_error():
    # a raise, not an assert: under python -O, y(0, 5, 9) on this
    # 20-variable layout would otherwise return 41
    lay, sym = PrfLayout(2, 2, 2), PrfLayout(2, 2, 2, symbolic=True)
    calls = [
        (lay.y, 0, 5, 9), (lay.y, 2, 1, 1), (lay.ax, 0), (lay.ax, 3),
        (lay.s, 3, 1), (lay.s, 1, 0), (lay.piv, 0, 1), (lay.piv, 1, 3),
        (lay.L, 2, 2), (lay.L, 1, 3), (lay.R, 0, 2), (lay.R, 1, 1),
        (lay.code, 0, 1, 1), (sym.code, 0, 3, 1), (lay.z, 0), (lay.z, 3),
        (PrfLayout, 0, 1, 1), (PrfLayout, 1, -1, 0), (PrfLayout, 1, 1, -1),
    ]
    for f, *args in calls:
        with pytest.raises(ValueError):
            f(*args)


# ---------------------------------------------------------------------------
# sat


def int_from_bits(bits):
    return sum(b << i for i, b in enumerate(bits))


def test_sat_single_clause_examples():
    table = _truth_table(build_sat(1, 1))
    code = encode_cnf(cnf(1, [[1]]))
    assert (table >> int_from_bits(code.bits + (1,))) & 1 == 1
    assert (table >> int_from_bits(code.bits + (0,))) & 1 == 0


def test_sat_agrees_with_eval_cnf_exhaustively():
    # every normalized code, every assignment, n,k <= 3, via one truth table
    for n, k in itertools.product((1, 2, 3), (1, 2, 3)):
        table = _truth_table(build_sat(n, k))
        for cols in itertools.product(((0, 0), (0, 1), (1, 0)), repeat=n * k):
            bits = [0] * (2 * n * k)
            pos = 0
            for l in range(1, k + 1):
                for i in range(1, n + 1):
                    c0, c1 = cols[pos]
                    pos += 1
                    bits[code_pos(0, i, l, n, k)] = c0
                    bits[code_pos(1, i, l, n, k)] = c1
            code = CnfCode(n, k, tuple(bits))
            f = decode_cnf(code)  # strict: raises on a non-normalized code
            for z in itertools.product((0, 1), repeat=n):
                row = int_from_bits(tuple(bits) + z)
                assert ((table >> row) & 1) == int(eval_cnf(f, z))


def test_sat_pair_is_never_satisfied():
    sat = build_sat(1, 2)
    code = encode_cnf(PAIR)
    table = _truth_table(sat)
    for z in ((0,), (1,)):
        row = int_from_bits(code.bits + z)
        assert ((table >> row) & 1) == 0


# ---------------------------------------------------------------------------
# prf


def test_prf_2_1_1_exhaustive_decode_iff_satisfy():
    art = build_prf(2, 1, 1, encode_cnf(cnf(1, [[1]])))
    f = decode_cnf(art.code)
    assert art.formula.n == 12
    hits = 0
    for x in range(1 << 12):
        bits = [(x >> i) & 1 for i in range(12)]
        sat = eval_cnf(art.formula, bits)
        proof = decode_prf_assignment(art, bits)
        valid = proof is not None and check_refutation(f, proof, mode="weakening").ok
        assert sat == valid
        hits += sat
    # {(x1)} is satisfiable: no refutation of any length exists
    assert hits == 0


def test_prf_pair_witness_satisfies():
    art = build_prf(3, 1, 2, encode_cnf(PAIR))
    proof = dpll_refute(PAIR)
    bits = encode_witness(PAIR, proof, 3, art)
    assert eval_cnf(art.formula, bits)
    # and clause-by-clause, for a sharper failure message on regression
    assert all(any((l > 0) == bool(bits[abs(l) - 1]) for l in cl) for cl in art.formula.clauses)


def test_prf_clause_count_2_1_1():
    art = build_prf(2, 1, 1, encode_cnf(cnf(1, [[1]])))
    assert len(art.formula.clauses) == 18


# sha256 prefixes of repr(list(_prf_clauses(lay))): the names, literals and
# slots of the clause stream, which the DIMACS pins see only in part.
@pytest.mark.parametrize("m,n,k,symbolic,digest", [
    (6, 2, 3, True, "bd556553026562fa"),
    (5, 3, 4, False, "bfe4a9e95594a504"),
    (4, 2, 0, False, "8fdece99b0078241"),
    (3, 0, 2, True, "c0d95daea497b640"),
    (1, 3, 2, False, "8aa21e794f01b47e"),
    (12, 3, 4, False, "47859f535025e525"),
])
def test_prf_clause_stream_is_pinned(m, n, k, symbolic, digest):
    stream = repr(list(_prf_clauses(PrfLayout(m, n, k, symbolic))))
    assert hashlib.sha256(stream.encode()).hexdigest()[:16] == digest


def _one_object_per_value(clauses) -> bool:
    lits = [lit for cl in clauses for lit in cl]
    return len({id(lit) for lit in lits}) <= len(set(lits))


def test_literal_ints_are_shared():
    # 300 variables, so most literals lie outside CPython's small-int cache
    f, a = cnf(3, [[1, 2], [-1, 3], [2, -3], [1, 2, 3]]), (1, 1, 1)
    g = build_prf(12, 3, 4, encode_cnf(f, strict=False)).formula
    assert g.n == 300
    assert _one_object_per_value(g.clauses)
    assert _one_object_per_value(parse_dimacs(emit_dimacs(g)).clauses)
    back = parse_proof(emit_proof(refute_prf_nontaut(f, a, 12)), g)
    # an ``A <l>`` line holds g's own clause; the others are read from text
    spelled = [cl for cl, just in back.lines if just[0] == "R" or cl is not g.clauses[just[1]]]
    assert len(spelled) > len(back.lines) // 2
    assert _one_object_per_value(spelled)


# ---------------------------------------------------------------------------
# reflection circuits


@pytest.mark.parametrize("m,n,k", [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)])
def test_rfn_tautologies(m, n, k):
    assert is_tautology(build_rfn(m, n, k)) == ("yes",)


def test_rfn_input_counts():
    expected = {(1, 1, 1): 8, (1, 2, 2): 19, (2, 1, 1): 15, (2, 1, 2): 19}
    for (m, n, k), inputs in expected.items():
        assert build_rfn(m, n, k).n_vars == inputs


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_con_tautologies(m, n):
    c = build_con(m, n)
    assert c.n_vars == PrfLayout(m, n, 0).vars_proof
    assert is_tautology(c) == ("yes",)


def test_lrfn_tautologies():
    assert is_tautology(build_lrfn(cnf(1, [[1]]), 2)) == ("yes",)
    assert is_tautology(build_lrfn(PAIR, 2)) == ("yes",)


def test_lrfn_tautological_clause_tolerated():
    # non-normalized targets are representable and still reflect truthfully
    taut = cnf(1, [[1, -1]])
    assert is_tautology(build_lrfn(taut, 1)) == ("yes",)


# ---------------------------------------------------------------------------
# the reduction


def test_am_satisfiable_source_gives_unsat_instance():
    # a generated checker-valid refutation certifies unsatisfiability
    rng = random.Random(42)
    for _ in range(10):
        n = rng.randint(1, 3)
        f = None
        while f is None:
            cand = cnf(
                n,
                [
                    [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), rng.randint(1, n))]
                    for _ in range(rng.randint(1, 4))
                ],
            )
            res = dpll_sat(cand)
            if res[0] == "sat":
                f, a = cand, res[1]
        art = am_reduce(f, PolyBudget(p=(0, 1), q=(0, 0, 0, 1)))
        proof = refute_prf_nontaut(f, a, art.layout.m)
        assert check_refutation(art.formula, proof, mode="weakening").ok


def test_am_unsat_source_gives_sat_instance():
    art = am_reduce(PAIR, PolyBudget(p=(0, 1), q=(0, 0, 0, 1)))
    proof = dpll_refute(PAIR)
    assert len(proof.lines) <= art.layout.m
    bits = encode_witness(PAIR, proof, art.layout.m, art)
    assert eval_cnf(art.formula, bits)


def test_am_growth_degree_over_ladder():
    # |rho| measured as variable count; the clause count's cubic term makes
    # its finite-ladder fit hover just above 3 (documented in the notes),
    # while variables grow quadratically: m*(3n+k+m) with m = p(s).
    xs, ys = [], []
    for j in (1, 2, 3, 4, 5, 6):
        f = cnf(j, [[i] for i in range(1, j + 1)] + [[-i] for i in range(1, j + 1)])
        s = len(emit_dimacs(f).encode())
        art = am_reduce(f, PolyBudget(p=(0, 1), q=(0, 0, 0, 1)))
        assert art.layout.m == s and art.params["source_bytes"] == s
        xs.append(s)
        ys.append(art.formula.n)
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    slope = sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum(
        (a - mx) ** 2 for a in lx
    )
    assert slope <= 3.0, f"degree {slope:.2f} exceeds deg(p)+2"


def test_am_rejects_empty_budget():
    with pytest.raises(ValueError):
        PolyBudget(p=(1,), q=(0, 1))


# ---------------------------------------------------------------------------
# benchmark families


def test_php_2_1_definition():
    assert build_php(2, 1) == cnf(2, [[1], [2], [-1, -2]])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_php_pigeonhole_unsat(n):
    assert dpll_sat(build_php(n + 1, n))[0] == "unsat"


def test_php_satisfiable_when_holes_suffice():
    res = dpll_sat(build_php(2, 2))
    assert res[0] == "sat"


def test_clique_color_shapes_and_semantics():
    clique, color, edges = build_clique_color(1, 2)
    assert clique.n == color.n  # shared variable space
    assert set(edges) == {(1, 2)}
    joined = Cnf(clique.n, clique.clauses + color.clauses)
    assert dpll_sat(joined)[0] == "unsat"
    # each side alone is satisfiable for a suitable graph
    assert dpll_sat(clique)[0] == "sat"
    assert dpll_sat(color)[0] == "sat"
    # witness variables are disjoint across the two sides
    mention = lambda f: {abs(l) for cl in f.clauses for l in cl}
    shared = set(edges.values())
    assert (mention(clique) - shared) & (mention(color) - shared) == set()


def test_clique_color_sides_disagree_on_edges():
    # a 2-clique needs the edge; a 1-coloring forbids it
    clique, color, edges = build_clique_color(1, 2)
    e = edges[(1, 2)]
    for f, want in ((clique, 1), (color, 0)):
        res = dpll_sat(f)
        assert res[0] == "sat" and res[1][e - 1] == want


# ---------------------------------------------------------------------------
# templates and the strongly friendly disjunction


def test_template_matches_direct_build():
    for m, n, k in ((1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 1, 2)):
        tpl = build_prf_template(m, n, k)
        for psi_bits in _some_codes(n, k):
            psi = CnfCode(n, k, psi_bits)
            direct = build_prf(m, n, k, psi)
            inst = instantiate_template(tpl, psi.bits)
            assert inst == encode_cnf(direct.formula, strict=False)


def test_slot_rule_agrees_across_its_four_readings():
    # Download slots are the only code-dependent clauses; the instantiated
    # CNF, the symbolic CNF, the template and the circuit each read the
    # slot rule, so they must agree on every proof assignment.  Models and
    # their one-bit flips sit next to the slot clauses' boundary.
    rng = random.Random(2011)
    for m, n, k in itertools.product((1, 2, 3), (1, 2), (1, 2)):
        lay = PrfLayout(m, n, k)
        V = lay.vars_proof
        sym = build_prf(m, n, k).formula
        tpl = build_prf_template(m, n, k)
        for _ in range(6):
            code = CnfCode(n, k, tuple(rng.randint(0, 1) for _ in range(2 * n * k)))
            inst = build_prf(m, n, k, code).formula
            via_tpl = decode_cnf(instantiate_template(tpl, code.bits), strict=False)
            b = CircuitBuilder(V)
            root, _ = _prf_circuit(b, lay, lambda e, i, l: b.const(code.get(e, i, l)))
            circ = b.build(root)
            pinned = Cnf(sym.n, sym.clauses + tuple(
                frozenset([V + t + 1 if bit else -(V + t + 1)]) for t, bit in enumerate(code.bits)
            ))
            xs = [[rng.randint(0, 1) for _ in range(V)] for _ in range(4)]
            for g in (inst, pinned, via_tpl):
                res = dpll_sat(g)
                if res[0] == "sat":
                    model = list(res[1][:V])
                    xs += [model] + [model[:v] + [1 - model[v]] + model[v + 1:] for v in range(V)]
            for x in xs:
                want = eval_cnf(inst, x)
                assert eval_cnf(sym, x + list(code.bits)) == want
                assert eval_cnf(via_tpl, x) == want
                assert eval_circuit(circ, x) == want


def _some_codes(n, k):
    rng = random.Random(n * 10 + k)
    combos = list(itertools.product((0, 1), repeat=2 * n * k))
    rng.shuffle(combos)
    return combos[:6]


def test_strongly_friendly_case_ii_inner_nontaut():
    # psi unsatisfiable with a short refutation: the inner "z is no
    # refutation of psi" disjunct fails on the witness assignment
    m = 3
    tpl = build_prf_template(m, 1, 2)
    inner_code = instantiate_template(tpl, encode_cnf(PAIR).bits)
    inner = decode_cnf(inner_code, strict=False)
    proof = dpll_refute(PAIR)
    art = build_prf(m, 1, 2, encode_cnf(PAIR))
    assert inner == art.formula
    bits = encode_witness(PAIR, proof, m, art)
    assert eval_cnf(inner, bits)  # so not-prf is falsified: non-tautology


def test_strongly_friendly_case_i_outer_refutable():
    # psi satisfiable: the inner prf formula is unsatisfiable and the
    # generator finds its short refutation
    psi = cnf(1, [[1]])
    m = 3
    art = build_prf(m, 1, 1, encode_cnf(psi))
    proof = refute_prf_nontaut(psi, (1,), m)
    assert check_refutation(art.formula, proof, mode="weakening").ok


def test_strongly_friendly_circuit_builds_at_minimum_scale():
    c = build_strongly_friendly(1, PolyBudget(p=(0, 2), q=(0, 0, 0, 1)), k=1)
    assert c.n_vars == 246
    assert len(c.gates) == 7705
