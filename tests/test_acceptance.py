"""
Acceptance gate: ten end-to-end properties, one test (and one pass line)
each.  Every quantitative bound asserted here was derived by the oracles in
this repository before being frozen; timings carry generous margins over
measured values so the suite stays green on slower machines while still
catching complexity regressions.
"""

import itertools
import json
import math
import random
import time

from proofbench.cfcheck import cf_check
from proofbench.cfrege import cf_prove_rfn_res, cf_prove_sat_equiv, cf_substitute
from proofbench.cli import main
from proofbench.core import (
    Cnf,
    CnfCode,
    CircuitBuilder,
    cnf,
    code_pos,
    decode_cnf,
    emit_dimacs,
    encode_cnf,
    eval_cnf,
    instantiate_template,
    parse_dimacs,
)
from proofbench.encoder import (
    PolyBudget,
    am_reduce,
    build_clique_color,
    build_con,
    build_lrfn,
    build_php,
    build_prf,
    build_prf_template,
    build_rfn,
    decode_prf_assignment,
)
from proofbench.oracle import (
    SearchBudget,
    dpll_refute,
    dpll_sat,
    is_tautology,
    min_refutation_length,
)
from proofbench.proofgen import (
    encode_witness,
    join_disjoint,
    line_bound,
    refute_prf_nontaut,
    split_disjoint_refutation,
)
from proofbench.resolution import check_refutation, emit_proof, parse_proof


def _random_cnf(rng, max_n, max_k, max_width=3):
    n = rng.randint(1, max_n)
    k = rng.randint(1, max_k)
    clauses = []
    for _ in range(k):
        w = rng.randint(1, min(max_width, n))
        picks = rng.sample(range(1, n + 1), w)
        clauses.append([v if rng.random() < 0.5 else -v for v in picks])
    return cnf(n, clauses)


def _normalized_codes(n, k):
    for cols in itertools.product(((0, 0), (0, 1), (1, 0)), repeat=n * k):
        bits = [0] * (2 * n * k)
        pos = 0
        for l in range(1, k + 1):
            for i in range(1, n + 1):
                c0, c1 = cols[pos]
                pos += 1
                bits[code_pos(0, i, l, n, k)] = c0
                bits[code_pos(1, i, l, n, k)] = c1
        yield CnfCode(n, k, tuple(bits))


def _fit(xs, ys):
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1)) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum(
        (a - mx) ** 2 for a in lx
    )


def test_criterion_01_refutation_encoding_exact():
    # Satisfying assignments of the 12-variable two-line instance are
    # exactly the checker-valid weakening refutations, for every normalized
    # single-clause CNF over one variable.
    t0 = time.monotonic()
    mismatches = 0
    per_code_hits = {}
    for code in _normalized_codes(1, 1):
        f = decode_cnf(code)
        art = build_prf(2, 1, 1, code)
        assert art.formula.n == 12
        hits = 0
        for x in range(1 << 12):
            bits = [(x >> i) & 1 for i in range(12)]
            sat = eval_cnf(art.formula, bits)
            proof = decode_prf_assignment(art, bits)
            valid = (
                proof is not None
                and len(proof.lines) <= 2
                and check_refutation(f, proof, mode="weakening").ok
            )
            if sat != valid:
                mismatches += 1
            hits += sat
        per_code_hits[code.bits] = hits
    assert mismatches == 0
    # the empty clause is refutable in two lines; the satisfiable codes are not
    assert per_code_hits[(0, 0)] > 0
    assert per_code_hits[(0, 1)] == 0 and per_code_hits[(1, 0)] == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    print(f"PASS: criterion 1 - encoding exact on 3x4096 assignments, 0 mismatches ({elapsed:.1f}s)")


def test_criterion_02_witness_round_trip():
    # 200 checker-valid refutations embed as satisfying assignments of the
    # instantiated formula, checked clause by clause, exact and padded.
    t0 = time.monotonic()
    rng = random.Random(2026)
    done = 0
    while done < 200:
        f = _random_cnf(rng, 5, 6)
        if dpll_sat(f)[0] != "unsat":
            continue
        proof = dpll_refute(f)
        if len(proof.lines) > 10:
            continue
        for m in (len(proof.lines), len(proof.lines) + 3):
            art = build_prf(m, f.n, f.k, encode_cnf(f, strict=False))
            bits = encode_witness(f, proof, m, art)
            for cl in art.formula.clauses:
                assert any((l > 0) == bool(bits[abs(l) - 1]) for l in cl)
        done += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    print(f"PASS: criterion 2 - 200/200 witnesses satisfy their instances ({elapsed:.1f}s)")


def test_criterion_03_generator_validity_and_growth():
    # 100 satisfiable CNFs x m in {8,16,32}: generated refutations are
    # valid, within the documented bound, and grow at degree <= 3 in m.
    t0 = time.monotonic()
    rng = random.Random(33)
    fits = []
    for _ in range(100):
        while True:
            f = _random_cnf(rng, 6, 8)
            res = dpll_sat(f)
            if res[0] == "sat":
                break
        target_lines = []
        for m in (8, 16, 32):
            proof = refute_prf_nontaut(f, res[1], m)
            g = build_prf(m, f.n, f.k, encode_cnf(f, strict=False)).formula
            assert check_refutation(g, proof, mode="weakening").ok
            assert len(proof) <= line_bound(m, f.n, f.k)
            target_lines.append(len(proof))
        fits.append(_fit([8.0, 16.0, 32.0], target_lines))
    assert max(fits) <= 3.0
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    print(
        f"PASS: criterion 3 - 300/300 generated refutations valid, "
        f"degree in m {sum(fits)/len(fits):.2f} mean / {max(fits):.2f} max ({elapsed:.1f}s)"
    )


def test_criterion_04_reduction_direction_correct():
    # 50 mixed instances under m = source bytes: satisfiable sources give
    # generator-refutable instances within the cubic length budget,
    # unsatisfiable sources give witness-satisfiable instances.
    t0 = time.monotonic()
    rng = random.Random(44)
    budget = PolyBudget(p=(0, 1), q=(0, 0, 0, 1))
    checked = 0
    for i in range(50):
        want_sat = i % 2 == 0
        while True:
            f = _random_cnf(rng, 3, 6)
            res = dpll_sat(f)
            if (res[0] == "sat") == want_sat:
                break
        art = am_reduce(f, budget)
        m = art.layout.m
        if want_sat:
            proof = refute_prf_nontaut(f, res[1], m)
            assert check_refutation(art.formula, proof, mode="weakening").ok
            assert len(proof) <= budget.eval_q(m)
        else:
            proof = dpll_refute(f)
            assert len(proof.lines) <= m
            bits = encode_witness(f, proof, m, art)
            assert eval_cnf(art.formula, bits)
        checked += 1
    assert checked == 50
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    print(f"PASS: criterion 4 - 50/50 reduction directions correct ({elapsed:.1f}s)")


def test_criterion_05_lower_bound_trend():
    # Unsatisfiable-pair family, one-line instances: minimal refutation
    # length (exact at n=1, certified lower bound at n=2,3) never decreases.
    # The n=1 value of 11 was derived by exhaustive search before freezing.
    t0 = time.monotonic()
    budget = SearchBudget(max_nodes=200_000_000)
    values = []
    uppers = []
    for n in (1, 2, 3):
        f = cnf(n, [[i] for i in range(1, n + 1)] + [[-i] for i in range(1, n + 1)])
        rho = build_prf(1, n, 2 * n, encode_cnf(f, strict=False)).formula
        upper = dpll_refute(rho)
        assert check_refutation(rho, upper, mode="strict").ok
        uppers.append(len(upper.lines))
        if n == 1:
            assert rho.n == 6 and len(rho.clauses) == 9
            assert min_refutation_length(rho, 10, budget=budget)[:2] == ("none-up-to", 10)
            found = min_refutation_length(rho, 11, budget=budget)
            assert found[0] == "found" and found[1] == 11
            assert check_refutation(rho, found[2], mode="strict").ok
            values.append(found[1])
        else:
            res = min_refutation_length(rho, 10, budget=budget)
            assert res[:2] == ("none-up-to", 10)
            values.append(res[1] + 1)  # certified lower bound
    assert values == [11, 11, 11]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(v <= u for v, u in zip(values, uppers))
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    print(f"PASS: criterion 5 - trend {values} non-decreasing, uppers {uppers} ({elapsed:.1f}s)")


def test_criterion_06_reflection_tautologies():
    # Every reflection, consistency, and local-reflection instance with at
    # most 22 inputs over the m,n,k <= 2 grid is a tautology.
    t0 = time.monotonic()
    rfn_pts = con_pts = lrfn_pts = 0
    for m, n, k in itertools.product((1, 2), repeat=3):
        c = build_rfn(m, n, k)
        if c.n_vars <= 22:
            assert is_tautology(c) == ("yes",), (m, n, k)
            rfn_pts += 1
    for m, n in itertools.product((1, 2), repeat=2):
        c = build_con(m, n)
        if c.n_vars <= 22:
            assert is_tautology(c) == ("yes",), (m, n)
            con_pts += 1
    for m in (1, 2):
        for n in (1, 2):
            for k in (0, 1, 2):
                codes = [None] if k == 0 else _normalized_codes(n, k)
                for code in codes:
                    f = Cnf(n, ()) if code is None else decode_cnf(code)
                    c = build_lrfn(f, m)
                    if c.n_vars <= 22:
                        assert is_tautology(c) == ("yes",), (m, n, k, f)
                        lrfn_pts += 1
    assert (rfn_pts, con_pts, lrfn_pts) == (6, 4, 208)
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    print(
        f"PASS: criterion 6 - {rfn_pts}+{con_pts}+{lrfn_pts} reflection instances "
        f"all tautologies ({elapsed:.1f}s)"
    )


def test_criterion_07_cf_kernel_sizes():
    # Substitution preserves validity at unchanged length (100 cases); the
    # satisfaction-equivalence proofs stay within 6 lines per clause (100
    # cases); the reflection derivations check on the full 6x6x6 grid with
    # axis growth inside degrees (2, 2, 1).
    t0 = time.monotonic()
    rng = random.Random(7)
    for _ in range(100):
        f = _random_cnf(rng, 3, 3)
        proof = cf_prove_sat_equiv(f)
        n2 = rng.randint(1, 3)
        gamma = {}
        for v in range(1, f.n + 1):
            b = CircuitBuilder(n2)
            pool = [b.var(i) for i in range(1, n2 + 1)]
            for _ in range(rng.randint(1, 4)):
                op = rng.choice(("not", "and", "or"))
                if op == "not":
                    pool.append(b.not_(rng.choice(pool)))
                else:
                    pool.append(getattr(b, op + "_")(rng.choice(pool), rng.choice(pool)))
            gamma[v] = b.build(pool[-1])
        out = cf_substitute(proof, gamma, n_vars=n2)
        assert len(out) == len(proof)
        assert cf_check(out).ok

    for _ in range(100):
        f = _random_cnf(rng, 4, 4)
        proof = cf_prove_sat_equiv(f)
        assert cf_check(proof).ok
        assert len(proof) <= 6 * max(1, f.k)

    sizes = {}
    for m, n, k in itertools.product(range(1, 7), repeat=3):
        proof = cf_prove_rfn_res(m, n, k, check=False)
        assert cf_check(proof).ok, (m, n, k)
        sizes[(m, n, k)] = len(proof)
        assert len(proof) <= 360 * m * n * (m + n + k), (m, n, k)
    tail = [3.0, 4.0, 5.0, 6.0]
    slope = {
        "m": _fit(tail, [sizes[(v, 6, 6)] for v in (3, 4, 5, 6)]),
        "n": _fit(tail, [sizes[(6, v, 6)] for v in (3, 4, 5, 6)]),
        "k": _fit(tail, [sizes[(6, 6, v)] for v in (3, 4, 5, 6)]),
    }
    assert slope["m"] <= 2 and slope["n"] <= 2 and slope["k"] <= 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    print(
        f"PASS: criterion 7 - kernel substitutions/equivalences valid, 216-point grid "
        f"degrees m={slope['m']:.2f} n={slope['n']:.2f} k={slope['k']:.2f} ({elapsed:.1f}s)"
    )


def test_criterion_08_disjoint_split():
    # 100 variable-disjoint unsatisfiable unions: the split always returns a
    # checker-valid refutation of the side it names.
    t0 = time.monotonic()
    rng = random.Random(88)
    done = 0
    sides = {"A": 0, "B": 0}
    while done < 100:
        kind = "a_sat" if done < 40 else ("b_sat" if done < 80 else "both_unsat")
        while True:
            fa = _random_cnf(rng, 3, 4)
            fb = _random_cnf(rng, 3, 4)
            sa, sb = dpll_sat(fa)[0], dpll_sat(fb)[0]
            if kind == "a_sat" and (sa, sb) == ("sat", "unsat"):
                break
            if kind == "b_sat" and (sa, sb) == ("unsat", "sat"):
                break
            if kind == "both_unsat" and (sa, sb) == ("unsat", "unsat"):
                break
        lifted_a, lifted_b, joined = join_disjoint(fa, fb)
        proof = dpll_refute(joined)
        side, extracted = split_disjoint_refutation(lifted_a, lifted_b, proof)
        target = lifted_a if side == "A" else lifted_b
        assert check_refutation(target, extracted, mode="weakening").ok
        if kind == "a_sat":
            assert side == "B"  # the satisfiable side cannot be refuted
        if kind == "b_sat":
            assert side == "A"
        sides[side] += 1
        done += 1
    assert sides["A"] + sides["B"] == 100
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(f"PASS: criterion 8 - 100/100 splits valid (A={sides['A']}, B={sides['B']}) ({elapsed:.1f}s)")


def test_criterion_09_friendly_disjunction_cases():
    # The template-coded disjunction "x is no refutation of [rho], or rho is
    # satisfiable", probed at both ways the coded question can fall.  All
    # verdicts below come from the search oracles at run time.
    t0 = time.monotonic()
    tpl = build_prf_template(2, 1, 1)
    assert (tpl.n, tpl.k) == (12, 18)

    # Case one: the coded CNF is satisfiable, so rho is unsatisfiable; the
    # sat side fails everywhere while the no-refutation side is a tautology
    # at the outer budget, certified by exhaustive search; the generator
    # refutes rho within its documented bound.
    psi = cnf(1, [[1]])
    res = dpll_sat(psi)
    assert res[0] == "sat"
    rho_one = decode_cnf(instantiate_template(tpl, encode_cnf(psi).bits), strict=False)
    assert dpll_sat(rho_one)[0] == "unsat"
    assert min_refutation_length(rho_one, 4)[:2] == ("none-up-to", 4)
    gen = refute_prf_nontaut(psi, res[1], 2)
    assert len(gen) == 19 <= line_bound(2, 1, 1)

    # Case two: the coded CNF is the empty clause, refutable in one line;
    # its witness satisfies rho (the sat side is live), and the generator
    # run on rho itself certifies that no four-line refutation of rho
    # exists, so the no-refutation side stays a tautology here too.
    bottom = Cnf(1, (frozenset(),))
    assert dpll_sat(bottom)[0] == "unsat"
    short = dpll_refute(bottom)
    assert len(short.lines) == 1
    rho_two = decode_cnf(instantiate_template(tpl, encode_cnf(bottom).bits), strict=False)
    witness = encode_witness(bottom, short, 2)
    assert eval_cnf(rho_two, witness)
    assert dpll_sat(rho_two)[0] == "sat"
    outer = build_prf(4, rho_two.n, rho_two.k, encode_cnf(rho_two, strict=False))
    assert (outer.formula.n, len(outer.formula.clauses)) == (232, 3016)
    outer_proof = refute_prf_nontaut(rho_two, witness, 4)
    assert check_refutation(outer.formula, outer_proof, mode="weakening").ok
    assert len(outer_proof) == 906 <= line_bound(4, rho_two.n, rho_two.k)
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    print(
        "PASS: criterion 9 - both disjunction cases match the oracle "
        f"(unsat side 19-line, sat side witnessed, outer 906-line) ({elapsed:.1f}s)"
    )


def test_criterion_10_determinism_and_formats(tmp_path):
    # Byte-stable DIMACS and proof round-trips over a generated corpus, and
    # repeated experiment runs identical up to the two volatile fields.
    rng = random.Random(1010)
    corpus = [_random_cnf(rng, 6, 8) for _ in range(100)]
    corpus += [build_php(p, h) for p in (2, 3, 4) for h in (1, 2, 3)]
    clique, color, _ = build_clique_color(2, 4)
    corpus += [clique, color]
    corpus.append(build_prf(3, 1, 2, encode_cnf(cnf(1, [[1], [-1]]))).formula)
    corpus.append(am_reduce(cnf(1, [[1]]), PolyBudget(p=(0, 1), q=(0, 0, 0, 1))).formula)
    for f in corpus:
        text = emit_dimacs(f)
        assert parse_dimacs(text) == f
        assert emit_dimacs(parse_dimacs(text)) == text

    proofs = 0
    while proofs < 200:
        f = _random_cnf(rng, 5, 6)
        if dpll_sat(f)[0] != "unsat":
            continue
        proof = dpll_refute(f)
        text = emit_proof(proof)
        again = parse_proof(text, f)
        assert again.lines == proof.lines
        assert emit_proof(again) == text
        proofs += 1

    args = ["experiment", "lowerbound-trend", "--n", "1", "--max-lines", "3"]
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(args + ["--report", str(r1)]) == 0
    assert main(args + ["--report", str(r2)]) == 0
    a = json.loads(r1.read_text())
    b = json.loads(r2.read_text())
    volatile = ("generated_at", "wall_clock_s")
    for key in volatile:
        a.pop(key), b.pop(key)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    print("PASS: criterion 10 - corpus egress byte-stable, reports stable modulo timestamps")
