"""
The constructive refutation generator for refutation-existence instances,
and witness embedding in the converse direction.
"""

import random

import pytest

import proofbench.proofgen as proofgen
from proofbench.core import cnf, encode_cnf, eval_cnf
from proofbench.encoder import build_prf
from proofbench.oracle import dpll_refute
from proofbench.proofgen import (
    encode_witness,
    line_bound,
    refute_prf_nontaut,
)
from proofbench.encoder import decode_prf_assignment
from proofbench.resolution import CheckReport, ResolutionProof, check_refutation

PAIR = cnf(1, [[1], [-1]])
SINGLE = cnf(1, [[1]])


def _target(f, m):
    return build_prf(m, f.n, f.k, encode_cnf(f, strict=False)).formula


# ---------------------------------------------------------------------------
# the generator


def test_generator_single_clause_m2():
    proof = refute_prf_nontaut(SINGLE, (1,), 2)
    assert check_refutation(_target(SINGLE, 2), proof, mode="weakening").ok
    assert len(proof) <= line_bound(2, 1, 1)


def test_generator_two_var_clause():
    f = cnf(2, [[1, 2]])
    proof = refute_prf_nontaut(f, (1, 0), 3)
    assert check_refutation(_target(f, 3), proof, mode="weakening").ok
    assert len(proof) <= line_bound(3, 2, 1)


def test_generator_frozen_two_variable_example():
    # (0, 1) is the model dpll_sat finds for x1 | x2
    f = cnf(2, [[1, 2]])
    proof = refute_prf_nontaut(f, (0, 1), 4)
    assert len(proof) == 108
    assert line_bound(4, 2, 1) == 1120
    assert check_refutation(_target(f, 4), proof, mode="weakening").ok


def test_generator_raises_when_its_check_fails(monkeypatch):
    # a RuntimeError, not an assert, so the guard survives python -O
    forced = CheckReport(False, 0, "forced failure", 1, 0)
    monkeypatch.setattr(proofgen, "check_refutation", lambda *a, **k: forced)
    with pytest.raises(RuntimeError, match="forced failure"):
        refute_prf_nontaut(SINGLE, (1,), 2)
    with pytest.raises(RuntimeError, match="forced failure"):
        refute_prf_nontaut(cnf(1, []), (0,), 2)


def test_generator_empty_cnf():
    # with nothing to download, line 1 cannot exist: three lines suffice
    f = cnf(1, [])
    proof = refute_prf_nontaut(f, (0,), 2)
    assert len(proof) == 3
    assert check_refutation(_target(f, 2), proof, mode="weakening").ok


def test_generator_line_counts_single_clause():
    expected = {1: 7, 2: 19, 3: 37, 5: 91, 8: 217}
    for m, lines in expected.items():
        assert len(refute_prf_nontaut(SINGLE, (1,), m)) == lines


def test_generator_monotone_and_within_bound():
    rng = random.Random(7)
    for _ in range(15):
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        clauses = []
        a = tuple(rng.randint(0, 1) for _ in range(n))
        for _ in range(k):
            picks = rng.sample(range(1, n + 1), rng.randint(1, n))
            cl = [v if rng.random() < 0.7 else -v for v in picks]
            if not any((l > 0) == bool(a[abs(l) - 1]) for l in cl):
                v = rng.randint(1, n)
                cl.append(v if a[v - 1] else -v)
            clauses.append(cl)
        f = cnf(n, clauses)
        assert eval_cnf(f, a)
        prev = 0
        for m in (2, 3, 4):
            proof = refute_prf_nontaut(f, a, m)
            assert len(proof) <= line_bound(m, n, f.k)
            assert len(proof) > prev
            prev = len(proof)


def test_generator_deterministic():
    f = cnf(2, [[1, 2], [-2, 1]])
    p1 = refute_prf_nontaut(f, (1, 1), 4)
    p2 = refute_prf_nontaut(f, (1, 1), 4)
    assert p1.lines == p2.lines


def test_generator_rejects_bad_inputs():
    with pytest.raises(ValueError, match="n bits"):
        refute_prf_nontaut(SINGLE, (1, 0), 2)
    with pytest.raises(ValueError, match="3m"):
        refute_prf_nontaut(cnf(4, [[1]]), (1, 0, 0, 0), 1)
    with pytest.raises(ValueError, match="does not satisfy"):
        refute_prf_nontaut(SINGLE, (0,), 2)


# ---------------------------------------------------------------------------
# witness embedding


def test_witness_exact_fit():
    proof = dpll_refute(PAIR)
    art = build_prf(3, 1, 2, encode_cnf(PAIR))
    bits = encode_witness(PAIR, proof, 3, art)
    assert eval_cnf(art.formula, bits)


def test_witness_padding_round_trip():
    proof = dpll_refute(PAIR)
    art = build_prf(5, 1, 2, encode_cnf(PAIR))
    bits = encode_witness(PAIR, proof, 5, art)
    assert eval_cnf(art.formula, bits)
    decoded = decode_prf_assignment(art, bits)
    pad = 5 - len(proof)
    want = proof.lines[:-1] + (proof.lines[0],) * pad + (proof.lines[-1],)
    assert decoded.lines == want


def test_witness_errors():
    proof = dpll_refute(PAIR)
    with pytest.raises(ValueError, match="fit"):
        encode_witness(PAIR, proof, 2)
    art = build_prf(4, 1, 2, encode_cnf(PAIR))
    with pytest.raises(ValueError, match="match"):
        encode_witness(PAIR, proof, 3, art)
    other = build_prf(3, 1, 2, encode_cnf(cnf(1, [[1], [1]])))
    with pytest.raises(ValueError, match="different formula"):
        encode_witness(PAIR, proof, 3, other)
    bogus = ResolutionProof(PAIR, ((frozenset(), ("A", 0)),))
    with pytest.raises(ValueError, match="invalid at step 0"):
        encode_witness(PAIR, bogus, 3)


def test_witness_defaults_to_fresh_artifact():
    proof = dpll_refute(PAIR)
    bits = encode_witness(PAIR, proof, 3)
    assert eval_cnf(_target(PAIR, 3), bits)
