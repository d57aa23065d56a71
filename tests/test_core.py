"""
Formula/circuit plumbing: evaluation, codes, templates, the two
serialization boundaries (DIMACS, gate lists), and the collector pause
around the proof kernels.
"""

import contextlib
import gc
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import proofbench.proofgen as proofgen
from proofbench.cfcheck import CfProof, cf_check
from proofbench.cfrege import cf_prove_rfn_res
from proofbench.core import (
    GATE_KINDS,
    Circuit,
    CircuitBuilder,
    Cnf,
    CnfCode,
    TemplateCode,
    cnf,
    code_pos,
    decode_cnf,
    emit_dimacs,
    emit_gates,
    encode_cnf,
    eval_circuit,
    eval_cnf,
    instantiate_template,
    is_normalized,
    nogc,
    parse_dimacs,
    parse_gates,
    restrict_cnf,
    shift_cnf,
)
from proofbench.encoder import build_prf
from proofbench.proofgen import refute_prf_nontaut
from proofbench.resolution import ResolutionProof, check_refutation, emit_proof, parse_proof


# ---------------------------------------------------------------------------
# evaluation


def test_eval_circuit_basics():
    b = CircuitBuilder(1)
    assert eval_circuit(b.build(b.var(1)), (1,)) is True
    assert eval_circuit(b.build(b.var(1)), (0,)) is False

    b = CircuitBuilder(1)
    contradiction = b.build(b.and_(b.var(1), b.not_(b.var(1))))
    assert eval_circuit(contradiction, (0,)) is False
    assert eval_circuit(contradiction, (1,)) is False

    b = CircuitBuilder(1)
    ex_falso = b.build(b.imp(b.const(0), b.var(1)))
    assert eval_circuit(ex_falso, (0,)) is True


def test_eval_cnf_basics():
    f = cnf(2, [[1, -2]])
    assert eval_cnf(f, (0, 0)) is True
    assert eval_cnf(f, (0, 1)) is False
    pair = cnf(1, [[1], [-1]])
    assert not eval_cnf(pair, (0,)) and not eval_cnf(pair, (1,))


def test_eval_cnf_dimension_mismatch():
    with pytest.raises(ValueError):
        eval_cnf(cnf(2, [[1]]), (0,))


# ---------------------------------------------------------------------------
# codes


def test_single_literal_code():
    code = encode_cnf(cnf(1, [[1]]))
    assert code.get(1, 1, 1) == 1 and code.get(0, 1, 1) == 0


def test_empty_cnf_code_dimensions():
    code = encode_cnf(Cnf(2, ()))
    assert (code.n, code.k) == (2, 0) and code.bits == ()
    assert decode_cnf(code) == Cnf(2, ())


def _normalized_clauses(n):
    """All clauses over n variables with at most one polarity per variable."""
    out = []
    for choice in itertools.product((0, 1, -1), repeat=n):
        out.append(frozenset(s * v for v, s in enumerate(choice, start=1) if s))
    return out


def test_code_round_trip_exhaustive():
    # both directions, all normalized objects with n <= 2, k <= 2
    for n in (1, 2):
        pool = _normalized_clauses(n)
        for k in (0, 1, 2):
            for clauses in itertools.product(pool, repeat=k):
                f = Cnf(n, clauses)
                assert decode_cnf(encode_cnf(f)) == f
            for bits in itertools.product((0, 1), repeat=2 * n * k):
                code = CnfCode(n, k, bits)
                if is_normalized(decode_cnf(code, strict=False)):
                    assert encode_cnf(decode_cnf(code)) == code


def test_non_normalized_rejected_in_strict_mode():
    taut = cnf(1, [[1, -1]])
    assert not is_normalized(taut)
    with pytest.raises(ValueError):
        encode_cnf(taut)
    # tolerant mode keeps both bits; decode refuses only in strict mode
    code = encode_cnf(taut, strict=False)
    assert code.get(0, 1, 1) == 1 and code.get(1, 1, 1) == 1
    with pytest.raises(ValueError):
        decode_cnf(code)
    assert decode_cnf(code, strict=False) == taut


def test_code_pos_covers_exactly_once():
    n, k = 3, 4
    seen = {code_pos(e, i, l, n, k) for e in (0, 1)
            for i in range(1, n + 1) for l in range(1, k + 1)}
    assert seen == set(range(2 * n * k))


# ---------------------------------------------------------------------------
# templates


def test_all_constant_template_is_itself():
    t = TemplateCode(1, 1, 0, (("const", 0), ("const", 1)))
    assert instantiate_template(t, ()) == CnfCode(1, 1, (0, 1))


def test_template_single_ref():
    t = TemplateCode(1, 1, 1, (("const", 0), ("ref", 0)))
    assert instantiate_template(t, (1,)).bits == (0, 1)
    assert instantiate_template(t, (0,)).bits == (0, 0)
    neg = TemplateCode(1, 1, 1, (("negref", 0), ("const", 0)))
    assert instantiate_template(neg, (0,)).bits == (1, 0)


def test_template_length_mismatch():
    t = TemplateCode(1, 1, 1, (("const", 0), ("ref", 0)))
    with pytest.raises(ValueError):
        instantiate_template(t, (1, 0))


# ---------------------------------------------------------------------------
# DIMACS


def test_parse_dimacs_pair():
    assert parse_dimacs("p cnf 1 2\n1 0\n-1 0\n") == cnf(1, [[1], [-1]])


def test_parse_dimacs_comments_and_layout():
    # one spelling per CNF: no comments, and one clause per line
    assert parse_dimacs("p cnf 3 2\n1 -2 0\n3 0\n") == cnf(3, [[1, -2], [3]])
    for text, lineno in [
        ("c intro\np cnf 3 2\n1 -2 0\n3 0\n", 1),
        ("p cnf 3 2\nc mid\n1 -2 0\n3 0\n", 2),
        ("p cnf 3 2\n1 -2 0 3 0\n", 2),
        ("p cnf 3 2\n1 -2\n0\n3 0\n", 2),
    ]:
        with pytest.raises(ValueError, match=f"^line {lineno}:"):
            parse_dimacs(text)


@pytest.mark.parametrize(
    "text",
    [
        "p cnf x 1\n1 0\n",
        "p dnf 1 1\n1 0\n",
        "p cnf 1 2\n1 0\n",
        "p cnf 1 1\n2 0\n",
        "p cnf 1 1\n1\n",
        "1 0\n",
        "p cnf 12 1\n1_0 \u0661 0\n",
        "p cnf 1 1\n+1 0\n",
        "p cnf +1 1\n1 0\n",
        "p cnf 1 1\n01 -0\n",
        "p cnf 1 1\n1 -0\n",
        "p cnf 01 1\n1 0\n",
    ],
)
def test_parse_dimacs_errors(text):
    with pytest.raises(ValueError):
        parse_dimacs(text)


def test_parse_dimacs_error_names_line():
    with pytest.raises(ValueError, match="line 2"):
        parse_dimacs("p cnf 1 1\nc ok\n")


def _random_cnf(rng, max_n=8, max_k=10):
    n = rng.randint(1, max_n)
    clauses = []
    for _ in range(rng.randint(0, max_k)):
        width = rng.randint(0, min(4, n))
        vs = rng.sample(range(1, n + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return cnf(n, clauses)


def test_dimacs_emission_is_stable():
    rng = random.Random(2403)
    for _ in range(300):
        f = _random_cnf(rng)
        text = emit_dimacs(f)
        assert parse_dimacs(text) == f
        assert emit_dimacs(parse_dimacs(text)) == text


@given(st.integers(1, 6), st.data())
def test_dimacs_round_trip_property(n, data):
    clauses = data.draw(
        st.lists(
            st.lists(
                st.integers(-n, n).filter(lambda x: x != 0), max_size=4
            ),
            max_size=6,
        )
    )
    f = cnf(n, clauses)
    assert parse_dimacs(emit_dimacs(f)) == f


# ---------------------------------------------------------------------------
# circuits and gate lists


def cnf_to_circuit(f: Cnf) -> Circuit:
    """Structural translation; agrees with eval_cnf on every assignment."""
    b = CircuitBuilder(f.n)
    return b.build(b.cnf_circuit(f))


def test_cnf_circuit_agrees_with_eval_cnf():
    rng = random.Random(517)
    for _ in range(200):
        f = _random_cnf(rng, max_n=10, max_k=8)
        c = cnf_to_circuit(f)
        for _ in range(20):
            a = [rng.randint(0, 1) for _ in range(f.n)]
            assert eval_circuit(c, a) == eval_cnf(f, a)


def test_cnf_circuit_agrees_exhaustively_small():
    for n in (1, 2, 3):
        pool = _normalized_clauses(n)
        rng = random.Random(n)
        for _ in range(50):
            f = Cnf(n, tuple(rng.choice(pool) for _ in range(rng.randint(0, 3))))
            c = cnf_to_circuit(f)
            for bits in itertools.product((0, 1), repeat=n):
                assert eval_circuit(c, bits) == eval_cnf(f, bits)


def test_gate_list_round_trip():
    b = CircuitBuilder(2)
    root = b.imp(b.or_(b.var(1), b.not_(b.var(2))), b.and_(b.var(2), b.const(1)))
    c = b.build(root)
    again = parse_gates(emit_gates(c))
    assert again == c
    assert emit_gates(again) == emit_gates(c)


def test_gate_list_output_not_last_is_refused():
    # emit_gates writes the output as the last gate, so no other text names it
    text = (
        "inputs 2\n"
        "g0 := var 1\n"
        "g1 := var 2\n"
        "g2 := and g0 g1\n"
        "g3 := var 1\n"  # a duplicate of g0
        "g4 := or g3 g1\n"
        "g5 := not g4\n"
        "out g4\n"
    )
    with pytest.raises(ValueError, match="^line 8:"):
        parse_gates(text)


@st.composite
def builder_dags(draw, n_vars=3):
    """A builder holding random gates over ``n_vars`` inputs, and one of its nodes."""
    b = CircuitBuilder(n_vars)
    ids = [b.var(draw(st.integers(1, n_vars)))]
    binary = {"and": b.and_, "or": b.or_, "imp": b.imp}
    for kind in draw(st.lists(st.sampled_from(GATE_KINDS), max_size=14)):
        if kind == "var":
            ids.append(b.var(draw(st.integers(1, n_vars))))
        elif kind == "const":
            ids.append(b.const(draw(st.integers(0, 1))))
        elif kind == "not":
            ids.append(b.not_(draw(st.sampled_from(ids))))
        else:
            ids.append(binary[kind](draw(st.sampled_from(ids)), draw(st.sampled_from(ids))))
    return b, draw(st.sampled_from(ids))


@given(builder_dags())
def test_gate_walk_reproduces_the_cone(dag):
    b, root = dag
    c = b.build(root)
    assert parse_gates(emit_gates(c)) == c
    arena = CircuitBuilder(c.n_vars)
    top = arena.import_circuit(c)
    assert arena.build(top) == c


def test_gate_list_rejects_forward_reference():
    with pytest.raises(ValueError):
        parse_gates("inputs 1\ng0 := not g1\ng1 := var 1\nout g0\n")


@pytest.mark.parametrize(
    "text,line",
    [
        ("inputs x\ng0 := const 1\nout g0\n", 1),
        ("inputs 1\ng0 := var x\nout g0\n", 2),
        ("inputs 1\ng0 := const x\nout g0\n", 2),
        ("inputs 1\ng0 := var 1\ng1 := var 2\nout g1\n", 3),
        ("inputs 1\ng0 := const 1\ng1 := and g0\nout g1\n", 3),
        ("inputs 1\ng0 := var 1\nout g0\nout g0\n", 3),
        ("inputs 12\ng0 := var 1_0\nout g0\n", 2),
        ("inputs 1\ng0 := var \u0661\nout g0\n", 2),
        ("inputs 1\ng0 := var +1\nout g0\n", 2),
        ("inputs 1\ng0 := var 1\ng1 := not g+0\nout g1\n", 3),
        ("inputs 01\ng0 := var 1\nout g0\n", 1),
        ("inputs 1\ng0 := var 01\nout g0\n", 2),
        ("inputs 1\ng0 := var 1\ng1 := not g00\nout g1\n", 3),
        ("inputs 1\ng0 := var 1\ng1 := not g-0\nout g1\n", 3),
    ],
)
def test_gate_list_errors_name_their_line(text, line):
    with pytest.raises(ValueError, match=f"line {line}:"):
        parse_gates(text)


def test_builder_hash_consing_dedups():
    b = CircuitBuilder(2)
    x = b.and_(b.var(1), b.var(2))
    y = b.and_(b.var(1), b.var(2))
    assert x == y


def test_builder_rejects_out_of_range_var():
    b = CircuitBuilder(1)
    with pytest.raises(ValueError):
        b.var(2)


def test_negative_input_count_is_a_value_error():
    with pytest.raises(ValueError):
        parse_gates("inputs -3\ng0 := const 1\nout g0\n")
    for make, args in ((Circuit, (-1, (("const", 1),))), (CircuitBuilder, (-1,)), (Cnf, (-1, ()))):
        with pytest.raises(ValueError):
            make(*args)


# ---------------------------------------------------------------------------
# malformed text

PROOF_TARGET = cnf(2, [[1, 2], [-2], [-1]])


def _parse_and_check_proof(text):
    proof = parse_proof(text, PROOF_TARGET)
    for mode in ("strict", "weakening"):
        check_refutation(PROOF_TARGET, proof, mode=mode)
    return proof


# Valid texts for the mutations below to start from, with their readers and
# emitters.
VALID_TEXTS = [
    (parse_dimacs, emit_dimacs, "p cnf 3 3\n1 -2 0\n2 3 0\n-1 -3 0\n"),
    (parse_gates, emit_gates, "inputs 2\ng0 := var 1\ng1 := var 2\ng2 := and g0 g1\n"
                              "g3 := not g2\ng4 := imp g3 g0\nout g4\n"),
    (_parse_and_check_proof, emit_proof, "A 0\nA 1\nR 0 1 2 : 1\nA 2 : -1 2\nR 2 3 1 : 2\n"),
]
TOKENS = st.sampled_from(
    [" ", "\n", "\t", "\r", "0", "-", "1", "-3", "9" * 20, "1.5", "p", "cnf", "c", "g", "g-1", "g9",
     ":=", ":", "A", "R", "inputs", "out", "var", "not", "const", "x", "\u00e9", "\u0663"]
)


@st.composite
def mutated_texts(draw):
    read, emit, text = draw(st.sampled_from(VALID_TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 6)))
        text = text[:i] + draw(st.one_of(st.just(""), TOKENS)) + text[j:]
    return read, emit, text


@settings(deadline=None, max_examples=500)
@given(mutated_texts())
def test_malformed_text_is_a_value_error(case):
    # DIMACS, gate-list and proof readers raise ValueError or read what
    # their emitter writes back byte for byte, and a proof that reads is
    # checked to a report: never another exception
    read, emit, text = case
    try:
        value = read(text)
    except ValueError:
        return
    assert emit(value) == text


# Texts that no emitter writes, with the line the reader names: the four
# forms the readers once took (doubled spaces, a leading tab, a comment line
# and no final newline), clauses out of order or with a repeated literal, an
# axiom spelled out, an output before the last gate, and CRLF line ends.
REFUSED = [
    (parse_dimacs, "p cnf 3 2\n1  -2 0\n3 0\n", 2),
    (parse_dimacs, "p cnf 3 2\n\t1 -2 0\n3 0\n", 2),
    (parse_dimacs, "p cnf 3 2\n1 -2 0\nc last\n3 0\n", 3),
    (parse_dimacs, "p cnf 3 2\n1 -2 0\n3 0", 3),
    (parse_dimacs, "p cnf 3 2\n-2 1 0\n3 0\n", 2),
    (parse_dimacs, "p cnf 3 2\n1 -2 0\n3 3 0\n", 3),
    (parse_dimacs, "p cnf 3 2\r\n1 -2 0\r\n3 0\r\n", 1),
    (parse_gates, "inputs 2\ng0 := var 1\ng1 :=  var 2\ng2 := or g0 g1\nout g2\n", 3),
    (parse_gates, "inputs 2\n\tg0 := var 1\ng1 := var 2\ng2 := or g0 g1\nout g2\n", 2),
    (parse_gates, "inputs 2\ng0 := var 1\nc gate\ng1 := var 2\ng2 := or g0 g1\nout g2\n", 3),
    (parse_gates, "inputs 2\ng0 := var 1\ng1 := var 2\ng2 := or g0 g1\nout g2", 5),
    (parse_gates, "inputs 2\ng0 := var 1\nout g0\ng1 := var 2\n", 3),
    (parse_gates, "inputs 2\r\ng0 := var 1\r\nout g0\r\n", 1),
    (parse_proof, "A 0\nA 1\nR 0 1 2 :  1\n", 3),
    (parse_proof, "A 0\n\tA 1\nR 0 1 2 : 1\n", 2),
    (parse_proof, "c proof\nA 0\nA 1\nR 0 1 2 : 1\n", 1),
    (parse_proof, "A 0\nA 1\nR 0 1 2 : 1", 3),
    (parse_proof, "A 0\nA 1\nR 0 1 2 : 1\nA 2 : 2 -1\n", 4),
    (parse_proof, "A 0\nA 1\nR 0 1 2 : 1 1\n", 3),
    (parse_proof, "A 0\nA 1 : -2\n", 2),
    (parse_proof, "A 0\r\nA 1\r\n", 1),
    (parse_proof, "", 1),
]


@pytest.mark.parametrize("read, text, lineno", REFUSED)
def test_text_no_emitter_writes_is_refused(read, text, lineno):
    args = (PROOF_TARGET,) if read is parse_proof else ()
    with pytest.raises(ValueError, match=f"^line {lineno}:"):
        read(text, *args)


def test_proof_with_no_lines_reads_back():
    empty = ResolutionProof(PROOF_TARGET, ())
    assert emit_proof(empty) == "\n"
    assert parse_proof("\n", PROOF_TARGET) == empty


# ---------------------------------------------------------------------------
# restriction and shifting


def test_restrict_cnf():
    f = cnf(2, [[1, 2], [-1], [-2]])
    assert restrict_cnf(f, {2: 0}) == cnf(2, [[1], [-1]])
    assert restrict_cnf(f, {}) == f


def test_shift_cnf_disjoint_union():
    a = cnf(1, [[1]])
    b = shift_cnf(cnf(1, [[-1]]), 1, 2)
    assert b == Cnf(2, (frozenset({-2}),))
    with pytest.raises(ValueError):
        shift_cnf(cnf(2, [[1]]), 1, 2)


# ---------------------------------------------------------------------------
# the proof kernels pause the cyclic collector


@pytest.fixture
def collector_state():
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_nogc_pauses_then_restores_the_collector(collector_state, enabled):
    seen = []

    @nogc
    def inner():
        seen.append(gc.isenabled())

    @nogc
    def outer(fail):
        inner()
        seen.append(gc.isenabled())
        if fail:
            raise KeyError("inside")
        return "done"

    (gc.enable if enabled else gc.disable)()
    assert outer(False) == "done"
    assert seen == [False, False] and gc.isenabled() == enabled
    with pytest.raises(KeyError):
        outer(True)
    assert gc.isenabled() == enabled


def _kernel_calls():
    """(label, call) for each paused kernel: passing, failing, raising, and
    the generator that calls a checker inside its own pause."""
    f = cnf(2, [[1, 2], [-1, 2]])
    pair = cnf(1, [[1], [-1]])
    good = ResolutionProof(
        pair,
        ((frozenset({1}), ("A", 0)), (frozenset({-1}), ("A", 1)), (frozenset(), ("R", 0, 1, 1))),
    )
    bad = ResolutionProof(pair, good.lines[:2])
    rfn = cf_prove_rfn_res(1, 1, 1, check=False)
    return [
        ("cf_prove_rfn_res", lambda: cf_prove_rfn_res(1, 1, 1)),
        ("cf_check ok", lambda: cf_check(rfn)),
        ("cf_check failing", lambda: cf_check(CfProof(rfn.arena, rfn.lines[:2] + (None,)))),
        ("cf_check raising", lambda: cf_check(None)),
        ("check_refutation ok", lambda: check_refutation(pair, good)),
        ("check_refutation failing", lambda: check_refutation(pair, bad)),
        ("check_refutation raising", lambda: check_refutation(pair, good, mode="bogus")),
        ("refute_prf_nontaut", lambda: refute_prf_nontaut(f, (0, 1), 3)),
        ("refute_prf_nontaut raising", lambda: refute_prf_nontaut(f, (0, 2), 3)),
    ]


@pytest.mark.parametrize("enabled", [True, False])
def test_proof_kernels_restore_the_collector(collector_state, enabled):
    for label, call in _kernel_calls():
        (gc.enable if enabled else gc.disable)()
        if "raising" in label:
            with pytest.raises((AttributeError, ValueError)):
                call()
        elif "failing" in label:
            assert not call().ok
        else:
            call()
        assert gc.isenabled() == enabled, label


def test_checker_nested_in_the_generator_runs_paused(collector_state, monkeypatch):
    seen = []
    real = proofgen.check_refutation

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(proofgen, "check_refutation", spy)
    gc.enable()
    assert len(refute_prf_nontaut(cnf(2, [[1, 2], [-1, 2]]), (0, 1), 3)) > 0
    assert seen == [False] and gc.isenabled()


def _text_calls():
    """(label, call) for each paused text-layer function, on a prf formula
    and its refutation; the raising calls read malformed text."""
    f = cnf(2, [[1, 2], [-1, 2]])
    code = encode_cnf(f, strict=False)
    proof = refute_prf_nontaut(f, (0, 1), 3)
    g = proof.target
    dimacs, text = emit_dimacs(g), emit_proof(proof)
    return [
        ("build_prf", lambda: build_prf(3, 2, 2, code)),
        ("emit_dimacs", lambda: emit_dimacs(g)),
        ("parse_dimacs", lambda: parse_dimacs(dimacs)),
        ("parse_dimacs raising", lambda: parse_dimacs(dimacs + "1 x 0\n")),
        # a fresh proof object, so that the printer runs
        ("emit_proof", lambda: emit_proof(ResolutionProof(g, proof.lines))),
        ("parse_proof", lambda: parse_proof(text, g)),
        ("parse_proof raising", lambda: parse_proof(text + "R 0 0\n", g)),
    ]


@pytest.mark.parametrize("enabled", [True, False])
def test_text_layer_runs_paused_and_restores_the_collector(collector_state, enabled):
    starts = []

    def on_collect(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    threshold = gc.get_threshold()
    gc.set_threshold(5, *threshold[1:])
    try:
        for label, call in _text_calls():
            (gc.enable if enabled else gc.disable)()
            with pytest.raises(ValueError) if "raising" in label else contextlib.nullcontext():
                # Garbage left by earlier tests, and what pytest.raises
                # allocates, must not count against the call.
                gc.collect()
                starts.clear()
                gc.callbacks.append(on_collect)
                try:
                    call()
                finally:
                    gc.callbacks.remove(on_collect)
            assert gc.isenabled() == enabled, label
            # The readers and the encoder keep hundreds of new containers,
            # which would start a collection every five; paused, one can
            # start only on the way in and one on the way out.
            assert len(starts) <= 2, (label, len(starts))
    finally:
        gc.set_threshold(*threshold)
