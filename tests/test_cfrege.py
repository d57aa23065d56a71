"""
The circuit-Frege kernel: schema instantiation, line checking, canonical
forms, substitution, the reflection proofs, and their
localization at a fixed CNF.
"""

import hashlib
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import proofbench.cfcheck as cfcheck
import proofbench.cfrege as cfrege
from proofbench.cfcheck import CanonTable, CfProof, SCHEMAS, cf_check, instantiate_schema
from proofbench.cfrege import (
    cf_prove_rfn_res,
    cf_prove_sat_equiv,
    cf_serialize,
    cf_substitute,
    lrfn_from_rfn,
)
from proofbench.core import (
    GATE_KINDS,
    Circuit,
    CircuitBuilder,
    _eval_packed,
    _input_column,
    cnf,
    cone,
    eval_circuit,
    nogc,
)
from proofbench.encoder import build_lrfn, build_rfn
from proofbench.oracle import is_tautology

PAIR = cnf(1, [[1], [-1]])


def _tt(c: Circuit) -> int:
    """All ``2**n_vars`` outputs of ``c`` in one integer, the output under
    assignment ``a`` at bit ``a``: the packed evaluator on the whole table."""
    n = c.n_vars
    return next(_eval_packed(c, [(lambda i: _input_column(i, n), (1 << (1 << n)) - 1)]))


# ---------------------------------------------------------------------------
# schemas and line checking


def test_every_schema_is_a_tautology():
    for idx, (arity, _) in enumerate(SCHEMAS):
        b = CircuitBuilder(arity)
        node = instantiate_schema(b, idx, tuple(b.var(i) for i in range(1, arity + 1)))
        assert _tt(b.build(node)) == (1 << (1 << arity)) - 1


def test_single_schema_line_checks():
    arena = CircuitBuilder(2)
    p, q = arena.var(1), arena.var(2)
    node = instantiate_schema(arena, 0, (p, q))
    proof = CfProof(arena, ((node, ("schema", 0, (p, q))),))
    report = cf_check(proof)
    assert report.ok and report.lines == 1 and report.bit_size == 0


def test_wrong_schema_shape_rejected():
    arena = CircuitBuilder(2)
    p, q = arena.var(1), arena.var(2)
    node = arena.imp(p, q)  # not an instance of schema 0
    report = cf_check(CfProof(arena, ((node, ("schema", 0, (p, q))),)))
    assert not report.ok and report.step == 0
    assert "does not match" in report.reason


def test_mp_wrong_major_rejected():
    arena = CircuitBuilder(2)
    p, q = arena.var(1), arena.var(2)
    s0 = instantiate_schema(arena, 0, (p, q))
    lines = ((s0, ("schema", 0, (p, q))), (q, ("mp", 0, 0)))
    report = cf_check(CfProof(arena, lines))
    assert not report.ok and report.step == 1
    assert "major premise" in report.reason


def test_mp_detaches():
    arena = CircuitBuilder(1)
    p = arena.var(1)
    top = arena.const(1)
    lines = (
        (top, ("schema", 9, ())),
        (instantiate_schema(arena, 0, (top, p)), ("schema", 0, (top, p))),
        (arena.imp(p, top), ("mp", 1, 0)),
    )
    assert cf_check(CfProof(arena, lines)).ok


def test_canon_restatement_line():
    arena = CircuitBuilder(0)
    lines = (
        (arena.const(1), ("schema", 9, ())),
        (arena.not_(arena.const(0)), ("canon", 0)),
    )
    proof = CfProof(arena, lines)
    assert cf_check(proof).ok
    text = cf_serialize(proof)
    assert text.startswith("inputs 0\n")
    assert "\nS 9 : g" in text and "\nC 0 : g" in text
    assert text == cf_serialize(proof)  # emit is deterministic


def test_premise_index_range_checked():
    arena = CircuitBuilder(0)
    report = cf_check(CfProof(arena, ((arena.const(1), ("mp", 0, 0)),)))
    assert not report.ok and "out of range" in report.reason
    report = cf_check(CfProof(arena, ((arena.const(1), ("canon", 3)),)))
    assert not report.ok and "out of range" in report.reason


@pytest.mark.parametrize(
    "just",
    [
        ("mp",),
        ("canon",),
        ("schema", 0),
        ("schema", 0, (99999, 99998)),
        ("schema", 0, ("a", 0)),
        ("schema", 0, (-5, 0)),
        ("schema", -1, ()),
        ("schema", "a", ()),
        ("ext", 0, ()),  # no longer a rule, so refused as unknown
        ("mp", "a", 0),
        ("canon", None),
        ("canon", 0.0),
    ],
)
def test_malformed_justification_is_a_failing_report(just):
    proof = cf_prove_rfn_res(1, 1, 1, check=False)
    lines = list(proof.lines)
    lines[2] = (lines[2][0], just)
    bad = CfProof(proof.arena, tuple(lines))
    nodes = len(proof.arena.nodes)
    report = cf_check(bad)
    assert not report.ok and report.step == 2 and report.bit_size == 0
    assert len(proof.arena.nodes) == nodes  # nothing was hash-consed


@pytest.mark.parametrize("node", [-1, 10**6, "g1", None])
def test_line_circuit_outside_the_arena_is_a_failing_report(node):
    proof = cf_prove_rfn_res(1, 1, 1, check=False)
    lines = proof.lines[:2] + ((node, ("canon", 0)),)
    report = cf_check(CfProof(proof.arena, lines))
    assert not report.ok and report.step == 2


JUST_ATOMS = st.one_of(
    st.integers(-3, 2000), st.integers(), st.text(max_size=2), st.floats(), st.none(), st.booleans()
)
JUST_ARGS = st.one_of(
    JUST_ATOMS, st.lists(JUST_ATOMS, max_size=4).map(tuple), st.lists(JUST_ATOMS, max_size=3)
)
# Justifications of the right length with arguments of any type, and
# tuples of any rule and length.
RANDOM_JUSTS = st.one_of(
    st.tuples(st.just("schema"), JUST_ATOMS, JUST_ARGS),
    st.tuples(st.just("mp"), JUST_ATOMS, JUST_ATOMS),
    st.tuples(st.just("canon"), JUST_ATOMS),
    st.builds(
        lambda rule, rest: (rule,) + tuple(rest),
        st.one_of(st.sampled_from(("schema", "mp", "canon")), JUST_ATOMS),
        st.lists(JUST_ARGS, max_size=3),
    ),
    st.just(()),
)


def test_random_justification_is_a_failing_report():
    proof = cf_prove_rfn_res(1, 1, 1, check=False)

    @settings(deadline=None)
    @given(just=RANDOM_JUSTS)
    def prop(just):
        # A bare variable is no theorem, so no justification can derive it.
        lines = proof.lines[:2] + ((proof.arena.var(1), just),)
        report = cf_check(CfProof(proof.arena, lines))
        assert not report.ok and report.step == 2

    prop()


# Anything but a (circuit, justification) pair: atoms, lists, and tuples of
# another length.
MALFORMED_LINES = st.one_of(
    JUST_ATOMS,
    st.lists(JUST_ARGS, max_size=3),
    st.lists(JUST_ARGS, max_size=4).filter(lambda xs: len(xs) != 2).map(tuple),
)


def test_malformed_line_is_a_failing_report():
    proof = cf_prove_rfn_res(1, 1, 1, check=False)

    @settings(deadline=None)
    @given(line=MALFORMED_LINES)
    def prop(line):
        lines = proof.lines[:2] + (line,) + proof.lines[2:]
        report = cf_check(CfProof(proof.arena, lines))
        assert not report.ok and report.step == 2 and report.bit_size == 0

    prop()


# Gates that no rule accepts, some of them given as a function of their own
# id; the ``var`` ones are malformed in an arena over one input.
MALFORMED_GATES = (
    ("and", 0),  # too few inputs
    ("not", 0, 1),  # too many inputs
    ("var",),
    (),
    lambda me: ("not", me),  # names itself
    lambda me: ("or", 0, me + 1),  # names a later gate
    ("imp", -1, 0),  # a negative id would index from the end
    ("xor", 0, 1),
    ("var", 0),
    ("var", 2),
    ("const", 2),
    ("and", "g0", 0),
    ("not", 0.5),
    ("not", 1.0),  # an id equal to an int is still no int
    ("var", True),
    ["and", 0, 0],  # a list is no gate
    ("const", True),
    ("const", 1.0),
)


@pytest.mark.parametrize("gate", MALFORMED_GATES)
def test_malformed_arena_is_a_failing_report(gate):
    # The true axiom, then a restatement of it naming ``gate``, appended to
    # the arena as it is, the way a proof built elsewhere may hold it.
    arena = CircuitBuilder(1)
    true = arena.const(1)
    arena.const(0)
    me = len(arena.nodes)
    arena.nodes.append(gate(me) if callable(gate) else gate)
    report = cf_check(CfProof(arena, ((true, ("schema", 9, ())), (me, ("canon", 0)))))
    assert not report.ok and report.step == 1 and "malformed arena" in report.reason
    assert f"gate {me}" in report.reason
    with pytest.raises(ValueError, match=f"gate {me}"):
        Circuit(1, tuple(arena.nodes))


# Gates of the right shape over small ids, most of them well formed, and
# tuples of any kind and length with fields of any type.
SMALL_IDS = st.integers(-1, 12)
RANDOM_GATES = st.one_of(
    st.tuples(st.just("var"), st.integers(-1, 3)),
    st.tuples(st.just("const"), st.integers(-1, 2)),
    st.tuples(st.just("not"), SMALL_IDS),
    st.tuples(st.sampled_from(("and", "or", "imp", "xor")), SMALL_IDS, SMALL_IDS),
    st.builds(
        lambda kind, rest: (kind,) + tuple(rest),
        st.sampled_from(("var", "const", "not", "and", "or", "imp", "xor")),
        st.lists(st.one_of(SMALL_IDS, st.integers(), st.none(), st.text(max_size=1), st.floats()), max_size=3),
    ),
)


@settings(deadline=None)
@given(gates=st.lists(RANDOM_GATES, min_size=1, max_size=8), rule=st.sampled_from(("canon", "schema")))
def test_random_arena_gates_get_a_report(gates, rule):
    # Grow a small arena by random gate tuples, valid or not, and name the
    # last one in a line: the checker returns a report rather than raise or
    # loop, and a line it accepts is a tautology.
    arena = CircuitBuilder(2)
    true = arena.const(1)
    arena.imp(arena.var(1), arena.not_(arena.var(2)))
    arena.nodes.extend(gates)
    node = len(arena.nodes) - 1
    if rule == "canon":
        line = (node, ("canon", 0))
    else:
        line = (instantiate_schema(arena, 0, (node, true)), ("schema", 0, (node, true)))
    report = cf_check(CfProof(arena, ((true, ("schema", 9, ())), line)))
    if report.ok:
        assert _tt(arena.build(line[0])) == 0b1111
    else:
        assert report.step == 1


# Besides RANDOM_GATES, the shapes a gate list may hold by mistake: empty
# and list-shaped gates, and bool or float fields, most of them equal to a
# valid int.
FIELDS = st.one_of(st.booleans(), st.sampled_from((0.0, 1.0, 2.0, 0.5)), st.integers(0, 4))
ANY_GATES = st.one_of(
    RANDOM_GATES,
    RANDOM_GATES.map(list),
    st.just(()),
    st.tuples(st.sampled_from(("var", "const", "not")), FIELDS),
    st.tuples(st.sampled_from(("and", "or", "imp")), FIELDS, FIELDS),
)


def check_gate(x: int, g, n_vars: int) -> None:
    """The gate rule, written out on its own as a reference for
    ``core.check_cone``: raise ``ValueError`` naming gate ``x`` unless
    ``g`` is well formed as gate ``x`` of a circuit over inputs
    ``1..n_vars``.

    A well-formed gate is a tuple of a kind in ``GATE_KINDS`` with exactly
    its fields: an ``int`` input in ``1..n_vars``, an ``int`` constant 0 or
    1, or ``int`` children below ``x``, which rules out cycles.
    """
    if type(g) is not tuple or not g:
        raise ValueError(f"gate {x}: not a gate tuple")
    kind = g[0]
    if kind not in GATE_KINDS:
        raise ValueError(f"gate {x}: unknown kind {kind!r}")
    if len(g) != (3 if kind in ("and", "or", "imp") else 2):
        raise ValueError(f"gate {x}: {kind} with {len(g) - 1} fields")
    if kind == "var":
        if not (type(g[1]) is int and 1 <= g[1] <= n_vars):
            raise ValueError(f"gate {x}: input {g[1]!r} out of range")
    elif kind == "const":
        if not (type(g[1]) is int and 0 <= g[1] <= 1):
            raise ValueError(f"gate {x}: bad constant {g[1]!r}")
    else:
        for a in g[1:]:
            if not (type(a) is int and 0 <= a < x):
                raise ValueError(f"gate {x}: bad reference {a!r}")


@settings(deadline=None, max_examples=200)
@given(gates=st.lists(ANY_GATES, min_size=1, max_size=6))
def test_circuit_and_cf_check_refuse_the_same_gates(gates):
    # Appending a gate to a valid gate list: Circuit, and cf_check of a
    # line naming that gate, each refuse it exactly when the reference rule
    # does, with its message.  Accepted gates stay, so on ever larger
    # Circuits the one-bit evaluator must read the packed truth table.
    arena = CircuitBuilder(2)
    true = arena.const(1)
    arena.imp(arena.var(1), arena.not_(arena.var(2)))
    for g in gates:
        x = len(arena.nodes)
        try:
            check_gate(x, g, 2)
            refusal = None
        except ValueError as e:
            refusal = str(e)
        arena.nodes.append(g)
        report = cf_check(CfProof(arena, ((true, ("schema", 9, ())), (x, ("canon", 0)))))
        if refusal is not None:
            assert report.reason == f"malformed arena: {refusal}"
            with pytest.raises(ValueError) as e:
                Circuit(2, tuple(arena.nodes))
            assert str(e.value) == refusal
            arena.nodes.pop()
            continue
        assert report.ok or "malformed arena" not in report.reason
        c = Circuit(2, tuple(arena.nodes))
        table = _tt(c)
        for a in range(4):
            assert eval_circuit(c, (a & 1, a >> 1)) == bool(table >> a & 1)


# ---------------------------------------------------------------------------
# the checker reads the proof alone


def test_check_does_not_trust_the_builder_memo():
    # The hash-cons memo is the prover's state, not part of the proof: a
    # memo that names the bare variable x1 as an S1 instance, or an S1
    # instance overwritten by x1 after hash-consing, proves nothing.
    arena = CircuitBuilder(1)
    v = arena.var(1)
    arena._memo[("imp", v, arena.imp(v, v))] = v
    report = cf_check(CfProof(arena, ((v, ("schema", 0, (v, v))),)))
    assert not report.ok and report.step == 0
    assert report.reason == "line does not match its schema instance"

    arena = CircuitBuilder(1)
    v = arena.var(1)
    s1 = instantiate_schema(arena, 0, (v, v))
    arena.nodes[s1] = ("var", 1)
    report = cf_check(CfProof(arena, ((s1, ("schema", 0, (v, v))),)))
    assert not report.ok and report.step == 0
    assert report.reason == "line does not match its schema instance"


def test_check_leaves_the_arena_as_it_was():
    # Besides a whole proof, one line that is a schema instance only up to
    # canonical form: p | !p for S7 at (p, !p), whose instance
    # p -> (p | !p) is in no arena.
    arena = CircuitBuilder(1)
    p = arena.var(1)
    em = arena.or_(p, arena.not_(p))
    for proof in (
        cf_prove_rfn_res(2, 2, 2, check=False),
        CfProof(arena, ((em, ("schema", 6, (p, arena.not_(p)))),)),
    ):
        nodes, memo = list(proof.arena.nodes), dict(proof.arena._memo)
        assert cf_check(proof).ok
        assert proof.arena.nodes == nodes and proof.arena._memo == memo


@nogc
def _reference_check(proof: CfProof) -> tuple:
    """``(ok, step, reason)`` from the checker that canonizes every line:
    each line's circuit, each premise, and each schema instance, the
    instance built in canonical space from the canonical ids of its
    arguments.  Its walk is the canonical-form walk that put every gate to
    the reference rule ``check_gate`` as it came to the top of the stack."""
    arena = proof.arena
    nodes = arena.nodes
    lines = proof.lines
    ct = CanonTable(arena)
    memo: dict[int, int] = {}

    def canon(node: int) -> int:
        stack = [node]
        while stack:
            x = stack[-1]
            g = nodes[x]
            check_gate(x, g, arena.n_vars)
            kind = g[0]
            if kind == "var":
                memo[x] = ct._mk(("var", g[1]))
            elif kind == "const":
                memo[x] = ct.TRUE if g[1] else ct.FALSE
            elif kind == "not":
                ca = memo.get(g[1])
                if ca is None:
                    stack.append(g[1])
                    continue
                memo[x] = ct.not_(ca)
            else:
                _, a, b = g
                ca, cb = memo.get(a), memo.get(b)
                if ca is None or cb is None:
                    if ca is None:
                        stack.append(a)
                    if cb is None:
                        stack.append(b)
                    continue
                memo[x] = ct.imp(ca, cb) if kind == "imp" else ct.mk_op(kind, ca, cb)
            stack.pop()
        return memo[node]

    for t, line in enumerate(lines):
        if type(line) is not tuple or len(line) != 2:
            return False, t, "line is not a (circuit, justification) pair"
        node, just = line
        rule = just[0] if type(just) is tuple and just else None
        if type(rule) is not str or rule not in ("schema", "mp", "canon"):
            return False, t, f"unknown rule {rule!r}"
        if len(just) != (2 if rule == "canon" else 3):
            return False, t, f"malformed {rule} justification"
        if type(node) is not int or not 0 <= node < len(nodes):
            return False, t, f"line circuit {node!r} is not an arena node"
        try:
            if rule == "schema":
                idx, sigma = just[1], just[2]
                if type(idx) is not int or not 0 <= idx < len(SCHEMAS):
                    return False, t, f"schema index {idx!r} out of range"
                if not isinstance(sigma, (tuple, list)) or not all(
                    type(s) is int and 0 <= s < len(nodes) for s in sigma
                ):
                    return False, t, "schema arguments are not arena nodes"
                arity, make = SCHEMAS[idx]
                if len(sigma) != arity:
                    return False, t, f"bad instantiation: schema {idx} takes {arity} arguments, got {len(sigma)}"
                here = canon(node)
                if here != make(ct, *[canon(s) for s in sigma]):
                    return False, t, "line does not match its schema instance"
            elif rule == "mp":
                j1, j2 = just[1], just[2]
                if not (type(j1) is type(j2) is int and 0 <= j1 < t and 0 <= j2 < t):
                    return False, t, "premise index out of range"
                want = ct.imp(canon(lines[j2][0]), canon(node))
                if canon(lines[j1][0]) != want:
                    return False, t, "major premise does not imply this line"
            else:
                j = just[1]
                if type(j) is not int or not 0 <= j < t:
                    return False, t, "premise index out of range"
                if canon(lines[j][0]) != canon(node):
                    return False, t, "line is not a canonization of its premise"
        except (IndexError, TypeError, ValueError) as e:
            return False, t, f"malformed arena: {e}"
    return True, None, None


def _verdict(proof: CfProof) -> tuple:
    report = cf_check(proof)
    return report.ok, report.step, report.reason


def _line_kind(proof: CfProof, t: int) -> str:
    """Which way the checker takes line ``t`` of a proof the prover wrote."""
    nodes = proof.arena.nodes
    node, just = proof.lines[t]
    if just[0] == "schema":
        copy = CircuitBuilder(proof.arena.n_vars)
        copy.nodes, copy._memo = list(nodes), dict(proof.arena._memo)
        exact = instantiate_schema(copy, just[1], just[2]) == node
        return "schema, exact" if exact else "schema, up to form"
    if just[0] == "mp":
        exact = nodes[proof.lines[just[1]][0]] == ("imp", proof.lines[just[2]][0], node)
        return "mp, exact" if exact else "mp, up to form"
    return "canon"


MUTATIONS = ("node", "premise", "schema index", "line swap", "malformed gate", "gate overwrite")


def _mutant(proof: CfProof, rng: random.Random, kind: str, t: int) -> CfProof:
    """The first ``t + 41`` lines of ``proof`` with one change at line ``t``
    (a line swap moves a line from at most 40 further on), on a copy of its
    arena whose memo still describes the unchanged gates."""
    nodes = proof.arena.nodes
    lines = list(proof.lines)
    node, just = lines[t]
    arena = CircuitBuilder(proof.arena.n_vars)
    arena.nodes, arena._memo = list(nodes), dict(proof.arena._memo)
    if kind == "node":
        # another node, another line's node, or a gate appended to the arena
        other = rng.choice((rng.randrange(len(nodes)), lines[rng.randrange(t + 1)][0], len(nodes)))
        if other == len(nodes):
            gate = rng.choice(MALFORMED_GATES + (("not", rng.randrange(other)),))
            arena.nodes.append(gate(other) if callable(gate) else gate)
        lines[t] = (other, just)
    elif kind == "premise":
        pos = rng.randrange(1, len(just))
        lines[t] = (node, just[:pos] + (rng.randrange(t),) + just[pos + 1 :])
    elif kind == "schema index":
        lines[t] = (node, ("schema", rng.randrange(len(SCHEMAS))) + just[2:])
    elif kind == "line swap":
        u = min(len(lines) - 1, t + rng.randint(1, 40))
        lines[t], lines[u] = lines[u], lines[t]
    else:
        x = node if rng.random() < 0.5 else rng.choice(cone(nodes, [node]))
        if kind == "malformed gate":
            gate = rng.choice(MALFORMED_GATES)
            arena.nodes[x] = gate(x) if callable(gate) else gate
        else:
            arena.nodes[x] = rng.choice(
                [("var", rng.randint(1, arena.n_vars)), ("const", rng.randint(0, 1))]
                + ([("not", rng.randrange(x)), nodes[rng.randrange(x)]] if x else [])
            )
    return CfProof(arena, tuple(lines[: t + 41]))


def test_check_matches_the_canonize_everything_reference():
    # Seeded single mutations of one reflection proof get the same
    # (ok, step, reason) from cf_check as from the reference.  The mutated
    # line is drawn from the first 800 lines, where every way through the
    # checker occurs, so each check stops early; the later schema lines that
    # match only up to canonical form, and the last line, are mutated too.
    proof = cf_prove_rfn_res(2, 2, 2, check=False)
    rng = random.Random(19)
    kinds = [_line_kind(proof, t) for t in range(len(proof))]
    late = [t for t in range(800, len(proof)) if kinds[t] in ("schema, up to form", "canon")]
    seen = Counter()
    for trial in range(2000 + 6 * len(late)):
        kind = MUTATIONS[trial % len(MUTATIONS)]
        if trial < 2000:
            t = rng.randrange(800)
        else:
            t = late[(trial - 2000) // 6]
        if kind == "premise" and kinds[t].startswith("schema"):
            kind = "schema index"
        elif kind == "schema index" and not kinds[t].startswith("schema"):
            kind = "premise"
        mutant = _mutant(proof, rng, kind, t)
        assert _verdict(mutant) == _reference_check(mutant), (kind, t)
        seen[kind, kinds[t]] += 1
    for kind in ("node", "malformed gate", "gate overwrite"):
        for line in ("schema, exact", "mp, exact", "mp, up to form"):
            assert seen[kind, line] >= 20, (kind, line)
        assert seen[kind, "schema, up to form"] and seen[kind, "canon"]


def test_check_matches_the_reference_on_whole_proofs():
    proofs = [cf_prove_rfn_res(*shape, check=False) for shape in itertools.product((1, 2, 3), repeat=3)]
    proofs.append(lrfn_from_rfn(proofs[-1], _seeded_cnf(5, 3, 3)))
    for proof in proofs:
        assert _verdict(proof) == _reference_check(proof) == (True, None, None)


def test_check_canonizes_under_a_third_of_the_arena(monkeypatch):
    # Lines that are literally their rule's instance are never canonized:
    # 9,835 of the 31,033 nodes at (3,3,3) are.
    tables = []

    class Recorded(CanonTable):
        def __init__(self, arena):
            super().__init__(arena)
            tables.append(self)

    proof = cf_prove_rfn_res(3, 3, 3, check=False)
    monkeypatch.setattr(cfcheck, "CanonTable", Recorded)
    assert cf_check(proof).ok
    assert len(tables) == 1 and 3 * len(tables[0]._memo) < len(proof.arena.nodes)


# ---------------------------------------------------------------------------
# canonical forms


def test_canon_equality_is_semantic_equality():
    rng = random.Random(11)
    arena = CircuitBuilder(3)
    ct = CanonTable(arena)
    pool = [arena.var(i) for i in (1, 2, 3)] + [arena.const(0), arena.const(1)]
    for _ in range(300):
        op = rng.choice(("not", "and", "or", "imp"))
        if op == "not":
            pool.append(arena.not_(rng.choice(pool)))
        else:
            pool.append(getattr(arena, op + "_" if op != "imp" else op)(rng.choice(pool), rng.choice(pool)))
    by_canon = {}
    for node in pool:
        by_canon.setdefault(ct.canon(node), []).append(node)
    tables = {node: _tt(arena.build(node)) for node in pool}
    for group in by_canon.values():
        assert len({tables[n] for n in group}) == 1
    # and plenty of distinct nodes actually collided, so this tested something
    assert sum(len(g) - 1 for g in by_canon.values() if len(g) > 1) > 30
    for cid, group in by_canon.items():
        if cid == ct.TRUE:
            assert all(tables[n] == 255 for n in group)
        if cid == ct.FALSE:
            assert all(tables[n] == 0 for n in group)


def test_canon_collapses_standard_identities():
    arena = CircuitBuilder(2)
    ct = CanonTable(arena)
    x, y = arena.var(1), arena.var(2)
    assert ct.canon(arena.or_(x, arena.not_(x))) == ct.TRUE
    assert ct.canon(arena.and_(x, arena.not_(x))) == ct.FALSE
    assert ct.canon(arena.or_(x, y)) == ct.canon(arena.or_(y, x))
    assert ct.canon(arena.and_(x, arena.and_(x, y))) == ct.canon(arena.and_(y, x))
    assert ct.canon(arena.imp(x, y)) == ct.canon(arena.or_(arena.not_(x), y))
    assert ct.canon(arena.not_(arena.not_(x))) == ct.canon(x)


class _SortSetCanon(CanonTable):
    """Reference canonizer: ``mk_op`` flattens, sorts and deduplicates
    every call, and scans the whole result for complement pairs.  ``calls``
    counts them, so a test can tell that ``canon`` and ``imp`` reached
    this ``mk_op`` rather than going around it."""

    calls = 0

    def mk_op(self, op, a, b):
        self.calls += 1
        ann = self.FALSE if op == "and" else self.TRUE
        ident = self.TRUE if op == "and" else self.FALSE
        flat = []
        for x in (a, b):
            form = self._forms[x]
            if form[0] == op:
                flat.extend(form[1])
            elif x == ann:
                return ann
            elif x != ident:
                flat.append(x)
        out = sorted(set(flat))
        for x in out:
            form = self._forms[x]
            if form[0] == "not" and form[1] in out:
                return ann
        if not out:
            return ident
        if len(out) == 1:
            return out[0]
        return self._mk((op, tuple(out)))


def _expanded(table: CanonTable, cid: int, memo: dict) -> tuple:
    """The canonical form ``cid`` with every child id replaced by its form."""
    got = memo.get(cid)
    if got is None:
        form = table._forms[cid]
        if form[0] == "not":
            got = ("not", _expanded(table, form[1], memo))
        elif form[0] in ("and", "or"):
            got = (form[0], tuple(_expanded(table, c, memo) for c in form[1]))
        else:
            got = form
        memo[cid] = got
    return got


@st.composite
def canon_arenas(draw):
    """An arena over 1-3 inputs and both constants, grown by random gates,
    negations of earlier nodes, and left-deep and/or chains up to 8 wide,
    so that wide children, duplicates and complement pairs all occur."""
    n = draw(st.integers(1, 3))
    arena = CircuitBuilder(n)
    pool = [arena.var(i) for i in range(1, n + 1)] + [arena.const(0), arena.const(1)]
    pick = st.integers(0, 10**6).map(lambda i: pool[i % len(pool)])
    gates = {"and": arena.and_, "or": arena.or_, "imp": arena.imp}
    for kind in draw(st.lists(st.sampled_from(("not", "and", "or", "imp", "chain")), max_size=30)):
        if kind == "not":
            pool.append(arena.not_(draw(pick)))
        elif kind == "chain":
            gate = gates[draw(st.sampled_from(("and", "or")))]
            node = draw(pick)
            for x in draw(st.lists(pick, min_size=1, max_size=7)):
                node = gate(node, x)
                pool.append(node)
        else:
            pool.append(gates[kind](draw(pick), draw(pick)))
    return arena, pool


@settings(deadline=None, max_examples=300)
@given(canon_arenas())
def test_canonical_forms_match_the_sort_set_reference(drawn):
    arena, pool = drawn
    ct, ref = CanonTable(arena), _SortSetCanon(arena)
    got_memo, ref_memo = {}, {}
    for node in pool:
        got, want = ct.canon(node), ref.canon(node)
        assert _expanded(ct, got, got_memo) == _expanded(ref, want, ref_memo)
        assert got == want
    # the same forms were interned, in the same order
    assert ct._forms == ref._forms
    # every binary gate went through the reference's mk_op, and the check
    # of imp on its own does too
    binary = sum(1 for g in arena.nodes if g[0] in ("and", "or", "imp"))
    assert ref.calls == binary
    x = ref.canon(pool[0])
    assert ref.imp(x, x) == ct.imp(x, x) == ct.TRUE and ref.calls == binary + 1


# ---------------------------------------------------------------------------
# substitution and explosion


def _random_circuit(rng: random.Random, n: int) -> Circuit:
    b = CircuitBuilder(n)
    pool = [b.var(i) for i in range(1, n + 1)]
    for _ in range(rng.randint(1, 5)):
        op = rng.choice(("not", "and", "or", "imp"))
        if op == "not":
            pool.append(b.not_(rng.choice(pool)))
        else:
            f = getattr(b, op + "_" if op != "imp" else op)
            pool.append(f(rng.choice(pool), rng.choice(pool)))
    return b.build(pool[-1])


def test_substitution_preserves_length_validity_semantics():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        f = cnf(
            n,
            [
                [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), rng.randint(1, n))]
                for _ in range(k)
            ],
        )
        proof = cf_prove_sat_equiv(f)
        n2 = rng.randint(1, 3)
        gamma = {v: _random_circuit(rng, n2) for v in range(1, n + 1)}
        out = cf_substitute(proof, gamma, n_vars=n2)
        assert len(out) == len(proof)
        assert cf_check(out).ok
        before, after = proof.last_circuit(), out.last_circuit()
        for z in itertools.product((0, 1), repeat=n2):
            imgs = tuple(eval_circuit(gamma[v], z) for v in range(1, n + 1))
            assert eval_circuit(after, z) == eval_circuit(before, imgs)


def test_substitute_rejects_unknown_variable():
    proof = cf_prove_sat_equiv(cnf(1, [[1]]))
    b = CircuitBuilder(1)
    with pytest.raises(ValueError, match="out of range"):
        cf_substitute(proof, {4: b.build(b.var(1))})


# ---------------------------------------------------------------------------
# satisfaction equivalence


def test_sat_equiv_always_six_lines_and_true():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 3)
        k = rng.randint(1, 4)
        f = cnf(
            n,
            [
                [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), rng.randint(1, n))]
                for _ in range(k)
            ],
        )
        proof = cf_prove_sat_equiv(f)
        assert len(proof) == 6
        assert cf_check(proof).ok and len(cf_serialize(proof).encode()) > 0
        assert _tt(proof.last_circuit()) == (1 << (1 << n)) - 1


def test_sat_equiv_chained_clause_family():
    for k in range(1, 21):
        f = cnf(k + 1, [[i, -(i + 1)] for i in range(1, k + 1)])
        assert len(cf_prove_sat_equiv(f)) == 6


# ---------------------------------------------------------------------------
# reflection proofs


def test_rfn_res_frozen_line_counts():
    expected = {(1, 1, 1): 561, (2, 1, 1): 2014, (1, 2, 1): 1051, (1, 1, 2): 959}
    for (m, n, k), lines in expected.items():
        proof = cf_prove_rfn_res(m, n, k)
        assert len(proof) == lines
        assert len(proof) <= 360 * m * n * (m + n + k)
        assert proof.last_circuit() == build_rfn(m, n, k)


def test_rfn_res_proof_bytes_are_pinned():
    # The writer dedups lines by canonical id, so any slip in the canonical
    # forms changes which lines are written, and with them the text.  The
    # arena size also catches nodes that no line names.
    expected = {
        (1, 1, 1): ("370eb24749297cf6", 1058),
        (2, 2, 2): ("b194fe68e2d4c40a", 8907),
        (3, 3, 3): ("abd63a0241231e3a", 31033),
        (4, 2, 3): ("a65ea3a692809042", 31903),
    }
    for shape, (digest, arena_nodes) in expected.items():
        proof = cf_prove_rfn_res(*shape, check=False)
        text = cf_serialize(proof)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, shape
        assert len(proof.arena.nodes) == arena_nodes, shape


def test_sat_equiv_bytes_are_pinned():
    expected = {
        cnf(1, [[1]]): "6e8a49fadcc0a942",
        cnf(2, [[1, -2], [2]]): "af75f616b0bc49d4",
        cnf(3, [[1, 2, 3], [-1], [-2, 3]]): "fe62a64774368f3b",
    }
    for f, digest in expected.items():
        text = cf_serialize(cf_prove_sat_equiv(f))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, f


def test_rfn_res_unchecked_build_then_check():
    proof = cf_prove_rfn_res(2, 2, 2, check=False)
    assert len(proof) == 5681
    assert cf_check(proof).ok


def test_rfn_res_conclusion_is_tautology():
    assert is_tautology(cf_prove_rfn_res(1, 1, 1).last_circuit()) == ("yes",)
    assert is_tautology(cf_prove_rfn_res(2, 1, 1).last_circuit()) == ("yes",)


def test_generator_and_checker_keep_their_guards_under_python_O():
    src = str(Path(cfrege.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import hashlib\n"
        "from proofbench.cfcheck import cf_check\n"
        "from proofbench.cfrege import cf_prove_rfn_res, cf_serialize\n"
        "proof = cf_prove_rfn_res(2, 2, 2)\n"
        "print(len(proof), cf_check(proof).ok, hashlib.sha256(cf_serialize(proof).encode()).hexdigest())\n"
    )
    outs = [
        subprocess.run(
            [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout.split()
        for flags in (["-O"], [])
    ]
    assert outs[0][:2] == ["5681", "True"]
    # the same proof text: no assert feeds the arena
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# localization and checking once


def test_lrfn_from_rfn_pair():
    proof = cf_prove_rfn_res(2, 1, 2)
    local = lrfn_from_rfn(proof, PAIR)
    assert len(local) == len(proof) + 1
    assert local.last_circuit() == build_lrfn(PAIR, 2)
    assert cf_check(local).ok
    assert is_tautology(local.last_circuit()) == ("yes",)


def test_lrfn_from_rfn_checks_dimensions():
    proof = cf_prove_rfn_res(2, 1, 2)
    with pytest.raises(ValueError, match="dimensions"):
        lrfn_from_rfn(proof, cnf(2, [[1, 2]]))


def _seeded_cnf(seed: int, n: int, k: int):
    rng = random.Random(seed)
    return cnf(
        n,
        [
            [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), rng.randint(1, n))]
            for _ in range(k)
        ],
    )


def test_lrfn_from_rfn_bytes_are_pinned():
    # Node numbering is part of the text, so these pin the order in which
    # localization and substitution copy gates into the new arena.
    expected = {
        (1, 1, 1): "895e08fcd91cd4c3",
        (2, 1, 2): "86296ffd35413c6c",
        (2, 2, 2): "9a8a889016fbf4c4",
    }
    for (m, n, k), digest in expected.items():
        local = lrfn_from_rfn(cf_prove_rfn_res(m, n, k), _seeded_cnf(m + n + k, n, k))
        assert hashlib.sha256(cf_serialize(local).encode()).hexdigest()[:16] == digest
    b = CircuitBuilder(3)
    gamma = {
        1: b.build(b.not_(b.var(2))),
        2: b.build(b.and_(b.var(1), b.or_(b.var(3), b.not_(b.var(1))))),
        4: b.build(b.const(1)),
    }
    text = cf_serialize(cf_substitute(cf_prove_rfn_res(1, 1, 1), gamma))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "6bed95a3ff077ad6"


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2)])
def test_rfn_res_proof_refuses_an_empty_coded_cnf(m, n):
    # k = 0 is refused up front, not by the final self-check.
    with pytest.raises(ValueError, match="k >= 1"):
        cf_prove_rfn_res(m, n, 0)


def test_each_proof_is_checked_exactly_once(monkeypatch):
    calls = []
    real = cfrege.cf_check

    def counting(proof, *args, **kwargs):
        calls.append(len(proof))
        return real(proof, *args, **kwargs)

    monkeypatch.setattr(cfrege, "cf_check", counting)

    def checks(fn, *args, **kwargs):
        calls.clear()
        return fn(*args, **kwargs), len(calls)

    proof, n = checks(cf_prove_rfn_res, 1, 1, 1, check=False)
    assert n == 0
    assert checks(cf_prove_rfn_res, 1, 1, 1)[1] == 1
    assert checks(cf_prove_sat_equiv, cnf(1, [[1]]))[1] == 1
    b = CircuitBuilder(1)
    assert checks(cf_substitute, proof, {1: b.build(b.not_(b.var(1)))})[1] == 1
    assert checks(lrfn_from_rfn, proof, cnf(1, [[1]]))[1] == 1
