"""The circuit-Frege calculus and its checker, :func:`cf_check`.

The calculus: ten Hilbert-style schemas (the last two are the constant
axioms), modus ponens, and a canonization rule that lets a line restate any
earlier line up to canonical form.  Canonical forms eliminate implications
(``a -> b`` becomes ``!a | b``), fold constants and double negation, and
flatten/sort/deduplicate conjunctions and disjunctions, folding complement
pairs; negation is *not* pushed through gates, so canonization stays a
linear-time congruence rather than a SAT oracle.

Lines are checked up to canonical equality: a schema line must canonize
like its instance, ``MP j1 j2`` requires line ``j1`` to canonize
like ``line_j2 -> here``, and ``C j`` requires equal canonization with line
``j``.  All line circuits live in one shared hash-consed arena.  The
checker canonizes only where it must: a line that is gate for gate what its
rule asks for already canonizes like it, because the canonical form is a
function of the gate structure.

This module and :mod:`proofbench.resolution` are the trusted base, and
both import only :mod:`proofbench.core`.  The proof generators live in
:mod:`proofbench.cfrege`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Sequence

from .core import CheckReport, Circuit, CircuitBuilder, check_cone, nogc


# ---------------------------------------------------------------------------
# Canonical forms


def _holds(kids: tuple[int, ...], x: int) -> bool:
    """Whether the sorted tuple ``kids`` contains ``x``."""
    pos = bisect_left(kids, x)
    return pos < len(kids) and kids[pos] == x


class CanonTable:
    """Canonical forms for the nodes of one circuit arena.

    Canonical nodes are interned tuples: ``('var', i)``, ``('const', b)``,
    ``('not', cid)``, ``('and', cids)``, ``('or', cids)`` with the n-ary
    children sorted, deduplicated, constant-free and complement-free.  Two
    arena nodes denote the same canonical form iff :meth:`canon` returns
    the same id for both.

    :meth:`canon` checks no gate.  Its precondition is that every gate in
    the node's cone is well formed: the prover's nodes are, because the
    :class:`~proofbench.core.CircuitBuilder` methods made them, and
    :func:`cf_check` canonizes only nodes that
    :func:`~proofbench.core.check_cone` has passed.
    """

    def __init__(self, arena: CircuitBuilder):
        self.arena = arena
        self._intern: dict[tuple, int] = {}
        self._forms: list[tuple] = []
        self._memo: dict[int, int] = {}
        self.FALSE = self._mk(("const", 0))
        self.TRUE = self._mk(("const", 1))

    def _mk(self, form: tuple) -> int:
        got = self._intern.get(form)
        if got is not None:
            return got
        cid = self._intern[form] = len(self._forms)
        self._forms.append(form)
        return cid

    def mk_op(self, op: str, a: int, b: int) -> int:
        """Canonical ``a op b`` for ``op`` in ``and``/``or``."""
        forms = self._forms
        fa, fb = forms[a], forms[b]
        if op == "and":
            ann, ident = self.FALSE, self.TRUE
        else:
            ann, ident = self.TRUE, self.FALSE
        if (fa[0] == op) != (fb[0] == op):
            # One side is a canonical ``op`` node, whose children are sorted,
            # deduplicated, constant-free and complement-free, so only the
            # other side ``x`` needs merging in, and only ``x`` can close a
            # complement pair.
            if fa[0] == op:
                wide, kids, x, fx = a, fa[1], b, fb
            else:
                wide, kids, x, fx = b, fb[1], a, fa
            if x == ann:
                return ann
            if x == ident:
                return wide
            pos = bisect_left(kids, x)
            if pos < len(kids) and kids[pos] == x:
                return wide
            if fx[0] == "not":
                if _holds(kids, fx[1]):
                    return ann
            else:
                # a lookup, not an insert: an un-interned negation of x
                # cannot be among the children
                neg = self._intern.get(("not", x))
                if neg is not None and _holds(kids, neg):
                    return ann
            return self._mk((op, kids[:pos] + (x,) + kids[pos:]))
        if fa[0] != op:
            if a == ann or b == ann:
                return ann
            if a == ident or a == b:
                return b
            if b == ident:
                return a
            if (fa[0] == "not" and fa[1] == b) or (fb[0] == "not" and fb[1] == a):
                return ann
            return self._mk((op, (a, b) if a < b else (b, a)))
        kids = set(fa[1])
        kids.update(fb[1])
        for c in kids:
            form = forms[c]
            if form[0] == "not" and form[1] in kids:
                return ann
        return self._mk((op, tuple(sorted(kids))))

    # The gate methods of CircuitBuilder, in canonical space: a schema
    # constructor run on this table returns the canonical id of its
    # instance (see cf_check).
    def not_(self, a: int) -> int:
        form = self._forms[a]
        if form[0] == "const":
            return self.FALSE if form[1] else self.TRUE
        if form[0] == "not":
            return form[1]
        return self._mk(("not", a))

    def imp(self, a: int, b: int) -> int:
        """Canonical ``a -> b``, which is ``!a | b``."""
        return self.mk_op("or", self.not_(a), b)

    def and_(self, a: int, b: int) -> int:
        return self.mk_op("and", a, b)

    def or_(self, a: int, b: int) -> int:
        return self.mk_op("or", a, b)

    def const(self, v: int) -> int:
        return self.TRUE if v else self.FALSE

    def canon(self, node: int) -> int:
        """Canonical id of an arena node (memoized, iterative), whose cone
        must hold only well-formed gates (see the class)."""
        memo = self._memo
        got = memo.get(node)
        if got is not None:
            return got
        nodes = self.arena.nodes
        stack = [node]
        while stack:
            x = stack[-1]
            g = nodes[x]
            kind = g[0]
            if kind == "not":
                ca = memo.get(g[1])
                if ca is None:
                    stack.append(g[1])
                    continue
                memo[x] = self.not_(ca)
            elif kind == "var":
                memo[x] = self._mk(("var", g[1]))
            elif kind == "const":
                memo[x] = self.TRUE if g[1] else self.FALSE
            else:
                _, a, b = g
                ca = memo.get(a)
                cb = memo.get(b)
                if ca is None or cb is None:
                    if ca is None:
                        stack.append(a)
                    if cb is None:
                        stack.append(b)
                    continue
                memo[x] = self.imp(ca, cb) if kind == "imp" else self.mk_op(kind, ca, cb)
            stack.pop()
        return memo[node]


# ---------------------------------------------------------------------------
# Schemas

# Each schema is (arity, constructor); indices 9 and 10 are the constant
# axioms (true, and not-false).
SCHEMAS: tuple[tuple[int, Callable], ...] = (
    (2, lambda b, p, q: b.imp(p, b.imp(q, p))),
    (3, lambda b, p, q, r: b.imp(b.imp(p, b.imp(q, r)), b.imp(b.imp(p, q), b.imp(p, r)))),
    (2, lambda b, p, q: b.imp(b.imp(b.not_(p), b.not_(q)), b.imp(q, p))),
    (2, lambda b, p, q: b.imp(b.and_(p, q), p)),
    (2, lambda b, p, q: b.imp(b.and_(p, q), q)),
    (2, lambda b, p, q: b.imp(p, b.imp(q, b.and_(p, q)))),
    (2, lambda b, p, q: b.imp(p, b.or_(p, q))),
    (2, lambda b, p, q: b.imp(q, b.or_(p, q))),
    (3, lambda b, p, q, r: b.imp(b.imp(p, r), b.imp(b.imp(q, r), b.imp(b.or_(p, q), r)))),
    (0, lambda b: b.const(1)),
    (0, lambda b: b.not_(b.const(0))),
)


def instantiate_schema(arena: CircuitBuilder, idx: int, sigma: Sequence[int]) -> int:
    arity, fn = SCHEMAS[idx]
    if len(sigma) != arity:
        raise ValueError(f"schema {idx} takes {arity} arguments, got {len(sigma)}")
    return fn(arena, *sigma)


# ---------------------------------------------------------------------------
# Proof objects

# Justifications: ('schema', idx, sigma) with sigma a tuple of arena node
# ids, ('mp', j1, j2), ('canon', j).
CfLine = tuple[int, tuple]

# Justification length by rule, the rule name included.
_ARITY = {"schema": 3, "mp": 3, "canon": 2}


@dataclass
class CfProof:
    arena: CircuitBuilder
    lines: tuple[CfLine, ...]

    def __len__(self) -> int:
        return len(self.lines)

    def last_circuit(self) -> Circuit:
        return self.arena.build(self.lines[-1][0])


# The gate methods of CircuitBuilder, building a schema instance as a term:
# nested gate tuples over the argument nodes, which cf_check matches against
# a line's gates.
_TERMS = SimpleNamespace(
    not_=lambda a: ("not", a),
    and_=lambda a, b: ("and", a, b),
    or_=lambda a, b: ("or", a, b),
    imp=lambda a, b: ("imp", a, b),
    const=lambda v: ("const", v),
)


def _is_term(nodes: Sequence[tuple], node: int, term) -> bool:
    """Whether ``node``, whose cone is checked, is gate for gate the
    :data:`_TERMS` term ``term``."""
    if type(term) is int:
        return node == term
    g = nodes[node]
    kind = term[0]
    if g[0] != kind:
        return False
    if kind == "const":
        return g[1] == term[1]
    if not _is_term(nodes, g[1], term[1]):
        return False
    return kind == "not" or _is_term(nodes, g[2], term[2])


@nogc
def cf_check(proof: CfProof) -> CheckReport:
    """Check every line, reading the proof alone, so the verdict does not
    depend on how it was built.  A malformed line gets a failing report,
    never an exception, and the arena is left as it was.  ``bit_size`` is
    0: a proof's size is ``len(cf_serialize(proof).encode())``.

    Each line first has the cone of its circuit checked gate by gate
    (:func:`~proofbench.core.check_cone`), so the first malformed gate fails
    the first line that reaches it.  A line whose circuit is *literally* what its
    rule asks for then passes at once: a schema line whose gates match the
    schema's constructor run on its argument nodes, or an MP line whose
    major premise's gate is ``imp`` of the minor premise and this line.  That is
    sound because the canonical form is a function of the gate structure,
    so equal structure has equal form.  Every other line is compared up to
    canonical form on a fresh :class:`CanonTable`: a schema line with the
    constructor run on the canonical ids of its checked arguments, an MP
    line with ``major == minor -> here``, a ``C`` line with its premise.
    Nothing here reads the arena's hash-cons memo."""
    arena = proof.arena
    nodes = arena.nodes
    lines = proof.lines
    n_vars = arena.n_vars
    ct = CanonTable(arena)
    done = bytearray(len(nodes))

    def fail(step: int, reason: str) -> CheckReport:
        return CheckReport(False, step, reason, len(lines), 0)

    for t, line in enumerate(lines):
        if type(line) is not tuple or len(line) != 2:
            return fail(t, "line is not a (circuit, justification) pair")
        node, just = line
        rule = just[0] if type(just) is tuple and just else None
        if type(rule) is not str or rule not in _ARITY:
            return fail(t, f"unknown rule {rule!r}")
        if len(just) != _ARITY[rule]:
            return fail(t, f"malformed {rule} justification")
        if type(node) is not int or not 0 <= node < len(nodes):
            return fail(t, f"line circuit {node!r} is not an arena node")
        try:
            if rule == "schema":
                idx, sigma = just[1], just[2]
                if type(idx) is not int or not 0 <= idx < len(SCHEMAS):
                    return fail(t, f"schema index {idx!r} out of range")
                if not isinstance(sigma, (tuple, list)):
                    return fail(t, "schema arguments are not arena nodes")
                for s in sigma:
                    if type(s) is not int or not 0 <= s < len(nodes):
                        return fail(t, "schema arguments are not arena nodes")
                arity, make = SCHEMAS[idx]
                if len(sigma) != arity:
                    return fail(
                        t, f"bad instantiation: schema {idx} takes {arity} arguments, got {len(sigma)}"
                    )
                check_cone(nodes, n_vars, node, done)
                if not _is_term(nodes, node, make(_TERMS, *sigma)):
                    for s in sigma:
                        check_cone(nodes, n_vars, s, done)
                    if ct.canon(node) != make(ct, *[ct.canon(s) for s in sigma]):
                        return fail(t, "line does not match its schema instance")
            elif rule == "mp":
                j1, j2 = just[1], just[2]
                if not (type(j1) is type(j2) is int and 0 <= j1 < t and 0 <= j2 < t):
                    return fail(t, "premise index out of range")
                check_cone(nodes, n_vars, node, done)
                major, minor = lines[j1][0], lines[j2][0]
                if nodes[major] != ("imp", minor, node):
                    if ct.canon(major) != ct.imp(ct.canon(minor), ct.canon(node)):
                        return fail(t, "major premise does not imply this line")
            else:
                j = just[1]
                if type(j) is not int or not 0 <= j < t:
                    return fail(t, "premise index out of range")
                check_cone(nodes, n_vars, node, done)
                if ct.canon(lines[j][0]) != ct.canon(node):
                    return fail(t, "line is not a canonization of its premise")
        except ValueError as e:
            return fail(t, f"malformed arena: {e}")
    return CheckReport(True, None, None, len(lines), 0)
