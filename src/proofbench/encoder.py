"""Propositional encodings of refutation existence and satisfiability.

The central object is the refutation-existence CNF ``prf``: its variables
describe an ``m``-line resolution refutation (with weakening) of a CNF with
``n`` variables and ``k`` clauses, given either as a concrete clause code or
left symbolic as extra code inputs.  Satisfying assignments decode to
checkable refutations and vice versa; see :func:`build_prf`.

On top of it sit the circuit forms: ``sat`` (a coded CNF is satisfied by an
assignment), ``rfn`` (a refutation of a coded CNF certifies that no
assignment satisfies it), ``lrfn`` (the code is fixed, the formula is
inlined), and ``con`` (no refutation of the empty-clause-free trivial code
of the contradiction exists... for ``k = 0`` no download can ever produce
the empty clause, so ``con`` states plain non-provability).

Variable layout of ``prf`` (all blocks 1-based, ``j`` indexes proof lines):

====================  ==========================================  =========
block                 meaning                                     count.
====================  ==========================================  =========
``y(e, i, j)``        literal (e, i) occurs in line j's clause    ``2nm``
``ax(j)``             line j downloads an input clause            ``m``
``s(l, j)``           ... namely clause l                         ``km``
``piv(i, j)``         line j resolves on variable i               ``nm``
``L(j', j)``          ... with positive premise j'                ``m(m-1)/2``
``R(j', j)``          ... and negative premise j'                 ``m(m-1)/2``
====================  ==========================================  =========

for ``m(3n + k + m)`` variables in total, plus ``2nk`` code inputs
``c(e, i, l)`` in the symbolic variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    Circuit,
    CircuitBuilder,
    Cnf,
    CnfCode,
    TemplateCode,
    TemplateEntry,
    code_pos,
    decode_cnf,
    emit_dimacs,
    encode_cnf,
    nogc,
    shift_cnf,
)
from .resolution import ResolutionProof


# ---------------------------------------------------------------------------
# Size budgets


@dataclass(frozen=True)
class PolyBudget:
    """A pair of polynomials (ascending coefficients) bounding the
    translation: ``p`` maps input size to line count, ``q`` maps line count
    to generated-refutation length."""

    p: tuple[int, ...] = (0, 4)
    q: tuple[int, ...] = (0, 0, 0, 1)

    def __post_init__(self) -> None:
        for coeffs in (self.p, self.q):
            if not coeffs or any(c < 0 for c in coeffs):
                raise ValueError("budget coefficients must be nonnegative")
            if all(c == 0 for c in coeffs[1:]):
                raise ValueError("budget polynomial must have degree >= 1")

    @staticmethod
    def _eval(coeffs: tuple[int, ...], s: int) -> int:
        acc = 0
        for c in reversed(coeffs):
            acc = acc * s + c
        return acc

    def eval_p(self, s: int) -> int:
        return self._eval(self.p, s)

    def eval_q(self, s: int) -> int:
        return self._eval(self.q, s)


DEFAULT_BUDGET = PolyBudget()


# ---------------------------------------------------------------------------
# Variable layout


@dataclass(frozen=True)
class PrfLayout:
    m: int
    n: int
    k: int
    symbolic: bool = False

    def __post_init__(self) -> None:
        if not (self.m >= 1 and self.n >= 0 and self.k >= 0):
            raise ValueError(f"prf layout needs m >= 1, n, k >= 0; got {(self.m, self.n, self.k)}")

    @property
    def vars_proof(self) -> int:
        """Variables describing the proof itself (the x block)."""
        m, n, k = self.m, self.n, self.k
        return m * (3 * n + k + m)

    @property
    def total_vars(self) -> int:
        return self.vars_proof + (2 * self.n * self.k if self.symbolic else 0)

    def y(self, e: int, i: int, j: int) -> int:
        if not (e in (0, 1) and 1 <= i <= self.n and 1 <= j <= self.m):
            raise ValueError(f"y{(e, i, j)} out of range")
        return (j - 1) * 2 * self.n + 2 * (i - 1) + e + 1

    def ax(self, j: int) -> int:
        if not 1 <= j <= self.m:
            raise ValueError(f"ax({j}) out of range")
        return 2 * self.n * self.m + j

    def s(self, l: int, j: int) -> int:
        if not (1 <= l <= self.k and 1 <= j <= self.m):
            raise ValueError(f"s{(l, j)} out of range")
        return 2 * self.n * self.m + self.m + (j - 1) * self.k + l

    def piv(self, i: int, j: int) -> int:
        if not (1 <= i <= self.n and 1 <= j <= self.m):
            raise ValueError(f"piv{(i, j)} out of range")
        return self.m * (2 * self.n + 1 + self.k) + (j - 1) * self.n + i

    def _arc_base(self) -> int:
        return self.m * (3 * self.n + 1 + self.k)

    def L(self, jp: int, j: int) -> int:
        if not (2 <= j <= self.m and 1 <= jp < j):
            raise ValueError(f"L{(jp, j)} out of range")
        return self._arc_base() + (j - 2) * (j - 1) // 2 + jp

    def R(self, jp: int, j: int) -> int:
        if not (2 <= j <= self.m and 1 <= jp < j):
            raise ValueError(f"R{(jp, j)} out of range")
        return self._arc_base() + self.m * (self.m - 1) // 2 + (j - 2) * (j - 1) // 2 + jp

    def code(self, e: int, i: int, l: int) -> int:
        if not self.symbolic:
            raise ValueError("instantiated layout has no code inputs")
        return self.vars_proof + code_pos(e, i, l, self.n, self.k) + 1

    def z(self, i: int) -> int:
        """Input ``i`` of the assignment that follows the layout."""
        if not 1 <= i <= self.n:
            raise ValueError(f"z({i}) out of range")
        return self.total_vars + i

    def names(self) -> Iterator[str]:
        """Each variable's name in index order: the x block, then the c
        block when symbolic."""
        m, n, k = self.m, self.n, self.k
        for j in range(1, m + 1):
            for i in range(1, n + 1):
                for e in (0, 1):
                    yield f"y[e={e},i={i},j={j}]"
        for j in range(1, m + 1):
            yield f"ax[j={j}]"
        for j in range(1, m + 1):
            for l in range(1, k + 1):
                yield f"s[l={l},j={j}]"
        for j in range(1, m + 1):
            for i in range(1, n + 1):
                yield f"piv[i={i},j={j}]"
        for side in ("L", "R"):
            for j in range(2, m + 1):
                for jp in range(1, j):
                    yield f"{side}[j'={jp},j={j}]"
        if self.symbolic:
            yield from code_names(n, k)


def code_names(n: int, k: int) -> Iterator[str]:
    """The names of the ``2nk`` code bits, in ``code_pos`` order."""
    for e in (0, 1):
        for i in range(1, n + 1):
            for l in range(1, k + 1):
                yield f"c[e={e},i={i},l={l}]"


def block_names(name: str, count: int) -> Iterator[str]:
    """``name[1]`` .. ``name[count]``: an input block with no inner structure."""
    return (f"{name}[{i}]" for i in range(1, count + 1))


# ---------------------------------------------------------------------------
# Clause stream

# Each constraint clause is (name, common, slot).  Ordinary clauses have
# all their literals in ``common`` and ``slot`` None.  The download slots
# c2 are the only code-dependent clauses: ``common`` is -ax(j) | -s(l,j)
# and ``slot`` is ((e, i, l), on, off).  Code bit (e,i,l) adds literal
# ``on`` = +y(e,i,j); when the bit is 0 the tautologizing literal
# ``off`` = +s(l,j) takes its place, so clause counts stay
# code-independent.  A symbolic code adds -c(e,i,l) | on instead.


def _prf_clauses(lay: PrfLayout) -> Iterator[tuple[tuple, list[int], tuple | None]]:
    m, n, k = lay.m, lay.n, lay.k
    J, I = range(1, m + 1), range(1, n + 1)
    # Every index comes from its layout method, once per argument tuple:
    # y[j][e] lists y(e, i, j) over i, arc["L", j] lists L(j', j) over j'.
    ax = {j: lay.ax(j) for j in J}
    s = {j: [lay.s(l, j) for l in range(1, k + 1)] for j in J}
    piv = {j: [lay.piv(i, j) for i in I] for j in J}
    y = {j: [[lay.y(e, i, j) for i in I] for e in (0, 1)] for j in J}
    arc = {
        (side, j): [var(jp, j) for jp in range(1, j)]
        for side, var in (("L", lay.L), ("R", lay.R))
        for j in J
    }
    # Structural constraints: every line is a download or a resolution with
    # one-hot selector groups.
    for j in J:
        if j == 1:
            yield ("ax_first",), [ax[1]], None
        else:
            yield ("alo_arc_L", j), [ax[j]] + arc["L", j], None
            yield ("alo_arc_R", j), [ax[j]] + arc["R", j], None
            yield ("alo_piv", j), [ax[j]] + piv[j], None
        yield ("alo_s", j), [-ax[j]] + s[j], None
        for (l1, s1), (l2, s2) in combinations(enumerate(s[j], 1), 2):
            yield ("amo_s", j, l1, l2), [-ax[j], -s1, -s2], None
        if j >= 2:
            for (i1, p1), (i2, p2) in combinations(enumerate(piv[j], 1), 2):
                yield ("amo_piv", j, i1, i2), [ax[j], -p1, -p2], None
            for side in ("L", "R"):
                for (a, v1), (b, v2) in combinations(enumerate(arc[side, j], 1), 2):
                    yield ("amo_arc_" + side, j, a, b), [ax[j], -v1, -v2], None
    # Downloaded lines contain the selected clause.
    for j in J:
        for l, sl in enumerate(s[j], 1):
            for i in I:
                for e in (1, 0):
                    yield ("c2", j, l, i, e), [-ax[j], -sl], ((e, i, l), y[j][e][i - 1], sl)
    # The pivot occurs positively in the L premise and negatively in the R.
    for j in range(2, m + 1):
        for jp, vl, vr in zip(J, arc["L", j], arc["R", j]):
            for i, p, y0, y1 in zip(I, piv[j], *y[jp]):
                yield ("c3", "L", j, jp, i), [ax[j], -vl, -p, y1], None
                yield ("c3", "R", j, jp, i), [ax[j], -vr, -p, y0], None
    # Premise literals flow into the resolvent, except the pivot pair.
    for j in range(2, m + 1):
        for jp, vl, vr in zip(J, arc["L", j], arc["R", j]):
            for i, p, y0p, y1p, y0, y1 in zip(I, piv[j], *y[jp], *y[j]):
                yield ("c4", "L", 1, j, jp, i), [ax[j], -vl, -y1p, p, y1], None
                yield ("c4", "L", 0, j, jp, i), [ax[j], -vl, -y0p, y0], None
                yield ("c4", "R", 1, j, jp, i), [ax[j], -vr, -y1p, y1], None
                yield ("c4", "R", 0, j, jp, i), [ax[j], -vr, -y0p, p, y0], None
    # The final line is the empty clause.
    for i in I:
        for e in (1, 0):
            yield ("c5", i, e), [-y[m][e][i - 1]], None


@dataclass(frozen=True)
class EncodingArtifact:
    """A built formula together with its layout and bookkeeping.

    ``clause_index`` maps constraint names to clause positions; ``params``
    holds what a report reads (``am_reduce``'s ``source_bytes``).  Both are
    bookkeeping, not identity.
    """

    formula: Cnf
    layout: PrfLayout
    code: CnfCode | None
    params: dict = field(compare=False, default_factory=dict)
    clause_index: dict = field(compare=False, default_factory=dict)


@nogc
def build_prf(m: int, n: int, k: int, code: CnfCode | None = None) -> EncodingArtifact:
    """The refutation-existence CNF (see module docstring).

    With ``code`` given, its bits select which download slots are real;
    without it, the formula is symbolic over ``2nk`` trailing code inputs.
    Satisfying assignments are exactly the bit images of ``m``-line
    weakening refutations of the coded CNF (junk bits in unread selector
    blocks aside); :func:`decode_prf_assignment` realizes one direction,
    :func:`proofgen.encode_witness <proofbench.proofgen.encode_witness>`
    the other.  The clauses hold one int object per literal value.
    """
    if code is not None and (code.n, code.k) != (n, k):
        raise ValueError("code dimensions do not match n, k")
    lay = PrfLayout(m, n, k, symbolic=code is None)
    # table[lit] is lit, a negative literal counting from the end, so the
    # clauses share one int object per literal value.
    table = list(range(lay.total_vars + 1)) + list(range(-lay.total_vars, 0))
    clauses: list[frozenset[int]] = []
    index: dict[tuple, int] = {}
    for name, lits, slot in _prf_clauses(lay):
        if slot is not None:
            bit, on, off = slot
            if code is None:
                lits += [-lay.code(*bit), on]
            else:
                lits.append(on if code.get(*bit) else off)
        index[name] = len(clauses)
        clauses.append(frozenset([table[lit] for lit in lits]))
    formula = Cnf(lay.total_vars, tuple(clauses))
    return EncodingArtifact(formula, lay, code, clause_index=index)


def _one_hot(bits: Sequence[int], vars_: Sequence[int]) -> int | None:
    """Index (1-based within the group) of the single set variable, if any."""
    hot = [t for t, v in enumerate(vars_, start=1) if bits[v - 1]]
    return hot[0] if len(hot) == 1 else None


def decode_prf_assignment(artifact: EncodingArtifact, bits: Sequence[int]) -> ResolutionProof | None:
    """Read a proof out of an assignment to a ``prf`` formula.

    Returns ``None`` when a needed selector group is not exactly one-hot
    (such assignments never satisfy the formula).  The result refutes the
    coded CNF and checks in weakening mode exactly when ``bits`` satisfies
    the formula.
    """
    lay = artifact.layout
    if lay.symbolic:
        raise ValueError("cannot decode against a symbolic artifact")
    if len(bits) != lay.total_vars:
        raise ValueError(f"expected {lay.total_vars} bits, got {len(bits)}")
    target = decode_cnf(artifact.code, strict=False)
    lines = []
    for j in range(1, lay.m + 1):
        clause = frozenset(
            (i if e else -i)
            for i in range(1, lay.n + 1)
            for e in (0, 1)
            if bits[lay.y(e, i, j) - 1]
        )
        if bits[lay.ax(j) - 1]:
            l = _one_hot(bits, [lay.s(l, j) for l in range(1, lay.k + 1)])
            if l is None:
                return None
            lines.append((clause, ("A", l - 1)))
        else:
            if j == 1:
                return None
            i = _one_hot(bits, [lay.piv(i, j) for i in range(1, lay.n + 1)])
            jl = _one_hot(bits, [lay.L(jp, j) for jp in range(1, j)])
            jr = _one_hot(bits, [lay.R(jp, j) for jp in range(1, j)])
            if i is None or jl is None or jr is None:
                return None
            lines.append((clause, ("R", jl - 1, jr - 1, i)))
    return ResolutionProof(target, tuple(lines))


# ---------------------------------------------------------------------------
# Circuit forms


def _prf_circuit(
    b: CircuitBuilder, lay: PrfLayout, code_of: Callable[[int, int, int], int]
) -> tuple[int, dict[tuple, list[int]]]:
    """The prf constraints over the builder's leading inputs as one
    conjunction, and each constraint's disjunct nodes by name; code bits
    come from ``code_of`` so instantiated, shared-input, and template-wired
    variants all share this shape."""
    conj = []
    parts: dict[tuple, list[int]] = {}
    for name, common, slot in _prf_clauses(lay):
        # this creation order fixes the node ids of every prf-based circuit
        nodes = [b.lit(lit) for lit in common]
        if slot is not None:
            bit, on, _off = slot
            nodes += [b.not_(code_of(*bit)), b.lit(on)]
        parts[name] = nodes
        conj.append(b.or_many(nodes))
    return b.and_many(conj), parts


def _sat_circuit(
    b: CircuitBuilder,
    n: int,
    k: int,
    code_of: Callable[[int, int, int], int],
    z_of: Callable[[int], int],
) -> int:
    """Truth of the coded CNF under the assignment z: every clause has a
    coded literal made true."""
    clause_nodes = []
    for l in range(1, k + 1):
        picks = []
        for i in range(1, n + 1):
            z = z_of(i)
            picks.append(b.or_(b.and_(code_of(1, i, l), z), b.and_(code_of(0, i, l), b.not_(z))))
        clause_nodes.append(b.or_many(picks))
    return b.and_many(clause_nodes)


def build_sat(n: int, k: int) -> Circuit:
    """sat(c, z): inputs are the ``2nk`` code bits then the ``n`` bits of z."""
    b = CircuitBuilder(2 * n * k + n)
    root = _sat_circuit(
        b,
        n,
        k,
        lambda e, i, l: b.var(code_pos(e, i, l, n, k) + 1),
        lambda i: b.var(2 * n * k + i),
    )
    return b.build(root)


def build_rfn(m: int, n: int, k: int) -> Circuit:
    """rfn: a refutation of the coded CNF implies no assignment satisfies it.

    Inputs: proof bits x (``m(3n+k+m)``), then code bits c (``2nk``), then
    the candidate assignment z (``n``).
    """
    lay = PrfLayout(m, n, k, symbolic=True)
    b = CircuitBuilder(lay.total_vars + n)
    prf, sat, _ = _rfn_parts(b, lay)
    return b.build(b.imp(prf, b.not_(sat)))


def _rfn_parts(b: CircuitBuilder, lay: PrfLayout) -> tuple[int, int, dict[tuple, list[int]]]:
    """The two sides of rfn over the symbolic layout ``lay`` inside a
    caller-owned builder, and prf's constraint disjuncts by name (the
    Frege-proof generator rebuilds the sides to state its final theorem
    and reasons over the disjuncts)."""
    code_of = lambda e, i, l: b.var(lay.code(e, i, l))
    prf, parts = _prf_circuit(b, lay, code_of)
    sat = _sat_circuit(b, lay.n, lay.k, code_of, lambda i: b.var(lay.z(i)))
    return prf, sat, parts


def build_lrfn(f: Cnf, m: int) -> Circuit:
    """Local reflection at a fixed CNF: either x is no refutation of
    ``f``'s code, or ``f`` itself (inlined over fresh z inputs) fails.

    Inputs: proof bits x, then z (``f.n``).  A tautology for every ``f``
    and ``m``; never a tautology if prf and the inlining disagreed, which
    is what the tautology harness probes.
    """
    code = encode_cnf(f, strict=False)
    lay = PrfLayout(m, f.n, f.k)
    V = lay.vars_proof
    b = CircuitBuilder(V + f.n)
    prf, _ = _prf_circuit(b, lay, lambda e, i, l: b.const(code.get(e, i, l)))
    inlined = b.cnf_circuit(shift_cnf(f, V, V + f.n))
    return b.build(b.or_(b.not_(prf), b.not_(inlined)))


def build_con(m: int, n: int) -> Circuit:
    """Consistency: no ``m``-line refutation of the empty CNF (``k = 0``)
    exists.  All inputs are proof bits; with nothing to download every
    assignment fails the download constraints, so this is a tautology."""
    lay = PrfLayout(m, n, 0)
    b = CircuitBuilder(lay.vars_proof)
    prf, _ = _prf_circuit(b, lay, lambda e, i, l: b.const(0))
    return b.build(b.not_(prf))


# ---------------------------------------------------------------------------
# Reduction


def am_reduce(f: Cnf, budget: PolyBudget = DEFAULT_BUDGET) -> EncodingArtifact:
    """Map a CNF to the refutation-existence instance at the budgeted size.

    The line budget is ``p`` applied to the byte length of the canonical
    DIMACS form.  The result is satisfiable iff ``f`` has an ``m``-line
    weakening refutation; for unsatisfiable ``f`` of modest size the DPLL
    refutation fits (its witness satisfies the instance), while satisfiable
    ``f`` admit no refutation at all, so the instance flips to
    unsatisfiable.
    """
    s = len(emit_dimacs(f).encode())
    m = budget.eval_p(s)
    if m < 1:
        raise ValueError("budget gives no proof lines")
    art = build_prf(m, f.n, f.k, encode_cnf(f, strict=False))
    art.params["source_bytes"] = s
    return art


# ---------------------------------------------------------------------------
# Benchmark families


def build_php(pigeons: int, holes: int) -> Cnf:
    """Pigeonhole: every pigeon sits somewhere, no hole holds two.
    Variable ``(i-1)*holes + j`` places pigeon i in hole j."""
    if not (pigeons >= 1 and holes >= 0):
        raise ValueError(f"php needs pigeons >= 1 and holes >= 0; got {pigeons}, {holes}")
    p = lambda i, j: (i - 1) * holes + j
    clauses = []
    for i in range(1, pigeons + 1):
        clauses.append(frozenset(p(i, j) for j in range(1, holes + 1)))
    for j in range(1, holes + 1):
        for i1 in range(1, pigeons + 1):
            for i2 in range(i1 + 1, pigeons + 1):
                clauses.append(frozenset([-p(i1, j), -p(i2, j)]))
    return Cnf(pigeons * holes, tuple(clauses))


def build_clique_color(k: int, vertices: int) -> tuple[Cnf, Cnf, dict[tuple[int, int], int]]:
    """The clique/coloring pair over a shared edge-variable block.

    Side one says the edge set contains a ``k+1``-clique, side two says it
    is ``k``-colorable; both live in the same variable space, mention
    disjoint witness blocks, and are jointly unsatisfiable.  Returns both
    CNFs and the edge-variable map.
    """
    if not (k >= 1 and vertices >= 1):
        raise ValueError(f"clique-color needs k >= 1 and vertices >= 1; got {k}, {vertices}")
    edge: dict[tuple[int, int], int] = {}
    for u in range(1, vertices + 1):
        for v in range(u + 1, vertices + 1):
            edge[(u, v)] = len(edge) + 1
    E = len(edge)
    q = lambda a, u: E + (a - 1) * vertices + u  # clique slot a -> vertex u
    c = lambda u, t: E + (k + 1) * vertices + (u - 1) * k + t  # vertex color
    n = E + (k + 1) * vertices + vertices * k

    clique = []
    for a in range(1, k + 2):
        clique.append(frozenset(q(a, u) for u in range(1, vertices + 1)))
    for a in range(1, k + 2):
        for b2 in range(a + 1, k + 2):
            for u in range(1, vertices + 1):
                clique.append(frozenset([-q(a, u), -q(b2, u)]))
    for a in range(1, k + 2):
        for b2 in range(1, k + 2):
            if a == b2:
                continue
            for u in range(1, vertices + 1):
                for v in range(1, vertices + 1):
                    if u == v:
                        continue
                    if u < v:
                        clique.append(frozenset([-q(a, u), -q(b2, v), edge[(u, v)]]))

    color = []
    for u in range(1, vertices + 1):
        color.append(frozenset(c(u, t) for t in range(1, k + 1)))
    for (u, v), ev in edge.items():
        for t in range(1, k + 1):
            color.append(frozenset([-ev, -c(u, t), -c(v, t)]))

    return Cnf(n, tuple(clique)), Cnf(n, tuple(color)), edge


# ---------------------------------------------------------------------------
# Templates and the friendly disjunction


def build_prf_template(m: int, n: int, k: int) -> TemplateCode:
    """The prf CNF as a clause-code template over the ``2nk`` code bits.

    Only the download slots depend on the code (see ``_prf_clauses``):
    a slot's ``on`` literal takes its code bit, ``off`` the bit's negation.
    Instantiating the template and encoding ``build_prf(m, n, k, code)``
    give the same code for every value of the parameters.
    """
    lay = PrfLayout(m, n, k)
    stream = list(_prf_clauses(lay))
    V, K = lay.vars_proof, len(stream)
    entries: list[TemplateEntry] = [("const", 0)] * (2 * V * K)

    def put(e: int, v: int, col: int, entry: TemplateEntry) -> None:
        entries[code_pos(e, v, col, V, K)] = entry

    for col, (_name, common, slot) in enumerate(stream, start=1):
        for lit in common:
            put(1 if lit > 0 else 0, abs(lit), col, ("const", 1))
        if slot is not None:
            bit, on, off = slot
            put(1, on, col, ("ref", code_pos(*bit, n, k)))
            put(1, off, col, ("negref", code_pos(*bit, n, k)))
    return TemplateCode(V, K, 2 * n * k, tuple(entries))


# The outer prf of the strongly friendly disjunction has 2mnk download
# slots.  At n = 1 (default budget) that is 92,160 slots of 179,344
# clauses, which build into 407,510 gates in about 3 s at a 225 MB peak on
# a 2-core Xeon; n = 2 has 6,128,640 slots of 13,951,654 clauses and
# does not fit in memory.  Allow a few times the n = 1 size.
MAX_DOWNLOAD_SLOTS = 250_000


def strongly_friendly_layout(n: int, budget: PolyBudget, k: int | None) -> tuple[int, PrfLayout]:
    """The inner clause count (``2n`` unless given) and the outer layout of
    :func:`build_strongly_friendly`: outer proofs refute the inner
    ``prf(p(n), n, k)``, so the outer ``n`` and ``k`` are its proof-variable
    and clause counts, and the outer ``n`` is also the width of u.  Raises
    ``ValueError`` when the outer prf has more than
    ``MAX_DOWNLOAD_SLOTS`` download slots."""
    if k is None:
        k = 2 * n
    inner = PrfLayout(budget.eval_p(n), n, k)
    m_out = budget.eval_p(inner.m)
    # The inner prf's 2mnk download slots are some of its clauses, so they
    # bound the outer slot count from below before any clause is counted.
    slots = 2 * m_out * inner.vars_proof * (2 * inner.m * n * k)
    if slots <= MAX_DOWNLOAD_SLOTS:
        outer = PrfLayout(m_out, inner.vars_proof, sum(1 for _ in _prf_clauses(inner)))
        slots = 2 * outer.m * outer.n * outer.k
    if slots > MAX_DOWNLOAD_SLOTS:
        raise ValueError(
            f"strongly-friendly n={n} has at least {slots:,} download slots; "
            f"at most {MAX_DOWNLOAD_SLOTS:,} can be built"
        )
    return k, outer


def build_strongly_friendly(
    n: int, budget: PolyBudget = DEFAULT_BUDGET, k: int | None = None
) -> Circuit:
    """The disjunction "x is no refutation of prf's code, or that code is
    satisfiable", with the inner prf's code template-wired to the ``2nk``
    bits of an arbitrary coded CNF.

    One disjunct is satisfied whichever way the coded refutation-existence
    question falls, which is what makes the disjunction easy to settle per
    instance.  Inputs: x (outer proof bits), then the ``2nk`` inner code
    bits y, then u (a candidate assignment for the inner prf variables).
    """
    k, lay_out = strongly_friendly_layout(n, budget, k)
    n_in, k_in = lay_out.n, lay_out.k
    tpl = build_prf_template(budget.eval_p(n), n, k)
    V_out = lay_out.vars_proof
    params = 2 * n * k
    b = CircuitBuilder(V_out + params + n_in)

    def wired(e: int, i: int, l: int) -> int:
        kind, v = tpl.entries[code_pos(e, i, l, n_in, k_in)]
        if kind == "const":
            return b.const(v)
        ref = b.var(V_out + v + 1)
        return ref if kind == "ref" else b.not_(ref)

    prf_outer, _ = _prf_circuit(b, lay_out, wired)
    sat_outer = _sat_circuit(b, n_in, k_in, wired, lambda i: b.var(V_out + params + i))
    return b.build(b.or_(b.not_(prf_outer), sat_outer))


# ---------------------------------------------------------------------------
# Sidecar variable maps


def map_text(names: Iterable[str]) -> str:
    """One ``<index> <name>`` line per input, numbering ``names`` from 1."""
    return "\n".join(f"{v} {name}" for v, name in enumerate(names, start=1)) + "\n"
