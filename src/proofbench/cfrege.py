"""Circuit-Frege proof generators for reflection, and the proof text form.

The calculus and its checker live in :mod:`proofbench.cfcheck`.  Each
generator checks its finished proof once with :func:`cf_check` (unless
``cf_prove_rfn_res`` is told ``check=False``), and :func:`cf_serialize`
prints a proof for reports and files.

The reflection proof (:func:`cf_prove_rfn_res`) works in clause form: a
judgment "under the hypothesis prf & sat at least one of these holds" is a
line whose canonization is ``!hyp | part_1 | ... | part_t``.  Hypothetical
reasoning, resolution on a part, and excluded middle each compile to a few
schema instances, because currying, hypothesis reordering, and tautologous
helper instances are free under canonization.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .cfcheck import CanonTable, CfLine, CfProof, cf_check, instantiate_schema
from .core import Circuit, CircuitBuilder, Cnf, cone, encode_cnf, gate_text, nogc
from .encoder import (
    PrfLayout,
    _rfn_parts,
    _sat_circuit,
    build_lrfn,
    build_rfn,
)


def _checked(proof: CfProof, what: str) -> CfProof:
    """``proof`` itself once :func:`cf_check` accepts it; a rejection is an
    internal error of the code that built it."""
    report = cf_check(proof)
    if not report.ok:
        raise RuntimeError(f"{what} proof invalid at line {report.step}: {report.reason}")
    return proof


def cf_serialize(proof: CfProof) -> str:
    """Emit-only text form: the arena gate list restricted to the nodes the
    proof mentions, then one line per step naming the rule, any schema
    arguments, and the step's circuit."""
    nodes = proof.arena.nodes
    out = [f"inputs {proof.arena.n_vars}"]
    out += [f"g{x} := {gate_text(nodes[x])}" for x in cone(nodes, _roots(proof))]
    for node, just in proof.lines:
        if just[0] == "schema":
            head = f"S {just[1]}" + "".join(f" g{s}" for s in just[2])
        elif just[0] == "mp":
            head = f"MP {just[1]} {just[2]}"
        else:
            head = f"C {just[1]}"
        out.append(f"{head} : g{node}")
    return "\n".join(out) + "\n"


def _roots(proof: CfProof) -> list[int]:
    """The arena nodes a proof's lines name: each line's circuit and the
    arguments of its schema instance."""
    roots = []
    for node, just in proof.lines:
        roots.append(node)
        if just[0] == "schema":
            roots.extend(just[2])
    return roots


# ---------------------------------------------------------------------------
# Construction toolkit


class _Writer:
    """Emits lines into an arena, deduplicating by canonical form.  It
    checks nothing: :func:`cf_check` certifies the finished proof.

    Deduplication is sound because the checker compares lines only up to
    canonization, so any line can stand in for any other with the same
    form.  In particular every tautologous-by-canon helper instance (the
    S1/S7/S8 family, excluded-middle disjunctions, hypothesis reorderings)
    collapses into the single constant-true axiom line.

    This dedup is also the prover's line memo: re-deriving a line from
    nodes that already exist rebuilds the same nodes, and :meth:`emit`
    returns the line already written for their form.
    """

    def __init__(self, arena: CircuitBuilder):
        self.arena = arena
        self.ct = CanonTable(arena)
        self.lines: list[CfLine] = []
        self._by_canon: dict[int, int] = {}
        self.true_line = self.schema(9)

    def emit(self, node: int, just: tuple) -> int:
        c = self.ct.canon(node)
        got = self._by_canon.get(c)
        if got is None:
            got = self._by_canon[c] = len(self.lines)
            self.lines.append((node, just))
        return got

    def schema(self, idx: int, *sigma: int) -> int:
        return self.emit(instantiate_schema(self.arena, idx, sigma), ("schema", idx, tuple(sigma)))

    def mp(self, major: int, minor: int, node: int) -> int:
        return self.emit(node, ("mp", major, minor))

    def canon_as(self, j: int, node: int) -> int:
        """Restate line ``j`` as ``node`` (must canonize equally)."""
        return self.emit(node, ("canon", j))

    def taut(self, node: int) -> int:
        """Any circuit whose canonical form is constant true."""
        return self.canon_as(self.true_line, node)


# A judgment clause: a line index paired with its disjunct nodes.
GClause = tuple[int, tuple[int, ...]]


class _Gamma:
    """Derivations under one fixed hypothesis ``gamma``.

    A judgment line for X is a line for ``gamma -> X``; its canonical form
    is ``!gamma | flatten(X)``.  A *clause* bundles such a line with the
    list of disjunct nodes it tracks, and :meth:`res` is the cut rule on
    one disjunct, justified through excluded middle and the case split
    schema.  Disjuncts may be arbitrary circuits, not just literals.

    The writer's dedup memoizes lines.  The one memo kept here,
    :meth:`hyp_lift`'s, is kept because it changes the arena (see there).
    """

    def __init__(self, w: _Writer, gamma: int):
        self.w = w
        self.b = w.arena
        self.gamma = gamma
        # Keyed by form, so a call with other nodes of the same form gets
        # the first call's line; re-deriving from them would build new
        # arena nodes (at (2,2,2) the arena grows 8,907 -> 9,097).
        self._hyp_cache: dict[tuple[int, int], int] = {}

    def j(self, x: int) -> int:
        return self.b.imp(self.gamma, x)

    # -- implication plumbing ----------------------------------------------

    def lift(self, line: int) -> int:
        """From a theorem line T conclude gamma -> T."""
        t = self.w.lines[line][0]
        return self.w.mp(self.w.schema(0, t, self.gamma), line, self.j(t))

    def mp_ctx(self, line_ab: int, line_a: int, a: int, bnode: int) -> int:
        """From gamma -> (a -> b) and gamma -> a conclude gamma -> b."""
        s2 = self.w.schema(1, self.gamma, a, bnode)
        step = self.w.mp(s2, line_ab, self.b.imp(self.j(a), self.j(bnode)))
        return self.w.mp(step, line_a, self.j(bnode))

    def hyp_lift(self, line_x: int, x: int, h: int) -> int:
        """From gamma -> x conclude gamma -> (h -> x)."""
        key = (self.w.ct.canon(self.w.lines[line_x][0]), self.w.ct.canon(h))
        got = self._hyp_cache.get(key)
        if got is not None:
            return got
        s1 = self.w.schema(0, x, h)
        jx = self.mp_ctx(self.lift(s1), line_x, x, self.b.imp(h, x))
        self._hyp_cache[key] = jx
        return jx

    def mp_hyp(self, line_hab: int, line_ha: int, h: int, a: int, bnode: int) -> int:
        """Modus ponens one hypothesis deep: from gamma -> (h -> (a -> b))
        and gamma -> (h -> a) conclude gamma -> (h -> b)."""
        s2 = self.w.schema(1, h, a, bnode)
        big = self.mp_ctx(
            self.lift(s2),
            line_hab,
            self.b.imp(h, self.b.imp(a, bnode)),
            self.b.imp(self.b.imp(h, a), self.b.imp(h, bnode)),
        )
        return self.mp_ctx(big, line_ha, self.b.imp(h, a), self.b.imp(h, bnode))

    def compose(self, line_hd: int, h: int, d: int, th_line: int, c: int) -> int:
        """From gamma -> (h -> d) and a theorem d -> c, gamma -> (h -> c)."""
        j_dc = self.lift(th_line)
        j_h_dc = self.hyp_lift(j_dc, self.b.imp(d, c), h)
        return self.mp_hyp(j_h_dc, line_hd, h, d, c)

    def or_imp(self, line_ac: int, line_bc: int, a: int, bnode: int, c: int) -> int:
        """From gamma -> (a -> c) and gamma -> (b -> c) conclude
        gamma -> ((a | b) -> c)."""
        s9 = self.w.schema(8, a, bnode, c)
        step = self.mp_ctx(
            self.lift(s9),
            line_ac,
            self.b.imp(a, c),
            self.b.imp(self.b.imp(bnode, c), self.b.imp(self.b.or_(a, bnode), c)),
        )
        return self.mp_ctx(
            step, line_bc, self.b.imp(bnode, c), self.b.imp(self.b.or_(a, bnode), c)
        )

    # -- clause calculus -----------------------------------------------------

    def clause(self, line: int, parts: Sequence[int]) -> GClause:
        """Bundle a line with its disjuncts, deduplicated by form."""
        firsts: dict[int, int] = {}
        for p in parts:
            firsts.setdefault(self.w.ct.canon(p), p)
        return (line, tuple(firsts.values()))

    def res(self, g1: GClause, g2: GClause, pivot: int) -> GClause:
        """Resolve two clauses on ``pivot``: ``g1`` holds it positively,
        ``g2`` negatively.  Excluded middle on the pivot is canonically
        true, so the cut is a case split plus two monotone weakenings."""
        ct = self.w.ct
        pc = ct.canon(pivot)
        npivot = self.b.not_(pivot)
        a_parts = [p for p in g1[1] if ct.canon(p) != pc]
        b_parts = [p for p in g2[1] if ct.canon(p) != ct.not_(pc)]
        da = self.b.or_many(a_parts)
        db = self.b.or_many(b_parts)
        c = self.b.or_(da, db)
        u1 = self.w.canon_as(g1[0], self.j(self.b.imp(npivot, da)))
        u2 = self.w.canon_as(g2[0], self.j(self.b.imp(pivot, db)))
        w1 = self.compose(u1, npivot, da, self.w.schema(6, da, db), c)
        w2 = self.compose(u2, pivot, db, self.w.schema(7, da, db), c)
        # p | !p canonizes exactly like the S7 instance p -> (p | !p): the
        # extra !p disjunct S7 adds is already present in the flattened
        # form, whatever shape p has.
        em_node = self.b.or_(pivot, npivot)
        em = self.lift(self.w.emit(em_node, ("schema", 6, (pivot, npivot))))
        out = self.mp_ctx(self.or_imp(w2, w1, pivot, npivot, c), em, em_node, c)
        return self.clause(out, list(a_parts) + list(b_parts))

    def weaken(self, g: GClause, extra: Sequence[int]) -> GClause:
        """Add disjuncts to a clause."""
        parts = self.clause(g[0], list(g[1]) + list(extra))[1]
        new = parts[len(g[1]):]  # g's own parts are already distinct
        if not new:
            return g
        d = self.b.or_many(g[1])
        e = self.b.or_many(new)
        c = self.b.or_(d, e)
        line = self.mp_ctx(
            self.lift(self.w.schema(6, d, e)), self.w.canon_as(g[0], self.j(d)), d, c
        )
        return (line, parts)


class _Projector:
    """Judgment lines for the conjuncts of gamma's and-tree, derived on
    demand through the two conjunction schemas and memoized per node.  One
    depth-first walk at construction records each conjunct's parent."""

    def __init__(self, g: _Gamma):
        self.g = g
        self._have: dict[int, int] = {g.gamma: g.w.taut(g.j(g.gamma))}
        self._parent: dict[int, tuple[int, int]] = {}
        nodes = g.b.nodes
        stack = [g.gamma]
        while stack:
            x = stack.pop()
            gx = nodes[x]
            if gx[0] != "and":
                continue
            for side, ch in enumerate(gx[1:]):
                if ch not in self._parent:
                    self._parent[ch] = (x, side)
                    stack.append(ch)

    def line_for(self, node: int) -> int:
        got = self._have.get(node)
        if got is not None:
            return got
        if node not in self._parent:
            raise RuntimeError("node is not a conjunct of gamma")
        chain = []
        x = node
        while x not in self._have:
            chain.append(x)
            x = self._parent[x][0]
        for child in reversed(chain):
            parent, side = self._parent[child]
            th = self.g.w.schema(3 + side, *self.g.b.nodes[parent][1:])
            self._have[child] = self.g.mp_ctx(self.g.lift(th), self._have[parent], parent, child)
        return self._have[node]


# ---------------------------------------------------------------------------
# The reflection proof


@nogc
def cf_prove_rfn_res(m: int, n: int, k: int, check: bool = True) -> CfProof:
    """A Frege proof of ``build_rfn(m, n, k)``: an encoded resolution
    refutation of a coded CNF rules out any satisfying assignment for it.

    The derivation tracks, for each hypothetical proof line j, the clause
    "line j's clause contains a literal true under z" and establishes it by
    induction on j: downloads inherit a true literal from the satisfied
    source clause, resolutions inherit one from either premise (the pivot
    literal being covered by the two z polarities), and the final line's
    emptiness closes the contradiction.  Ends in a circuit equal, gate for
    gate, to ``build_rfn(m, n, k)``.

    Size: at most ``360 * m * n * (m + n + k)`` lines -- quadratic in m
    (one arc case split per ordered premise pair), quadratic in n (each
    resolution step sweeps the other pivots), linear in k (one download
    elimination per source-clause slot).  Measured over the full 6x6x6
    grid the ratio to that bound peaks at 352 and the log-log tail slopes
    are 1.51 in m, 1.13 in n, and 0.38 in k, all inside the documented
    degrees (2, 2, 1).

    With ``check`` the finished proof passes :func:`cf_check` before it is
    returned (a rejection raises ``RuntimeError``); ``check=False`` returns
    it unchecked, for the caller to check.  A coded CNF needs a clause:
    ``k < 1`` raises ``ValueError``, like the layout's own range checks.
    """
    if k < 1:
        raise ValueError("rfn proof needs k >= 1 source clauses")
    lay = PrfLayout(m, n, k, symbolic=True)
    w = _Writer(CircuitBuilder(lay.total_vars + n))
    b = w.arena
    prf, sat, conj_parts = _rfn_parts(b, lay)
    gamma = b.and_(prf, sat)
    g = _Gamma(w, gamma)
    ct = w.ct

    # One side may canonize away outright (an empty clause in the coded
    # structure): then gamma is canonically false and we are done at once.
    if ct.canon(g.j(b.const(0))) == ct.TRUE:
        bottom_line = w.taut(g.j(b.const(0)))
        return _export(w, g, prf, sat, bottom_line, m, n, k, check)

    proj = _Projector(g)

    def use(name: tuple) -> GClause:
        parts = conj_parts[name]
        return g.clause(proj.line_for(b.or_many(parts)), parts)

    zvar = lambda i: b.var(lay.z(i))
    yvar = lambda e, i, j: b.var(lay.y(e, i, j))
    zlit = lambda e, i: zvar(i) if e else b.not_(zvar(i))

    def el(i: int, j: int) -> int:
        """Line j's clause holds a literal on variable i true under z."""
        return b.or_(b.and_(yvar(1, i, j), zvar(i)), b.and_(yvar(0, i, j), b.not_(zvar(i))))

    def pick(i: int, l: int) -> int:
        cvar = lambda e: b.var(lay.code(e, i, l))
        return b.or_(b.and_(cvar(1), zvar(i)), b.and_(cvar(0), b.not_(zvar(i))))

    # gamma -> (H -> side_of_H) for and-nodes H, and the same as a clause.
    def half_clause(h: int, side: int) -> GClause:
        line = g.lift(w.schema(3 + side, *b.nodes[h][1:]))
        return g.clause(line, [b.not_(h), b.nodes[h][1 + side]])

    # {!and(y, zlit), EL(i,j)}: an and-leaf implies its disjunction.
    def leaf_inject(i: int, j: int, e: int) -> GClause:
        hnode = b.and_(yvar(e, i, j), zlit(e, i))
        other = b.and_(yvar(1 - e, i, j), zlit(1 - e, i))
        if e == 1:
            th = w.schema(6, hnode, other)
        else:
            th = w.schema(7, other, hnode)
        return g.clause(g.lift(th), [b.not_(hnode), el(i, j)])

    # {!zlit(e,i), !y(e,i,j), EL(i,j)}: a held literal bit plus the right
    # z polarity witness EL.  The writer would return the same lines, but
    # each hit skips a whole cut derivation: 720 of 792 calls at (6,6,6).
    # Without the memo the prover there lost 5 of 5 paired runs on a 2-core
    # machine (best CPU time 1.42 -> 1.48 s).
    el_intro_cache: dict[tuple, GClause] = {}

    def el_intro(i: int, j: int, e: int) -> GClause:
        got = el_intro_cache.get((i, j, e))
        if got is None:
            y, zl = yvar(e, i, j), zlit(e, i)
            pair = b.and_(y, zl)
            s6 = g.lift(w.schema(5, y, zl))
            sw = w.canon_as(s6, g.j(b.imp(zl, b.imp(y, pair))))
            cl = g.clause(sw, [b.not_(zl), b.not_(y), pair])
            got = el_intro_cache[i, j, e] = g.res(cl, leaf_inject(i, j, e), pair)
        return got

    # -- axiom case ----------------------------------------------------------

    # {!pick(i,l), !ax(j), !s(l,j), EL(i,j)}: a z-true coded literal of a
    # downloaded clause lands in the line's clause via the download rules.
    def pick_elim(i: int, l: int, j: int) -> GClause:
        common = b.or_many([b.not_(b.var(lay.ax(j))), b.not_(b.var(lay.s(l, j))), el(i, j)])
        branch_lines = []
        hs = []
        for e in (1, 0):
            cvar = b.var(lay.code(e, i, l))
            h = b.and_(cvar, zlit(e, i))
            hs.append(h)
            step = g.res(half_clause(h, 0), use(("c2", j, l, i, e)), cvar)
            step = g.res(step, el_intro(i, j, e), yvar(e, i, j))
            step = g.res(half_clause(h, 1), step, zlit(e, i))
            branch_lines.append(w.canon_as(step[0], g.j(b.imp(h, common))))
        both = g.or_imp(branch_lines[0], branch_lines[1], hs[0], hs[1], common)
        return g.clause(
            both,
            [b.not_(pick(i, l)), b.not_(b.var(lay.ax(j))), b.not_(b.var(lay.s(l, j))), el(i, j)],
        )

    # {!ax(j), !s(l,j)} + EL-parts(j)
    def transfer(l: int, j: int) -> GClause:
        sat_clause = b.or_many([pick(i, l) for i in range(1, n + 1)])
        acc = g.clause(proj.line_for(sat_clause), [pick(i, l) for i in range(1, n + 1)])
        acc = g.weaken(acc, [b.not_(b.var(lay.ax(j))), b.not_(b.var(lay.s(l, j)))])
        for i in range(1, n + 1):
            acc = g.res(acc, pick_elim(i, l, j), pick(i, l))
        return acc

    # {!ax(j)} + EL-parts(j)
    def axiom_case(j: int) -> GClause:
        acc = use(("alo_s", j))
        for l in range(1, k + 1):
            acc = g.res(acc, transfer(l, j), b.var(lay.s(l, j)))
        return acc

    # -- resolution case -----------------------------------------------------

    def junk(side: str, u: int, j: int) -> int:
        """Pivot marker: ``piv(u,j)`` holds and z sides with this premise."""
        return b.and_(b.var(lay.piv(u, j)), zvar(u) if side == "L" else b.not_(zvar(u)))

    # {!EL(i,jp), ax(j), !arc, junk(side,i,j), EL(i,j)}
    def arc_step(side: str, i: int, jp: int, j: int) -> GClause:
        arc = b.var(lay.L(jp, j) if side == "L" else lay.R(jp, j))
        common_parts = [b.var(lay.ax(j)), b.not_(arc), junk(side, i, j), el(i, j)]
        common = b.or_many(common_parts)
        branch_lines = []
        hs = []
        for e in (1, 0):
            h = b.and_(yvar(e, i, jp), zlit(e, i))
            hs.append(h)
            step = g.res(half_clause(h, 0), use(("c4", side, e, j, jp, i)), yvar(e, i, jp))
            if (side == "L") == (e == 1):
                # this premise polarity may be the pivot occurrence itself
                piv = b.var(lay.piv(i, j))
                jk = junk(side, i, j)
                s6 = g.lift(w.schema(5, piv, zlit(e, i)))
                sw = w.canon_as(s6, g.j(b.imp(zlit(e, i), b.imp(piv, jk))))
                mk = g.clause(sw, [b.not_(zlit(e, i)), b.not_(piv), jk])
                mk = g.res(half_clause(h, 1), mk, zlit(e, i))
                step = g.res(step, mk, piv)
            else:
                step = g.weaken(step, [junk(side, i, j)])
            step = g.res(step, el_intro(i, j, e), yvar(e, i, j))
            step = g.res(half_clause(h, 1), step, zlit(e, i))
            branch_lines.append(w.canon_as(step[0], g.j(b.imp(h, common))))
        both = g.or_imp(branch_lines[0], branch_lines[1], hs[0], hs[1], common)
        return g.clause(both, [b.not_(el(i, jp))] + common_parts)

    # {(!)z_i, ax(j), !piv(i,j)} + EL-parts(j): under one z polarity the
    # matching side's junk disjuncts all die -- the pivot's own marker by
    # z contradiction, the others by at-most-one-pivot.
    def junk_free(base: GClause, side: str, i: int, j: int) -> GClause:
        acc = base
        for u in range(1, n + 1):
            jk = junk(side, u, j)
            if u == i:
                acc = g.res(acc, half_clause(jk, 1), jk)
            else:
                kill = g.res(
                    half_clause(jk, 0),
                    use(("amo_piv", j, min(i, u), max(i, u))),
                    b.var(lay.piv(u, j)),
                )
                acc = g.res(acc, kill, jk)
        return acc

    # {ax(j)} + EL-parts(j)
    def resolution_case(j: int, s_clauses: list) -> GClause:
        g_side = {}
        for side in ("L", "R"):
            u_list = []
            for jp in range(1, j):
                acc = s_clauses[jp]
                for i in range(1, n + 1):
                    acc = g.res(acc, arc_step(side, i, jp, j), el(i, jp))
                u_list.append(acc)
            acc = use(("alo_arc_" + side, j))
            for jp in range(1, j):
                arc = b.var(lay.L(jp, j) if side == "L" else lay.R(jp, j))
                acc = g.res(acc, u_list[jp - 1], arc)
            g_side[side] = acc
        if n == 1:
            # no other pivot candidates: the z split alone clears the junk
            nbranch = junk_free(g_side["L"], "L", 1, j)
            zbranch = junk_free(g_side["R"], "R", 1, j)
            return g.res(nbranch, zbranch, zvar(1))
        acc = use(("alo_piv", j))
        for i in range(1, n + 1):
            nbranch = junk_free(g_side["L"], "L", i, j)
            zbranch = junk_free(g_side["R"], "R", i, j)
            pv = g.res(nbranch, zbranch, zvar(i))
            acc = g.res(acc, pv, b.var(lay.piv(i, j)))
        return acc

    # {!EL(i,m)}: the final line's clause is empty.
    def el_refute(i: int) -> GClause:
        branch_lines = []
        hs = []
        for e in (1, 0):
            h = b.and_(yvar(e, i, m), zlit(e, i))
            hs.append(h)
            dead = g.res(half_clause(h, 0), use(("c5", i, e)), yvar(e, i, m))
            branch_lines.append(w.canon_as(dead[0], g.j(b.imp(h, b.const(0)))))
        both = g.or_imp(branch_lines[0], branch_lines[1], hs[0], hs[1], b.const(0))
        return g.clause(both, [b.not_(el(i, m))])

    # -- induction over lines --------------------------------------------------

    s_clauses: list = [None] * (m + 1)
    for j in range(1, m + 1):
        a_case = axiom_case(j)
        if j == 1:
            s_clauses[1] = g.res(use(("ax_first",)), a_case, b.var(lay.ax(1)))
        else:
            r_case = resolution_case(j, s_clauses)
            s_clauses[j] = g.res(r_case, a_case, b.var(lay.ax(j)))

    acc = s_clauses[m]
    for i in range(1, n + 1):
        acc = g.res(acc, el_refute(i), el(i, m))
    bottom_line = w.canon_as(acc[0], g.j(b.const(0)))
    return _export(w, g, prf, sat, bottom_line, m, n, k, check)


def _export(
    w: _Writer, g: _Gamma, prf: int, sat: int, bottom_line: int, m: int, n: int, k: int, check: bool
) -> CfProof:
    """From gamma -> 0 conclude prf -> !sat, ending in the rfn circuit."""
    b = w.arena
    zero = b.const(0)
    gam = g.gamma
    s6 = w.schema(5, prf, sat)  # prf -> (sat -> gamma)
    t = w.lines[bottom_line][0]
    l1 = w.mp(w.schema(0, t, sat), bottom_line, b.imp(sat, t))
    l2 = w.mp(w.schema(0, b.imp(sat, t), prf), l1, b.imp(prf, b.imp(sat, t)))
    outer = _Gamma(w, prf)
    under = outer.mp_hyp(
        w.canon_as(l2, b.imp(prf, b.imp(sat, b.imp(gam, zero)))),
        w.canon_as(s6, b.imp(prf, b.imp(sat, gam))),
        sat,
        gam,
        zero,
    )
    # appended, not emitted: it canonizes like ``under``, which dedup returns
    w.lines.append((b.imp(prf, b.not_(sat)), ("canon", under)))
    proof = CfProof(w.arena, tuple(w.lines))
    if proof.last_circuit() != build_rfn(m, n, k):
        raise RuntimeError("final circuit is not the reflection target")
    return _checked(proof, "reflection") if check else proof


# ---------------------------------------------------------------------------
# Satisfaction/inlining equivalence


def cf_prove_sat_equiv(f: Cnf) -> CfProof:
    """Six lines proving ``sat`` at ``f``'s code equivalent to ``f`` inlined.

    Both circuits canonize identically -- the code bits are constants, so
    every selector gate folds to the chosen literal -- which makes each
    implication direction canonically true; the conjunction then needs one
    pairing schema and two detachments.  Always exactly 6 lines: the
    constant axiom, the two directions, and the pairing.
    """
    code = encode_cnf(f, strict=False)
    b = CircuitBuilder(f.n)
    true_node = instantiate_schema(b, 9, ())
    satc = _sat_circuit(b, f.n, f.k, lambda e, i, l: b.const(code.get(e, i, l)), lambda i: b.var(i))
    inlined = b.cnf_circuit(f)
    fwd = b.imp(inlined, satc)
    bwd = b.imp(satc, inlined)
    pairing = instantiate_schema(b, 5, (fwd, bwd))
    # the two sides canonize identically, so p | q collapses to p and each
    # direction is canonically an instance of p -> (p | q)
    lines = (
        (true_node, ("schema", 9, ())),
        (fwd, ("schema", 6, (inlined, satc))),
        (bwd, ("schema", 6, (satc, inlined))),
        (pairing, ("schema", 5, (fwd, bwd))),
        (b.imp(bwd, b.and_(fwd, bwd)), ("mp", 3, 1)),
        (b.and_(fwd, bwd), ("mp", 4, 2)),
    )
    return _checked(CfProof(b, lines), "satisfaction-equivalence")


# ---------------------------------------------------------------------------
# Substitution and local reflection


def cf_substitute(
    proof: CfProof,
    gamma: Mapping[int, Circuit],
    n_vars: int | None = None,
) -> CfProof:
    """Replace input variables by circuits throughout a proof.

    The line count is unchanged and validity is preserved: canonical
    equality is a congruence for substitution.  Variables missing from
    ``gamma`` map to themselves.  The result is checked before it is
    returned.
    """
    if n_vars is None:
        n_vars = max([proof.arena.n_vars] + [c.n_vars for c in gamma.values()])
    arena = CircuitBuilder(n_vars)
    roots: dict[int, int] = {}
    for v, c in gamma.items():
        if not 1 <= v <= proof.arena.n_vars:
            raise ValueError(f"substituted variable {v} out of range")
        roots[v] = arena.import_circuit(c)
    return _checked(_substitute(proof, arena, roots), "substituted")


def _substitute(proof: CfProof, arena: CircuitBuilder, image: Mapping[int, int]) -> CfProof:
    """Copy a proof's lines into ``arena``, replacing each input variable
    ``v`` by the node ``image[v]`` (by itself when absent).  Only the nodes
    the lines reach are copied, children before parents, so the new ids
    follow the old order after whatever ``arena`` already holds."""

    def var_of(v: int) -> int:
        got = image.get(v)
        return arena.var(v) if got is None else got

    nodes = proof.arena.nodes
    remap = arena.copy(nodes, cone(nodes, _roots(proof)), var_of)
    lines = []
    for node, just in proof.lines:
        if just[0] == "schema":
            just = ("schema", just[1], tuple(remap[s] for s in just[2]))
        lines.append((remap[node], just))
    return CfProof(arena, tuple(lines))


def lrfn_from_rfn(proof: CfProof, f: Cnf) -> CfProof:
    """Specialize a reflection proof to one CNF.

    Substitutes ``f``'s code bits as constants, re-points the assignment
    inputs at the local layout, and restates the last line as the
    local-reflection circuit -- a single canonization step, because the
    instantiated proof side matches gate for gate and the constant-folded
    satisfaction side canonizes like the inlined formula.
    """
    rfn = proof.last_circuit()
    n, k = f.n, f.k
    m = 1
    while PrfLayout(m, n, k, symbolic=True).total_vars + n < rfn.n_vars:
        m += 1
    # input counts can collide across layouts, so insist on the real shape
    if rfn != build_rfn(m, n, k):
        raise ValueError("formula dimensions do not match the proof's layout")
    sym, lay = PrfLayout(m, n, k, symbolic=True), PrfLayout(m, n, k)
    code = encode_cnf(f, strict=False)
    target = build_lrfn(f, m)
    # Seeding the arena with the target first keeps its gate order, so the
    # last line rebuilds it gate for gate; the copy then hash-conses into it.
    arena = CircuitBuilder(lay.total_vars + n)
    tnode = arena.import_circuit(target)
    image: dict[int, int] = {}
    # code_pos order, then z: this order numbers the nodes the target lacks
    for e in (0, 1):
        for i in range(1, n + 1):
            for l in range(1, k + 1):
                image[sym.code(e, i, l)] = arena.const(code.get(e, i, l))
    for i in range(1, n + 1):
        image[sym.z(i)] = arena.var(lay.z(i))
    sub = _substitute(proof, arena, image)
    out = CfProof(arena, sub.lines + ((tnode, ("canon", len(sub.lines) - 1)),))
    if out.last_circuit() != target:
        raise RuntimeError("localized proof does not end in the local-reflection circuit")
    return _checked(out, "localized")
