"""Constructive refutations: of refutation-existence instances, and of one
side of a variable-disjoint join (:func:`split_disjoint_refutation`).

If ``a`` satisfies ``F`` then no resolution refutation of ``F`` exists, so
the CNF ``build_prf(m, F.n, F.k, code(F))`` is unsatisfiable — and this
module refutes it, in resolution, with an explicit polynomial-size proof.

The engine is one derived clause per proof line of the hypothetical
refutation::

    S_j  =  OR_i  y(a_i, i, j)

"line j's clause contains a literal that ``a`` makes true".  Downloads
satisfy it because every clause of ``F`` does; resolutions inherit it from
their premises because only one polarity of the pivot can be true under
``a``; and the final-line constraints force line ``m``'s clause empty,
contradicting S_m.  The derivation of S_j from S_1 .. S_{j-1} costs
O(j·n + n²) lines, for a total within ``line_bound``.

Everything here is deterministic: same inputs, same proof, line for line.
"""

from __future__ import annotations

from typing import Sequence

from .core import Cnf, encode_cnf, nogc, shift_cnf
from .encoder import EncodingArtifact, build_prf
from .oracle import dpll_refute, dpll_sat
from .resolution import ProofLine, ResolutionProof, check_refutation, restrict_proof


def line_bound(m: int, n: int, k: int) -> int:
    """Generated-refutation length bound, valid on the domain n <= 3m."""
    return 10 * m * m * (m + n + k)


@nogc
def refute_prf_nontaut(f: Cnf, a: Sequence[int], m: int) -> ResolutionProof:
    """Refute ``build_prf(m, f.n, f.k, code(f))`` given ``a`` satisfying ``f``.

    Requires ``f.n <= 3 * m`` (the documented bound domain; every use in
    this package has n far below m).  The result has at most
    ``line_bound(m, f.n, f.k)`` lines and has passed ``check_refutation`` in
    weakening mode (a rejection raises ``RuntimeError``), so callers need
    not check it again.
    """
    n, k = f.n, f.k
    if len(a) != n or any(b not in (0, 1) for b in a):
        raise ValueError("assignment must be n bits")
    if not n <= 3 * m:
        raise ValueError("line budget too small for this many variables (need n <= 3m)")
    art = build_prf(m, n, k, encode_cnf(f, strict=False))
    g = art.formula
    lay = art.layout
    cidx = art.clause_index

    lines: list[ProofLine] = []

    def checked() -> ResolutionProof:
        proof = ResolutionProof(g, tuple(lines))
        report = check_refutation(g, proof, mode="weakening")
        if not report.ok:
            raise RuntimeError(f"generated refutation invalid at {report.step}: {report.reason}")
        return proof

    def emit(clause: frozenset[int], just: tuple) -> int:
        lines.append((clause, just))
        return len(lines) - 1

    def download(name: tuple) -> int:
        l = cidx[name]
        return emit(g.clauses[l], ("A", l))

    def resolve(j_pos: int, j_neg: int, var: int) -> int:
        c1, c2 = lines[j_pos][0], lines[j_neg][0]
        return emit((c1 - {var}) | (c2 - {-var}), ("R", j_pos, j_neg, var))

    def s_clause(j: int) -> frozenset[int]:
        return frozenset(lay.y(a[i - 1], i, j) for i in range(1, n + 1))

    if k == 0:
        # Line 1 can download nothing: alo_s(1) is the unit -ax(1) and
        # ax_first the unit +ax(1).
        c1 = download(("alo_s", 1))
        c2 = download(("ax_first",))
        resolve(c2, c1, lay.ax(1))
        return checked()

    def true_literal(l: int) -> tuple[int, int]:
        """(e, i) of the first literal of input clause ``l`` true under a."""
        cl = f.clauses[l - 1]
        for i in range(1, n + 1):
            e = a[i - 1]
            if (i if e else -i) in cl:
                return e, i
        raise ValueError(f"assignment does not satisfy input clause {l - 1}")

    def axiom_branch(j: int) -> int:
        """{-ax(j)} | S_j: whatever line j downloads, it contains an a-true
        literal."""
        sj = s_clause(j)
        acc = download(("alo_s", j))
        for l in range(1, k + 1):
            e, i = true_literal(l)
            # a weakening of the c2 download
            t = emit(frozenset([-lay.ax(j), -lay.s(l, j)]) | sj, ("A", cidx[("c2", j, l, i, e)]))
            acc = resolve(acc, t, lay.s(l, j))
        return acc

    def resolution_branch(j: int, s_line: list[int]) -> int:
        """{ax(j)} | S_j: if line j resolves, its clause keeps an a-true
        literal from a premise (the pivot's true polarity punches through
        as a junk piv literal that at-most-one pivot selection removes)."""
        sj = s_clause(j)
        junk = {
            "L": frozenset(lay.piv(i, j) for i in range(1, n + 1) if a[i - 1] == 1),
            "R": frozenset(lay.piv(i, j) for i in range(1, n + 1) if a[i - 1] == 0),
        }
        g_side: dict[str, int] = {}
        for side in ("L", "R"):
            u_lines = []
            for jp in range(1, j):
                acc = s_line[jp]
                for i in range(1, n + 1):
                    e = a[i - 1]
                    c4 = download(("c4", side, e, j, jp, i))
                    acc = resolve(acc, c4, lay.y(e, i, jp))
                u_lines.append(acc)
            acc = download(("alo_arc_" + side, j))
            for jp in range(1, j):
                arc = lay.L(jp, j) if side == "L" else lay.R(jp, j)
                acc = resolve(acc, u_lines[jp - 1], arc)
            g_side[side] = acc

        if not junk["L"]:
            r_line = g_side["L"]
        elif not junk["R"]:
            r_line = g_side["R"]
        else:
            # Both junk sets live: per pivot i, clear the opposite side's
            # junk through the at-most-one-pivot clauses, then fold the
            # resulting {ax, -piv(i)} | S_j lines into alo_piv.
            p_line = {}
            for i in range(1, n + 1):
                side = "R" if a[i - 1] == 1 else "L"
                acc = g_side[side]
                for u in range(1, n + 1):
                    if lay.piv(u, j) not in junk[side]:
                        continue
                    amo = download(("amo_piv", j, min(i, u), max(i, u)))
                    acc = resolve(acc, amo, lay.piv(u, j))
                p_line[i] = acc
            acc = download(("alo_piv", j))
            for i in range(1, n + 1):
                acc = resolve(acc, p_line[i], lay.piv(i, j))
            r_line = acc
        return r_line

    s_line = [None]  # 1-based
    for j in range(1, m + 1):
        a_branch = axiom_branch(j)
        if j == 1:
            first = download(("ax_first",))
            s_line.append(resolve(first, a_branch, lay.ax(1)))
        else:
            r_branch = resolution_branch(j, s_line)
            s_line.append(resolve(r_branch, a_branch, lay.ax(j)))

    acc = s_line[m]
    for i in range(1, n + 1):
        e = a[i - 1]
        c5 = download(("c5", i, e))
        acc = resolve(acc, c5, lay.y(e, i, m))

    if len(lines) > line_bound(m, n, k):
        raise RuntimeError(f"generated refutation exceeds line_bound: {len(lines)} lines")
    return checked()


# ---------------------------------------------------------------------------
# Witness embedding (the converse direction)


def encode_witness(
    f: Cnf,
    proof: ResolutionProof,
    m: int,
    artifact: EncodingArtifact | None = None,
) -> tuple[int, ...]:
    """Bit image of a weakening refutation of ``f`` inside the ``m``-line
    prf variable space; the result satisfies ``build_prf(m, f.n, f.k,
    code(f)).formula``.

    Proofs shorter than ``m`` are padded by repeating the first line (a
    download) before the final one; the final line's premise indices are
    unaffected because every original line keeps its position.
    """
    report = check_refutation(f, proof, mode="weakening")
    if not report.ok:
        raise ValueError(f"witness proof invalid at step {report.step}: {report.reason}")
    if m < len(proof):
        raise ValueError(f"proof has {len(proof)} lines but only {m} fit")
    if artifact is None:
        artifact = build_prf(m, f.n, f.k, encode_cnf(f, strict=False))
    lay = artifact.layout
    if (lay.m, lay.n, lay.k) != (m, f.n, f.k) or lay.symbolic:
        raise ValueError("artifact does not match the requested embedding")
    if artifact.code != encode_cnf(f, strict=False):
        raise ValueError("artifact encodes a different formula")

    pad = m - len(proof)
    if pad and f.k == 0:
        raise ValueError("cannot pad: no clause to download")
    padded = list(proof.lines[:-1]) + [proof.lines[0]] * pad + [proof.lines[-1]]

    bits = [0] * lay.total_vars

    def set_(v: int) -> None:
        bits[v - 1] = 1

    for j, (clause, just) in enumerate(padded, start=1):
        for lit in clause:
            set_(lay.y(1 if lit > 0 else 0, abs(lit), j))
        if just[0] == "A":
            set_(lay.ax(j))
            set_(lay.s(just[1] + 1, j))
        else:
            _, j1, j2, piv = just
            set_(lay.piv(piv, j))
            set_(lay.L(j1 + 1, j))
            set_(lay.R(j2 + 1, j))
    return tuple(bits)


# ---------------------------------------------------------------------------
# Feasible disjunction splitting


def join_disjoint(a: Cnf, b: Cnf) -> tuple[Cnf, Cnf, Cnf]:
    """Embed ``a`` and ``b`` into one variable space with ``b`` shifted up.

    Returns the two re-embedded CNFs and their concatenation (clauses of
    ``a`` first), which is unsatisfiable whenever either side is.
    """
    n = a.n + b.n
    a2 = Cnf(n, a.clauses)
    b2 = shift_cnf(b, a.n, n)
    return a2, b2, Cnf(n, a2.clauses + b2.clauses)


def split_disjoint_refutation(a: Cnf, b: Cnf, proof: ResolutionProof):
    """Given a refutation of the union of two variable-disjoint CNFs,
    produce a refutation of one side, identified as ``('A', pa)`` or
    ``('B', pb)``.

    ``a`` and ``b`` must share the proof's variable space (``a.n == b.n ==
    proof.target.n``) while mentioning disjoint variable sets, and the
    target's clauses must be ``a``'s followed by ``b``'s.

    If ``a`` is satisfiable, restricting the proof by a satisfying
    assignment of ``a``'s variables kills every ``a``-clause and leaves a
    refutation of ``b`` (and symmetrically).  If both are unsatisfiable the
    restriction argument is unavailable, so a refutation of ``a`` is built
    directly from its clauses.
    """
    if not (a.n == b.n == proof.target.n):
        raise ValueError("sides must share the proof's variable space")
    if proof.target.clauses != a.clauses + b.clauses:
        raise ValueError("proof target is not the concatenation of the sides")
    mention_a = {abs(l) for cl in a.clauses for l in cl}
    mention_b = {abs(l) for cl in b.clauses for l in cl}
    if mention_a & mention_b:
        raise ValueError("sides mention a common variable")

    res_a = dpll_sat(a)
    if res_a[0] == "sat":
        # Restricting by a's satisfying assignment (projected to the
        # variables a actually mentions) deletes exactly a's clauses, so
        # the restricted target is b itself.  A clause-free a mentions no
        # variable, and the empty restriction just checks the proof.
        rho = {v: res_a[1][v - 1] for v in mention_a}
        return ("B", restrict_proof(proof.target, proof, rho))

    res_b = dpll_sat(b)
    if res_b[0] == "sat":
        # a's clauses come first in the target, so surviving axiom
        # indices already match a's clause positions.
        rho = {v: res_b[1][v - 1] for v in mention_b}
        return ("A", restrict_proof(proof.target, proof, rho))

    if res_a[0] == "exhausted" or res_b[0] == "exhausted":
        raise RuntimeError("satisfiability probe exhausted its budget")

    # Both sides unsatisfiable: refute a on its own.
    pa = dpll_refute(a)
    return ("A", pa)
