"""Resolution refutations: representation, checking, restriction, text format.

A proof is a sequence of lines, each carrying the clause it claims and a
justification:

* ``('A', l)`` — download of input clause ``l`` (0-based index into the
  target CNF);
* ``('R', j1, j2, i)`` — resolution of earlier lines ``j1`` and ``j2`` on
  variable ``i`` (``x_i`` must occur in line ``j1``, ``¬x_i`` in ``j2``).

Each line's rule derives a clause (the downloaded clause or the resolvent),
and the claimed clause is compared with it: ``'strict'`` mode requires them
equal, ``'weakening'`` a superset whose extra literals lie over variables
``1..n``.  A refutation must end in the empty clause.  Its text has one
spelling: :func:`parse_proof` reads exactly the texts :func:`emit_proof` writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .core import (
    CheckReport,
    Cnf,
    nogc,
    read_clause,
    read_lines,
    read_number,
    restrict_clause,
    restrict_cnf,
    sorted_literals,
)


Justification = tuple
ProofLine = tuple[frozenset[int], Justification]


@dataclass(frozen=True)
class ResolutionProof:
    target: Cnf
    lines: tuple[ProofLine, ...]

    def __len__(self) -> int:
        return len(self.lines)

    @cached_property
    def _text(self) -> str:
        # The proof is immutable, so its text is printed at most once; the
        # cached value lives in the instance dict, outside the fields.
        return _print_proof(self)

    def bit_size(self) -> int:
        """Serialized length in bytes; the size measure used in reports."""
        return len(emit_proof(self).encode())


MODES = ("strict", "weakening")


@nogc
def check_refutation(f: Cnf, proof: ResolutionProof, mode: str = "strict") -> CheckReport:
    """Check that ``proof`` refutes ``f``; see module docstring for modes."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if proof.target != f:
        raise ValueError("proof target does not match the formula being checked")

    def fail(step: int, reason: str) -> CheckReport:
        return CheckReport(False, step, reason, len(proof.lines), 0)

    if not proof.lines:
        return fail(0, "empty proof")

    for t, line in enumerate(proof.lines):
        if type(line) is not tuple or len(line) != 2:
            return fail(t, "line is not a (clause, justification) pair")
        clause, just = line
        if type(clause) is not frozenset:
            return fail(t, "clause is not a frozenset")
        if not {int}.issuperset(map(type, clause)):
            return fail(t, "clause has a literal out of range (not an int)")
        if type(just) is not tuple or not just:
            return fail(t, "missing or malformed justification")
        if just[0] == "A":
            if len(just) != 2:
                return fail(t, "malformed axiom justification")
            l = just[1]
            if type(l) is not int or not 0 <= l < f.k:
                return fail(t, f"axiom index {l!r} out of range")
            derived = f.clauses[l]
            mismatch, missing = "axiom clause mismatch", "clause does not contain the axiom"
        elif just[0] == "R":
            if len(just) != 4:
                return fail(t, "malformed resolution justification")
            j1, j2, i = just[1], just[2], just[3]
            if not (type(j1) is type(j2) is int and 0 <= j1 < t and 0 <= j2 < t):
                return fail(t, "premise index out of range")
            if type(i) is not int or not 1 <= i <= f.n:
                return fail(t, f"pivot variable {i!r} out of range")
            c1, c2 = proof.lines[j1][0], proof.lines[j2][0]
            if i not in c1:
                return fail(t, "pivot missing from first premise")
            if -i not in c2:
                return fail(t, "negated pivot missing from second premise")
            derived = (c1 - {i}) | (c2 - {-i})
            mismatch, missing = "resolvent mismatch", "clause does not contain the resolvent"
        else:
            return fail(t, f"unknown rule {just[0]!r}")
        if clause != derived:
            if mode == "strict":
                return fail(t, mismatch)
            if not derived <= clause:
                return fail(t, missing)
            # only literals over variables 1..n have a text form
            if not all(0 < abs(lit) <= f.n for lit in clause - derived):
                return fail(t, "weakening adds a literal out of range")

    if proof.lines[-1][0] != frozenset():
        return fail(len(proof.lines) - 1, "final line is not the empty clause")
    return CheckReport(True, None, None, len(proof.lines), proof.bit_size())


# ---------------------------------------------------------------------------
# Restriction


def restrict_proof(f: Cnf, proof: ResolutionProof, rho: Mapping[int, int]) -> ResolutionProof:
    """Turn a refutation of ``f`` into one of ``f`` restricted by ``rho``.

    Lines whose clause is satisfied by ``rho`` are dropped.  A resolution
    step whose pivot is assigned loses one premise to satisfaction (the
    premise whose pivot literal became true); the surviving premise's
    restricted clause is contained in the line's restricted clause, so the
    line inherits that premise's justification.  The result never has more
    lines than the input and checks in weakening mode.

    Raises ``ValueError`` if the restriction satisfies every clause of
    ``f`` (there is nothing left to refute).
    """
    g = restrict_cnf(f, rho)
    if g.k == 0:
        raise ValueError("restriction trivializes the formula")

    # Map original clause indices to their positions in g.
    axiom_map: dict[int, int] = {}
    pos = 0
    for l, cl in enumerate(f.clauses):
        if restrict_clause(cl, rho) is not None:
            axiom_map[l] = pos
            pos += 1

    new_lines: list[ProofLine] = []
    new_index: dict[int, int] = {}
    for t, (clause, just) in enumerate(proof.lines):
        rclause = restrict_clause(clause, rho)
        if rclause is None:
            continue
        if just[0] == "A":
            # The downloaded clause is inside this line's clause; had it been
            # satisfied, the line's clause would be too and we'd have skipped.
            njust: Justification = ("A", axiom_map[just[1]])
        else:
            _, j1, j2, i = just
            if i in rho:
                # The premise whose pivot literal became true is satisfied
                # and drops; the other survives (any other satisfied literal
                # of it would sit inside our clause as well), and its clause
                # minus the now-false pivot literal is inside ours, so we
                # inherit its repaired justification.
                survivor = j2 if rho[i] == 1 else j1
                njust = new_lines[new_index[survivor]][1]
            else:
                # With the pivot untouched, a dropped premise would force a
                # satisfied literal into our clause; both must survive.
                njust = ("R", new_index[j1], new_index[j2], i)
        new_index[t] = len(new_lines)
        new_lines.append((rclause, njust))

    result = ResolutionProof(g, tuple(new_lines))
    report = check_refutation(g, result, mode="weakening")
    if not report.ok:
        raise RuntimeError(f"restricted proof invalid at step {report.step}: {report.reason}")
    return result


# ---------------------------------------------------------------------------
# Text format


def emit_proof(proof: ResolutionProof) -> str:
    """Canonical text form.

    ``A <l>`` for an exact download; ``A <l> : <lits>`` when the line's
    clause weakens the download; ``R <j1> <j2> <pivot> : <lits>`` for
    resolution lines (the clause is always spelled out so weakening steps
    round-trip).  Literals are sorted by variable with the negative literal
    first on ties.  Each proof object is printed once; later calls return
    the same string.
    """
    return proof._text


@nogc
def _print_proof(proof: ResolutionProof) -> str:
    out = []
    axioms = proof.target.clauses
    for clause, just in proof.lines:
        if just[0] == "A" and clause == axioms[just[1]]:
            out.append(f"A {just[1]}")
            continue
        lits = " ".join(map(str, sorted_literals(clause)))
        if just[0] == "A":
            out.append(f"A {just[1]} : {lits}".rstrip())
        else:
            out.append(f"R {just[1]} {just[2]} {just[3]} : {lits}".rstrip())
    return "\n".join(out) + "\n"


@nogc
def parse_proof(text: str, target: Cnf) -> ResolutionProof:
    """Read the text :func:`emit_proof` writes for a proof of ``target``, and
    no other; a proof with no lines is the text ``"\\n"``.

    An ``A <l>`` line takes ``target``'s clause object itself, and an
    ``A <l> : <lits>`` line must spell another clause, since the emitter
    writes ``A <l>`` for that one.  The clauses spelled out in the text share
    their literals through :func:`~proofbench.core.read_clause`'s table.
    Raises ``ValueError`` naming the first line that does not parse.
    """
    rows = iter(read_lines(text) if text != "\n" else [])  # frees the list once read
    shared: dict[str, int] = {}
    lines: list[ProofLine] = []
    try:
        for lineno, row in enumerate(rows, start=1):
            toks = row.split(" ")
            if toks[0] == "R" and len(toks) > 4 and toks[4] == ":":
                j1, j2, piv = map(read_number, toks[1:4])
                if not (0 <= j1 < len(lines) and 0 <= j2 < len(lines)):
                    raise ValueError("forward or dangling premise reference")
                lines.append((read_clause(toks[5:], shared, target.n), ("R", j1, j2, piv)))
            elif toks[0] == "A" and (len(toks) == 2 or len(toks) > 2 and toks[2] == ":"):
                l = read_number(toks[1])
                if not 0 <= l < target.k:
                    raise ValueError(f"axiom index {l} out of range")
                axiom = target.clauses[l]
                clause = axiom if len(toks) == 2 else read_clause(toks[3:], shared, target.n)
                if len(toks) > 2 and clause == axiom:
                    raise ValueError(f"the clause of axiom {l} is written A {l}")
                lines.append((clause, ("A", l)))
            else:
                raise ValueError("malformed proof line")
    except ValueError as e:
        raise ValueError(f"line {lineno}: {e}") from None
    return ResolutionProof(target, tuple(lines))
