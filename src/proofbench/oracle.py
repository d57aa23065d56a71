"""Semantic oracles: tautology checking, DPLL, and minimal-proof search.

These are deliberately independent of the encoders and generators in the
rest of the package — they only consume :mod:`proofbench.core` values — so
they can serve as ground truth when testing everything else.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from heapq import heappop, heappush

from .core import Circuit, Cnf, truth_table_chunks
from .resolution import ResolutionProof, check_refutation


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the exhaustive procedures below.

    ``max_assignments`` bounds the truth-table size ``2**n_vars``.  The work
    is only ``2**s`` for the ``s`` inputs the output reads, but the cap
    counts every input, so the answer does not depend on ``s``.
    ``max_nodes`` bounds the search tree nodes of one call (summed over all
    its searches), and ``max_seconds`` is a wall-clock cutoff, checked at
    each search node and between the chunks of a truth table.  A cutoff of
    ``None`` is :func:`env_max_seconds`: every search has a clock cap.
    Hitting any cap yields an explicit ``'exhausted'`` outcome, never a
    silent wrong answer.
    """

    max_assignments: int = 1 << 24
    max_nodes: int = 10_000_000
    max_seconds: float | None = None

    def deadline(self) -> float:
        limit = env_max_seconds() if self.max_seconds is None else self.max_seconds
        return time.monotonic() + limit


def env_max_seconds() -> float:
    """The clock cap that ``PROOFBENCH_MAX_SECONDS`` sets, 60 when it is
    unset or empty; ``ValueError`` naming the variable unless it is a finite
    number above 0."""
    text = os.environ.get("PROOFBENCH_MAX_SECONDS") or "60"
    try:
        if 0 < float(text) < math.inf:
            return float(text)
    except ValueError:
        pass
    raise ValueError(f"PROOFBENCH_MAX_SECONDS must be a finite number above 0, not {text!r}")


DEFAULT_BUDGET = SearchBudget()


# ---------------------------------------------------------------------------
# Tautology checking


def is_tautology(c: Circuit, budget: SearchBudget = DEFAULT_BUDGET):
    """('yes',) | ('no', counterexample) | ('exhausted',).

    Exhaustive over the assignments of the inputs the output reads, its
    support, evaluated bit-parallel on Python integers one chunk of the
    truth table at a time (see :func:`~proofbench.core.truth_table_chunks`).
    The first chunk with a zero ends the search, and its lowest zero, with
    every unread input set to 0, is the counterexample.  That is the lowest
    falsifying assignment of the whole table: the output ignores unread
    inputs, so clearing them in a falsifying assignment keeps it falsifying
    and makes it no larger, and among assignments that are 0 off the
    support, index order is the order of the support bits.  The cap still
    counts all ``2**n_vars`` assignments (see :class:`SearchBudget`).
    """
    n = c.n_vars
    if n >= max(budget.max_assignments, 0).bit_length():  # 2**n > max_assignments
        return ("exhausted",)
    deadline = budget.deadline()
    support, width, chunks = truth_table_chunks(c)
    mask = (1 << width) - 1
    last = (1 << len(support)) // width - 1
    for j, chunk in enumerate(chunks):
        missing = chunk ^ mask
        if missing:
            idx = j * width + (missing & -missing).bit_length() - 1
            a = [0] * n
            for p, v in enumerate(support):
                a[v - 1] = idx >> p & 1
            return ("no", tuple(a))
        if j < last and time.monotonic() > deadline:
            return ("exhausted",)
    return ("yes",)


# ---------------------------------------------------------------------------
# DPLL


def _unit_propagate(masks, occurs, reasons, sat, false, prop, decision):
    """Make ``decision`` true (none at the root) and propagate units;
    returns the falsified clause index or None, and the new state.

    Replays the scan that passes over the clauses in index order until a
    pass changes nothing, assigning the open literal of each clause that
    is unit when visited.  A heap holds the keys ``pass * len(masks) +
    index`` of the visits that may act: the root's first pass visits every
    clause, and an assignment made at clause ``c`` pushes each clause ``d``
    that holds the literal it falsifies and is now unit or false, for this
    pass if ``d > c`` and the next one otherwise.  Popped clauses are
    evaluated afresh, so the units, reasons and first conflict are the scan's.

    The state is three bit sets: ``sat`` of the satisfied clauses, ``false``
    of the false literals (bit ``v`` for ``v``, ``n + v`` for ``-v``) and
    ``prop`` of the propagated variables, each forced by ``reasons[var]``.
    ``masks[ci]`` and ``occurs[lit]`` are the literals of clause ``ci`` and
    the clauses holding ``lit``, as bit sets.
    """
    k = len(masks)
    n = len(occurs) // 2
    heap = [] if decision else list(range(k))
    lit, key, ci = decision, -1, -1
    while True:
        if lit:
            sat |= occurs[lit]
            false |= 1 << (n + lit if lit > 0 else -lit)
            live = ~false
            if ci >= 0:
                prop |= 1 << abs(lit)
                reasons[abs(lit)] = ci
            base = key - ci
            hit = occurs[-lit] & ~sat
            while hit:
                low = hit & -hit
                hit ^= low
                d = low.bit_length() - 1
                rest = masks[d] & live
                if not rest & (rest - 1):  # unit or false
                    heappush(heap, base + d if d > ci else base + k + d)
        if not heap:
            return None, sat, false, prop
        key = heappop(heap)
        ci = key % k
        rest = masks[ci] & ~false
        lit = None
        if sat >> ci & 1 or rest & (rest - 1):
            continue
        if not rest:
            return ci, sat, false, prop
        b = rest.bit_length() - 1
        lit = b if b <= n else n - b


def _dpll(f: Cnf, budget: SearchBudget, lines: list | None):
    """The search behind :func:`dpll_sat` and :func:`dpll_refute`.

    Unit propagation, then a branch on the first unassigned variable,
    false first.  A closed node yields a clause over its negated decisions:
    the decision literals in the reason cone of the falsified clause, or
    the resolvent of its children's clauses on its decision variable.  A
    child whose clause lacks its decision literal closes the parent at
    once: that clause is false in the other branch too, which so holds no
    model, and the first model found is plain DPLL's.  With ``lines`` a
    list, each clause is derived there as a proof line and stands for its
    index.  Returns ``('sat', model)`` or ``('unsat', root clause)``.
    """
    deadline = budget.deadline()
    nodes = 0
    n = f.n
    clauses = list(f.clauses)
    masks = [sum(1 << (lit if lit > 0 else n - lit) for lit in cl) for cl in clauses]
    occurs = [0] * (2 * n + 1)  # indexed by literal: -v lands at 2n+1-v
    for ci, cl in enumerate(clauses):
        for lit in cl:
            occurs[lit] |= 1 << ci
    variables = (1 << (n + 1)) - 2
    reasons = [0] * (n + 1)
    line_of: dict[frozenset[int], int] = {}
    model = None

    def emit(clause: frozenset[int], just: tuple) -> int:
        # Duplicate clauses reuse their first derivation.
        if clause not in line_of:
            line_of[clause] = len(lines)
            lines.append((clause, just))
        return line_of[clause]

    def axiom(ci: int) -> int:
        return emit(clauses[ci], ("A", ci))

    def resolve(j1: int, j2: int, pivot: int) -> int:
        c1, c2 = lines[j1][0], lines[j2][0]
        if pivot not in c1 or -pivot not in c2:
            raise RuntimeError(f"lines {j1} and {j2} do not clash on {pivot}")
        return emit((c1 - {pivot}) | (c2 - {-pivot}), ("R", j1, j2, pivot))

    def explain(start: int, keep: int | None, prop: int) -> int:
        """From proof line ``start``, resolve away every literal whose
        variable was propagated (skipping ``keep``), leaving a clause over
        decision literals only."""
        line = start
        while True:
            cl = lines[line][0]
            falsified = next((x for x in cl if abs(x) != keep and prop >> abs(x) & 1), None)
            if falsified is None:
                return line
            v = abs(falsified)
            # The reason clause forced v's current value, so it contains the
            # true literal on v -- the complement of ours.
            reason_line = explain(axiom(reasons[v]), v, prop)
            if falsified > 0:
                line = resolve(line, reason_line, v)
            else:
                line = resolve(reason_line, line, v)

    def closed(ci: int, prop: int):
        """The clause of a branch that falsifies clause ``ci``."""
        if lines is not None:
            return explain(axiom(ci), None, prop)
        out, seen, todo = set(), 0, [ci]
        while todo:
            for lit in clauses[todo.pop()]:
                v = abs(lit)
                if not prop >> v & 1:
                    out.add(lit)
                elif not seen >> v & 1:
                    seen |= 1 << v
                    todo.append(reasons[v])
        return frozenset(out)

    def solve(decision: int | None, sat: int, false: int, prop: int):
        """The clause that closes this node, or None once a model is found."""
        nonlocal nodes, model
        nodes += 1
        if nodes > budget.max_nodes or time.monotonic() > deadline:
            raise TimeoutError("DPLL search budget exhausted")
        state = _unit_propagate(masks, occurs, reasons, sat, false, prop, decision)
        conflict, sat, false, prop = state
        if conflict is not None:
            return closed(conflict, prop)
        free = variables & ~(false | false >> n)
        if not free:
            model = tuple(false >> (n + v) & 1 for v in range(1, n + 1))
            return None
        var = (free & -free).bit_length() - 1
        subs = []
        for lit in (-var, var):  # false first
            sub = solve(lit, sat, false, prop)
            if sub is None:
                return None
            if -lit not in (sub if lines is None else lines[sub][0]):
                return sub
            subs.append(sub)
        if lines is not None:
            return resolve(subs[0], subs[1], var)
        return (subs[0] - {var}) | (subs[1] - {-var})

    empty = next((ci for ci, cl in enumerate(clauses) if not cl), None)
    root = solve(None, 0, 0, 0) if empty is None else closed(empty, 0)
    return ("sat", model) if root is None else ("unsat", root)


def dpll_sat(f: Cnf, budget: SearchBudget = DEFAULT_BUDGET):
    """('sat', model) | ('unsat',) | ('exhausted',).

    DPLL with backjumping (see :func:`_dpll`), without proof recording.
    The decision order is pinned, so every run explores the same tree,
    :func:`dpll_refute`'s, and finds the model plain DPLL finds.
    """
    try:
        out = _dpll(f, budget, None)
    except TimeoutError:
        return ("exhausted",)
    return out if out[0] == "sat" else ("unsat",)


def dpll_refute(f: Cnf, budget: SearchBudget = DEFAULT_BUDGET) -> ResolutionProof:
    """Extract a resolution refutation from the search tree of
    :func:`dpll_sat`: each closed branch resolves its falsified clause
    backward through the propagation reasons, and sibling branches resolve
    on their decision variable.  The result checks in strict mode.
    Raises ``ValueError`` on satisfiable input, ``TimeoutError`` when the
    budget runs out, and ``RuntimeError`` when the refutation fails its
    own check.
    """
    lines: list[tuple[frozenset[int], tuple]] = []
    out = _dpll(f, budget, lines)
    if out[0] == "sat":
        raise ValueError("input is satisfiable; no refutation exists")
    final = lines[out[1]][0]
    if final:
        raise RuntimeError(f"root clause not empty: {sorted(final)}")
    proof = ResolutionProof(f, tuple(lines))
    report = check_refutation(f, proof, mode="strict")
    if not report.ok:
        raise RuntimeError(f"internal refutation invalid at step {report.step}: {report.reason}")
    return proof


# ---------------------------------------------------------------------------
# Minimal refutation length


def min_refutation_length(
    f: Cnf,
    max_lines: int,
    budget: SearchBudget = DEFAULT_BUDGET,
):
    """Exact minimal refutation length by a descending search.

    Returns one of::

        ('found', length, proof)      shortest refutation, strictly valid
        ('none-up-to', max_lines)     certified: nothing of that length exists
        ('satisfiable', model)        no refutation of any length exists
        ('exhausted',)                search budget hit before an answer

    The minimum is the same for weakening refutations: any weakening
    refutation can be shrunk line-by-line (replace each clause by the subset
    actually forced by its justification, then deduplicate), giving a
    refutation of equal or smaller length in which every line is an exact
    axiom or exact resolvent.  The search therefore runs over that tight
    space only, and its witness checks in strict mode, so in weakening mode
    too.

    Descending search.  A search at ``limit`` finds a refutation exactly
    when one of at most ``limit`` lines exists, so the first runs at
    ``max_lines``, each find of ``l`` lines is followed by a search at
    ``l - 1``, and the last length found is the minimum ``L``.  Why: at
    ``limit = L`` the prunes below keep one minimal refutation, and a search
    at a larger limit visits every node of the search at ``L`` in the same
    relative order.  The prunes that read the limit (the slack and width
    caps, and dropping candidate buckets too wide for the lines left) only
    get looser as it grows; the buckets narrower than the lines left
    at ``L`` hold the same clauses, first justifications and order at both
    limits; and wider buckets are tried after them.  The last find, of
    ``L`` lines at some limit ``K >= L``, is also the witness the search at
    ``L`` returns, whatever ``max_lines`` is: being minimal, it passes the
    prunes that read the limit at ``L`` too, so it is a leaf of that
    search, and an earlier leaf there would have been found first at ``K``.

    Search-space prunes.  Below, a *minimal* refutation is a tight one of
    the least length ``L``; its clauses are pairwise distinct, and every
    non-final line is a premise of a later one whatever justification each
    line is given (else dropping it leaves a shorter refutation).  The
    prunes need to keep one minimal refutation at ``limit = L``:

    * candidate equal to or a superset of an earlier line: dropping the
      later line, pointing its uses at the earlier one and shrinking as
      above gives a shorter refutation, so this holds for every minimal
      refutation in every valid order of its lines;
    * tautological candidates: each line that uses one is tautological
      too or contains its other premise, an earlier line, so no minimal
      refutation has one;
    * derived proper supersets of an input clause: replacing such a line
      by the axiom and shrinking keeps the length and strictly lowers the
      total width, so some minimal refutation has none; whether a
      refutation has one does not depend on the order of its lines;
    * width cap: a resolvent is at least as wide as either premise minus
      one, so a clause needs as many following lines as it has literals to
      reach the empty clause (true of every line of a minimal refutation,
      each of which is used);
    * slack cap: at ``limit = L`` every non-final line must feed a later
      one, so a prefix with ``u`` unused lines and ``r`` lines left must
      end with one unused line, the final one.  Its slack ``s = r + 1 - u``
      must so reach 0, and no further line adds to it: a download, or a
      resolvent of two used lines, costs 2, a resolvent with one used
      premise 1, and a resolvent of two unused lines 0.  So ``s < 0`` is
      hopeless.  A literal of an
      unused line must also be resolved away on the way to the empty
      clause, against a line that holds its complement; following that
      line's premises back ends at a current line or a later download.
      With ``s = 1`` no download fits, so every literal of the unused
      lines needs its complement in some current line.  With ``s = 0``
      every further line resolves two lines unused at its turn, and a line
      still unused then is unused now, so the complement must lie in the
      unused lines.  A larger limit raises ``s``, and the test at ``s = 1``
      is weaker than at ``s = 0``, so this prune too only gets looser as
      the limit grows;
    * one justification per clause: a clause with several justifications
      is tried once, with the first one found.  That choice decides which
      lines count as used, but the slack cap holds for a minimal
      refutation under any choice; the other prunes look at clauses only;
    * order on adjacent independent lines: a line derivable without the
      line just before it must come after that line in a fixed total order
      on clauses (the search compares their bitmask integers).  Such a pair
      can swap places with every justification still valid, which keeps
      the length; the swapped refutation is still minimal and, by the
      third bullet, still has no derived proper superset of an input
      clause.  So the lexicographically least clause sequence among the
      minimal refutations without such lines obeys the order, and, being
      minimal, passes every other prune (the first bullet's in any line
      order).  Comparable pairs need no exception: a later superset is
      pruned anyway, and a later subset derivable without the previous line
      would, once swapped, be followed by a superset of itself, which the
      first bullet rules out.  "Derivable without the previous
      line" is a property of the clause, not of its kept justification:
      a clause becomes a candidate as soon as it is derivable and the
      first justification is kept, so that one avoids the previous line
      exactly when some justification does.

    The candidates for the next line are carried down each branch and
    extended by the resolvents with the newest line.  This loses nothing,
    because every prune but the order only gets stricter as lines are
    added.  A table of failed states would have to key on the previous
    line too; with the order prune in place it saves under one per cent of
    the nodes, so the search keeps none.
    """
    sat = dpll_sat(f, budget)
    if sat[0] == "sat":
        return ("satisfiable", sat[1])
    if sat[0] == "exhausted":
        return ("exhausted",)

    if frozenset() in f.clauses:
        # Empty clause is an input: one-line refutation (if budget allows).
        if max_lines >= 1:
            proof = ResolutionProof(
                f, ((frozenset(), ("A", f.clauses.index(frozenset()))),)
            )
            return ("found", 1, proof)
        return ("none-up-to", max_lines)

    # A clause is one integer: bit v-1 holds x_v and bit n+v-1 holds -x_v,
    # so subset, union and literal removal are single integer operations.
    n = f.n
    low = (1 << n) - 1

    def flip(c: int) -> int:
        """The clause of the complemented literals."""
        return (c >> n) | ((c & low) << n)

    axiom_index: dict[int, int] = {}
    for idx, cl in enumerate(f.clauses):
        bits = 0
        for lit in cl:
            bits |= 1 << (lit - 1 if lit > 0 else n - lit - 1)
        axiom_index.setdefault(bits, idx)
    axioms = [c for c in axiom_index if not c & flip(c)]  # tautologies never help
    # narrower[w]: the axioms a clause of width w can properly contain.
    narrower = [[a for a in axioms if a.bit_count() < w] for w in range(n + 1)]

    deadline = budget.deadline()
    nodes = 0

    def search(lines, justs, pool, used, remaining, every, idle):
        """Extend the prefix ``lines`` by ``remaining`` more lines.

        ``pool[w]`` maps each admissible next clause of width ``w`` to its
        first justification; ``used`` has bit ``t`` set once line ``t`` is
        some line's premise; ``every`` and ``idle`` are the unions of all
        lines and of the unused ones.  Returns (lines, justs) of a
        refutation, or None; raises ``TimeoutError`` when the budget is spent.
        """
        nonlocal nodes
        nodes += 1
        if nodes > budget.max_nodes or time.monotonic() > deadline:
            raise TimeoutError("minimal refutation search budget exhausted")
        t = len(lines)
        prev = lines[-1] if lines else -1
        child_remaining = remaining - 1
        for w in range(1, remaining):
            for c, just in pool[w].items():
                if just[0] == "A":
                    if c < prev:
                        continue
                    child_used = used
                else:
                    j1, j2 = just[1], just[2]
                    if c < prev and j1 != t - 1 and j2 != t - 1:
                        continue
                    child_used = used | (1 << j1) | (1 << j2)
                # The slack cap: lines left + 1 - unused lines, as above.
                slack = child_remaining - t + child_used.bit_count()
                if slack < 0:
                    continue
                if child_used == used:
                    child_idle = idle | c
                else:
                    child_idle = c
                    for i in range(t):
                        if not child_used >> i & 1:
                            child_idle |= lines[i]
                if slack < 2 and flip(child_idle) & ~(every | c if slack else child_idle):
                    continue
                fc = flip(c)
                child_lines = lines + [c]
                # Candidates after c: the admissible ones that are not
                # supersets of c, then the new resolvents of c with earlier
                # lines.  Narrower clauses cannot contain c.
                child_pool = [
                    bucket.copy() if v < w else {d: j for d, j in bucket.items() if d & c != c}
                    for v, bucket in enumerate(pool[:child_remaining])
                ]
                for i in range(t):
                    clash = lines[i] & fc
                    if not clash or clash & (clash - 1):
                        continue  # no pivot, or a tautological resolvent
                    d = (lines[i] | c) & ~(clash | flip(clash))
                    if clash <= low:
                        j = ("R", i, t, clash.bit_length())
                    else:
                        j = ("R", t, i, clash.bit_length() - n)
                    if d == 0:
                        return child_lines + [0], justs + [just, j]
                    dw = d.bit_count()
                    if dw >= child_remaining or d in child_pool[dw]:
                        continue
                    if any(d & e == e for e in child_lines):
                        continue
                    if any(a & d == a for a in narrower[dw]):
                        continue
                    child_pool[dw][d] = j
                res = search(
                    child_lines, justs + [just], child_pool, child_used, child_remaining, every | c, child_idle
                )
                if res is not None:
                    return res
        return None

    def unpack(c: int) -> frozenset[int]:
        return frozenset(
            v + 1 if v < n else n - v - 1 for v in range(2 * n) if c >> v & 1
        )

    found, limit = None, max_lines
    while limit >= 1:
        pool = [{} for _ in range(limit)]
        for c in axioms:
            if c.bit_count() < limit:
                pool[c.bit_count()][c] = ("A", axiom_index[c])
        try:
            res = search([], [], pool, 0, limit, 0, 0)
        except TimeoutError:
            return ("exhausted",)
        if res is None:
            break
        found, limit = res, len(res[0]) - 1
    if found is None:
        return ("none-up-to", max_lines)
    derived, justs = found
    proof = ResolutionProof(f, tuple(zip(map(unpack, derived), justs)))
    rep = check_refutation(f, proof, mode="strict")
    if not rep.ok:
        raise RuntimeError(f"minimal witness fails strict check: {rep.reason}")
    return ("found", len(derived), proof)
