"""Reference checks, written apart from the program under test.

Nothing here imports ``proofbench``: the benchmark compares the program's
outputs with these computations, so a fault shared by the program and its
own checker (``resolution.check_refutation``, ``core.eval_cnf``,
``oracle.is_tautology``) still shows.

* :func:`verify_refutation` -- a resolution-step verifier with ``strict``
  and ``weakening`` modes.  It takes plain data (clauses as iterables of
  DIMACS literals, justifications ``('A', l)`` / ``('R', j1, j2, v)``) and
  returns a reason string instead of raising, whatever the input.
* :func:`eval_gates` -- a bit-parallel evaluator for gate lists and for
  hash-consed arena node lists (gates refer to earlier gates only).
* :func:`models` -- brute-force satisfiability for at most six variables.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Sequence

MAX_BRUTE_FORCE_VARS = 6


# ---------------------------------------------------------------------------
# Clauses and assignments


def clause_true(clause: Iterable[int], bits: Sequence[int]) -> bool:
    """Some literal of ``clause`` is true under ``bits`` (bit ``v-1`` is x_v)."""
    for lit in clause:
        if lit > 0:
            if bits[lit - 1] == 1:
                return True
        elif bits[-lit - 1] == 0:
            return True
    return False


def first_false_clause(clauses: Sequence[Iterable[int]], bits: Sequence[int]) -> int | None:
    """Index of the first clause that ``bits`` falsifies, or ``None``."""
    for idx, clause in enumerate(clauses):
        if not clause_true(clause, bits):
            return idx
    return None


def models(n: int, clauses: Sequence[Iterable[int]]) -> list[tuple[int, ...]]:
    """Every satisfying assignment, in lexicographic order of the bit tuple."""
    if n > MAX_BRUTE_FORCE_VARS:
        raise ValueError(f"brute force is limited to {MAX_BRUTE_FORCE_VARS} variables")
    return [
        bits
        for bits in itertools.product((0, 1), repeat=n)
        if first_false_clause(clauses, bits) is None
    ]


def balanced_model(n: int, clauses: Sequence[Iterable[int]]) -> tuple[int, ...] | None:
    """The satisfying assignment with the number of ones closest to ``n/2``,
    the lexicographically first among those; ``None`` when unsatisfiable."""
    found = models(n, clauses)
    if not found:
        return None
    return min(found, key=lambda bits: abs(2 * sum(bits) - n))


# ---------------------------------------------------------------------------
# Resolution


def verify_refutation(
    clauses: Sequence[Iterable[int]], n: int, lines: Sequence, mode: str
) -> str | None:
    """``None`` when ``lines`` refutes the CNF ``clauses`` over ``n``
    variables, else the first reason it does not.

    A line is ``(clause, justification)``.  ``('A', l)`` downloads input
    clause ``l``; ``('R', j1, j2, v)`` resolves earlier line ``j1``, which
    holds ``x_v``, with earlier line ``j2``, which holds ``-x_v``.  In
    ``strict`` mode a line's clause must equal the download or resolvent,
    in ``weakening`` mode contain it.  The last line must be empty.
    """
    if mode not in ("strict", "weakening"):
        raise ValueError(f"unknown mode {mode!r}")
    if not lines:
        return "no lines"
    seen: list[set[int]] = []
    for t, line in enumerate(lines):
        if not isinstance(line, tuple) or len(line) != 2:
            return f"line {t}: not a (clause, justification) pair"
        raw, just = line
        try:
            clause = set(raw)
        except TypeError:
            return f"line {t}: clause is not a collection"
        if any(type(lit) is not int or lit == 0 or abs(lit) > n for lit in clause):
            return f"line {t}: literal out of range"
        if not isinstance(just, tuple) or not just:
            return f"line {t}: missing justification"
        if just[0] == "A" and len(just) == 2:
            l = just[1]
            if type(l) is not int or not 0 <= l < len(clauses):
                return f"line {t}: no input clause {l!r}"
            base = set(clauses[l])
        elif just[0] == "R" and len(just) == 4:
            j1, j2, v = just[1:]
            if any(type(x) is not int for x in (j1, j2, v)):
                return f"line {t}: non-integer resolution argument"
            if not (0 <= j1 < t and 0 <= j2 < t):
                return f"line {t}: premise is not an earlier line"
            if not 1 <= v <= n:
                return f"line {t}: pivot {v} out of range"
            pos, neg = seen[j1], seen[j2]
            if v not in pos or -v not in neg:
                return f"line {t}: premises do not clash on {v}"
            base = {lit for lit in pos if lit != v} | {lit for lit in neg if lit != -v}
        else:
            return f"line {t}: malformed justification {just!r}"
        if mode == "strict" and clause != base:
            return f"line {t}: clause differs from its derivation"
        if not base <= clause:
            return f"line {t}: clause misses a literal of its derivation"
        seen.append(clause)
    if seen[-1]:
        return "last line is not the empty clause"
    return None


# ---------------------------------------------------------------------------
# Circuits


def eval_gates(gates: Sequence[tuple], inputs: Sequence[int], width: int) -> list[int]:
    """Value of every gate on ``width`` assignments at once.

    ``inputs[i-1]`` packs the values of input ``i`` over the assignments,
    one per bit.  Gates are ``('var', i)``, ``('const', b)``, ``('not',
    g)`` and ``('and'|'or'|'imp', g, h)``, where ``g`` and ``h`` index
    earlier gates; this covers both finished gate lists and arena node
    lists, whose nodes only point at nodes made before them.
    """
    full = (1 << width) - 1
    vals: list[int] = []
    for idx, g in enumerate(gates):
        kind = g[0]
        refs = g[1:] if kind in ("not", "and", "or", "imp") else ()
        if any(not 0 <= r < idx for r in refs):
            raise ValueError(f"gate {idx} refers to a later gate")
        if kind == "var":
            v = inputs[g[1] - 1] & full
        elif kind == "const":
            v = full if g[1] else 0
        elif kind == "not":
            v = full ^ vals[g[1]]
        elif kind == "and":
            v = vals[g[1]] & vals[g[2]]
        elif kind == "or":
            v = vals[g[1]] | vals[g[2]]
        elif kind == "imp":
            v = (full ^ vals[g[1]]) | vals[g[2]]
        else:
            raise ValueError(f"gate {idx}: unknown kind {kind!r}")
        vals.append(v)
    return vals


def exhaustive_inputs(n_vars: int) -> list[int]:
    """Input columns over all ``2**n_vars`` assignments: assignment ``a``
    sits at bit ``a`` and gives input ``i`` the value of bit ``i-1`` of
    ``a``."""
    total = 1 << n_vars
    cols = []
    for i in range(1, n_vars + 1):
        half = 1 << (i - 1)
        period = ((1 << half) - 1) << half  # half zeros, then half ones
        repeat = ((1 << total) - 1) // ((1 << (2 * half)) - 1)
        cols.append(period * repeat)
    return cols


def random_inputs(rng: random.Random, n_vars: int, width: int) -> list[int]:
    """Input columns for ``width`` independent uniform assignments."""
    return [rng.getrandbits(width) for _ in range(n_vars)]


def valid_everywhere(gates: Sequence[tuple], n_vars: int) -> bool:
    """The last gate is true under every assignment to the inputs."""
    width = 1 << n_vars
    return eval_gates(gates, exhaustive_inputs(n_vars), width)[-1] == (1 << width) - 1


def first_false_line(
    nodes: Sequence[tuple], line_nodes: Sequence[int], inputs: Sequence[int], width: int
) -> int | None:
    """Index of the first proof line whose arena node is false under one of
    the ``width`` packed assignments, or ``None``.  Every line of a sound
    Frege proof is a tautology, so a sound proof has none."""
    vals = eval_gates(nodes, inputs, width)
    full = (1 << width) - 1
    for t, node in enumerate(line_nodes):
        if vals[node] != full:
            return t
    return None
