"""Core value types: CNFs, clause codes, templates, circuits, and file formats.

Conventions used throughout the package:

* Variables are positive integers ``1..n``; a literal is a DIMACS-signed
  integer (``-3`` is the negation of variable ``3``).  A clause is a
  ``frozenset`` of literals and a CNF is an ordered tuple of clauses.
* A total assignment is a sequence of ``n`` bits indexed by ``var - 1``.
  Partial assignments are ``{var: bit}`` mappings.
* Clause codes use a 2 x n x k bit matrix: bit ``(e, i, l)`` says that
  clause ``l`` contains variable ``i`` with polarity ``e`` (``e = 1`` for
  the positive literal).  The matrix is stored flattened in the fixed order
  ``e * n * k + (i - 1) * k + (l - 1)``.
* Circuits are gate lists over ``var/const/not/and/or/imp`` with gates
  referencing earlier gates only; implication is first-class so that
  Hilbert-style schemas can be stated without rewriting.
* Each text format has one spelling: its reader accepts exactly the texts
  its emitter writes, so ``emit(read(t)) == t`` for every accepted ``t``,
  through one line, number and clause rule (:func:`read_lines`,
  :func:`read_number`, :func:`read_clause`).
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence


# ---------------------------------------------------------------------------
# Shared helpers


def nogc(fn: Callable) -> Callable:
    """Run ``fn`` with the cyclic garbage collector paused.

    Safe wherever what ``fn`` builds forms no reference cycles, so that
    plain reference counting frees everything it drops:

    * the proof generators and checkers, whose arenas, forms and proof
      lines are tuples of ints, dicts and lists;
    * the text layer (:func:`parse_dimacs`, :func:`emit_dimacs`, the
      resolution proof reader and printer) and the ``prf`` encoder, which
      build frozensets and tuples of ints, lists and strings.

    It pays because each of them allocates hundreds of thousands of such
    objects, and with the collector running those allocations trigger
    collections that walk every tracked object still alive.  Each call
    restores the state it found, so nesting is safe.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


def sorted_literals(cl: Iterable[int]) -> list[int]:
    """The literals of ``cl`` by variable, the negative literal first on a
    tie: the order of every clause the text formats and circuits spell out.
    The inner sort puts ``-x`` before ``x`` and the stable outer sort keeps
    it there, with no Python-level key call."""
    return sorted(sorted(cl), key=abs)


def literal_table(clauses: Iterable[Iterable[int]]) -> tuple[dict[int, str], dict[int, int]]:
    """The text and the :func:`sorted_literals` rank of each distinct literal
    of ``clauses``: the one table through which an emitter sorts a clause,
    ``sorted(cl, key=rank.__getitem__)``, and spells it,
    ``map(text.__getitem__, ...)``, with no sort or ``str`` call per
    occurrence.  The literals are gathered by one union, so the cost follows
    the distinct literals of the text, not the variable count, and any int
    has an entry."""
    lits = sorted_literals(frozenset().union(*clauses))
    return dict(zip(lits, map(str, lits))), dict(zip(lits, range(len(lits))))


@dataclass(frozen=True)
class CheckReport:
    """Verdict of a proof check, from either checker:
    :func:`~proofbench.resolution.check_refutation` or
    :func:`~proofbench.cfcheck.cf_check`.

    ``step`` and ``reason`` locate the first failure; ``lines`` and
    ``bit_size`` describe the proof itself so callers can log sizes without
    re-serializing.  ``check_refutation`` reads ``bit_size`` off the proof's
    one memoized text, so a later ``emit_proof`` of the same proof prints
    nothing; a proof read by ``parse_proof`` is never printed, since its
    text is the text it was read from.  ``cf_check`` always reports
    ``bit_size`` 0.  A failing report has ``bit_size`` 0: a proof that does
    not check may have no text form at all.

    A generator hands its finished proof and this report to
    :func:`checked`, the one place where a rejection becomes an error.
    """

    ok: bool
    step: int | None
    reason: str | None
    lines: int
    bit_size: int


def checked(proof, report: CheckReport, what: str):
    """``proof`` itself when ``report``, its checker's verdict on it, passes.
    A generator whose own proof fails its check is at fault, not its input,
    so a rejection raises ``RuntimeError`` naming ``what`` and the step."""
    if not report.ok:
        raise RuntimeError(f"{what} invalid at step {report.step}: {report.reason}")
    return proof


# ---------------------------------------------------------------------------
# CNFs


@dataclass(frozen=True)
class Cnf:
    """A CNF with a declared variable count and an ordered clause tuple."""

    n: int
    clauses: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"negative variable count {self.n}")
        # Each distinct literal is checked once; only a failing check walks
        # the clauses in order, to name the first bad literal.
        lits = frozenset().union(*self.clauses)
        if lits and (0 in lits or min(lits) < -self.n or max(lits) > self.n):
            for cl in self.clauses:
                for lit in cl:
                    if lit == 0 or abs(lit) > self.n:
                        raise ValueError(f"literal {lit} out of range for n={self.n}")

    @property
    def k(self) -> int:
        return len(self.clauses)


def cnf(n: int, clause_lists: Iterable[Iterable[int]]) -> Cnf:
    """Convenience constructor from literal lists."""
    return Cnf(n, tuple(frozenset(c) for c in clause_lists))


def is_normalized(f: Cnf) -> bool:
    """True when no clause contains a variable in both polarities."""
    return all(not any(-lit in cl for lit in cl) for cl in f.clauses)


def eval_cnf(f: Cnf, a: Sequence[int]) -> bool:
    """True iff every clause contains a satisfied literal."""
    if len(a) != f.n:
        raise ValueError(f"assignment length {len(a)} != n={f.n}")
    return all(any(bool(a[abs(lit) - 1]) == (lit > 0) for lit in cl) for cl in f.clauses)


def restrict_clause(cl: frozenset[int], rho: Mapping[int, int]) -> frozenset[int] | None:
    """Apply a partial assignment; ``None`` means the clause was satisfied."""
    out = []
    for lit in cl:
        v = abs(lit)
        if v in rho:
            if bool(rho[v]) == (lit > 0):
                return None
            # falsified literal: drop it
        else:
            out.append(lit)
    return frozenset(out)


def shift_cnf(f: Cnf, offset: int, n: int) -> Cnf:
    """Re-embed ``f`` with every variable moved up by ``offset`` inside a
    space of ``n`` variables (used to build variable-disjoint pairs)."""
    if offset < 0 or f.n + offset > n:
        raise ValueError("shift does not fit the target variable space")
    move = lambda lit: lit + offset if lit > 0 else lit - offset
    return Cnf(n, tuple(frozenset(move(l) for l in cl) for cl in f.clauses))


# ---------------------------------------------------------------------------
# Clause codes and templates


def code_pos(e: int, i: int, l: int, n: int, k: int) -> int:
    """Position of bit (e, i, l) in the flattened 2 x n x k code."""
    if not (e in (0, 1) and 1 <= i <= n and 1 <= l <= k):
        raise ValueError(f"code bit {(e, i, l)} out of range for n={n}, k={k}")
    return e * n * k + (i - 1) * k + (l - 1)


@dataclass(frozen=True)
class CnfCode:
    """The flattened bit string representing a CNF (see module docstring)."""

    n: int
    k: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) != 2 * self.n * self.k:
            raise ValueError("code has wrong dimensions")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("code bits must be 0/1")

    def get(self, e: int, i: int, l: int) -> int:
        return self.bits[code_pos(e, i, l, self.n, self.k)]


def encode_cnf(f: Cnf, strict: bool = True) -> CnfCode:
    """Build the 2 x n x k code of ``f``.

    In strict mode a clause holding both polarities of a variable is
    rejected; family generators only emit such clauses deliberately (they
    are tautological) and must opt out.
    """
    if strict and not is_normalized(f):
        raise ValueError("non-normalized CNF (tautological clause)")
    bits = [0] * (2 * f.n * f.k)
    for l, cl in enumerate(f.clauses, start=1):
        for lit in cl:
            e = 1 if lit > 0 else 0
            bits[code_pos(e, abs(lit), l, f.n, f.k)] = 1
    return CnfCode(f.n, f.k, tuple(bits))


def decode_cnf(code: CnfCode, strict: bool = True) -> Cnf:
    """Inverse of :func:`encode_cnf`; exact round-trip in both directions."""
    clauses = []
    for l in range(1, code.k + 1):
        cl = []
        for i in range(1, code.n + 1):
            if code.get(1, i, l):
                cl.append(i)
            if code.get(0, i, l):
                cl.append(-i)
        clauses.append(frozenset(cl))
    f = Cnf(code.n, tuple(clauses))
    if strict and not is_normalized(f):
        raise ValueError("non-normalized code (clause with both polarities)")
    return f


# Template entries: ('const', b) | ('ref', j) | ('negref', j).  A negated
# reference is needed because some constraint slots of the proof encodings
# must appear exactly when a code bit is *zero*; with positive references
# alone a template could never remove a literal when a parameter flips on.
TemplateEntry = tuple[str, int]


@dataclass(frozen=True)
class TemplateCode:
    """A clause code whose bits may reference parameter variables."""

    n: int
    k: int
    params: int
    entries: tuple[TemplateEntry, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != 2 * self.n * self.k:
            raise ValueError("template has wrong dimensions")
        for kind, v in self.entries:
            if kind == "const":
                if v not in (0, 1):
                    raise ValueError("bad constant entry")
            elif kind in ("ref", "negref"):
                if not 0 <= v < self.params:
                    raise ValueError("parameter reference out of range")
            else:
                raise ValueError(f"unknown template entry kind {kind!r}")


def instantiate_template(t: TemplateCode, values: Sequence[int]) -> CnfCode:
    if len(values) != t.params:
        raise ValueError(f"expected {t.params} parameter bits, got {len(values)}")
    if any(v not in (0, 1) for v in values):
        raise ValueError("parameter bits must be 0/1")
    bits = []
    for kind, v in t.entries:
        if kind == "const":
            bits.append(v)
        elif kind == "ref":
            bits.append(values[v])
        else:
            bits.append(1 - values[v])
    return CnfCode(t.n, t.k, tuple(bits))


# ---------------------------------------------------------------------------
# Circuits

# Gate forms: ('var', i) with i >= 1, ('const', b), ('not', g),
# ('and', g, h), ('or', g, h), ('imp', g, h); g, h index earlier gates.
Gate = tuple

GATE_KINDS = ("var", "const", "not", "and", "or", "imp")


def check_cone(nodes: Sequence[Gate], n_vars: int, root: int, done: bytearray) -> None:
    """Check the gates of ``root``'s cone in ``nodes`` not marked in
    ``done``, marking each one passed; raise ``ValueError`` naming the first
    refused gate, after which ``done`` is not used again.

    This is the one gate rule.  A well-formed gate ``x`` is a tuple of a
    kind in :data:`GATE_KINDS` with exactly its fields: an ``int`` input in
    ``1..n_vars``, an ``int`` constant 0 or 1, or ``int`` children below
    ``x``, which rules out cycles.  :class:`Circuit` and :func:`parse_gates`
    pass each gate as ``root`` in ascending order, so each call checks that
    one gate; ``cf_check`` passes each line's circuit, so each gate of a
    proof is checked once.  The walk is depth first, second child first, so
    it meets a refused gate where the canonical-form walk would.
    """
    stack = [root]
    while stack:
        x = stack.pop()
        if done[x]:
            continue
        g = nodes[x]
        if type(g) is not tuple or not g:
            raise ValueError(f"gate {x}: not a gate tuple")
        kind = g[0]
        if kind == "imp" or kind == "or" or kind == "and":
            if len(g) != 3:
                raise ValueError(f"gate {x}: {kind} with {len(g) - 1} fields")
            _, a, b = g
            if not (type(a) is int and 0 <= a < x):
                raise ValueError(f"gate {x}: bad reference {a!r}")
            if not (type(b) is int and 0 <= b < x):
                raise ValueError(f"gate {x}: bad reference {b!r}")
            done[x] = 1
            if not done[a]:
                stack.append(a)
            if not done[b]:
                stack.append(b)
            continue
        if kind != "not" and kind != "var" and kind != "const":
            raise ValueError(f"gate {x}: unknown kind {kind!r}")
        if len(g) != 2:
            raise ValueError(f"gate {x}: {kind} with {len(g) - 1} fields")
        v = g[1]
        if kind == "not":
            if not (type(v) is int and 0 <= v < x):
                raise ValueError(f"gate {x}: bad reference {v!r}")
            if not done[v]:
                stack.append(v)
        elif kind == "var":
            if not (type(v) is int and 1 <= v <= n_vars):
                raise ValueError(f"gate {x}: input {v!r} out of range")
        elif not (type(v) is int and 0 <= v <= 1):
            raise ValueError(f"gate {x}: bad constant {v!r}")
        done[x] = 1


@dataclass(frozen=True)
class Circuit:
    """An immutable gate list; the last gate is the output."""

    n_vars: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if self.n_vars < 0:
            raise ValueError(f"negative input count {self.n_vars}")
        if not self.gates:
            raise ValueError("empty circuit")
        done = bytearray(len(self.gates))
        for x in range(len(self.gates)):
            check_cone(self.gates, self.n_vars, x, done)

    @property
    def output(self) -> int:
        return len(self.gates) - 1


def _eval_packed(c: Circuit, inputs: Iterable[tuple[Callable[[int], int], int]]) -> Iterator[int]:
    """The output of ``c`` on many assignments at once, one bit each, for
    each ``(column, mask)`` of ``inputs`` in turn.

    ``column(i)`` packs the value of input ``i`` under every assignment into
    one integer, ``mask`` has the bit of every assignment set, and each
    result packs the output the same way.  Only the output's cone is
    evaluated, so ``column`` is asked only for the inputs the cone reads.
    Each gate's value is freed after its last use, so peak memory follows
    the circuit's live width rather than its size.  Gates read only earlier
    gates, so one backward pass finds the cone and the last uses: the first
    reader of a gate met going backward is its last use going forward.
    """
    gates = c.gates
    live = [False] * len(gates)
    live[-1] = True
    steps = []
    for x in range(len(gates) - 1, -1, -1):
        if not live[x]:
            continue
        g = gates[x]
        dead = []
        if g[0] not in ("var", "const"):
            for ref in g[1:]:
                if not live[ref]:
                    live[ref] = True
                    dead.append(ref)
        steps.append((x, g, dead))
    steps.reverse()
    for column, mask in inputs:
        vals = [0] * len(gates)
        for x, g, dead in steps:
            kind = g[0]
            if kind == "var":
                vals[x] = column(g[1])
                continue
            if kind == "const":
                vals[x] = mask if g[1] else 0
                continue
            if kind == "not":
                vals[x] = vals[g[1]] ^ mask
            elif kind == "and":
                vals[x] = vals[g[1]] & vals[g[2]]
            elif kind == "or":
                vals[x] = vals[g[1]] | vals[g[2]]
            else:  # imp
                vals[x] = (vals[g[1]] ^ mask) | vals[g[2]]
            for ref in dead:
                vals[ref] = 0
        yield vals[-1]


def eval_circuit(c: Circuit, a: Sequence[int]) -> bool:
    """The output of ``c`` under one assignment: the one-bit case of the
    packed evaluator."""
    if len(a) < c.n_vars:
        raise ValueError(f"assignment length {len(a)} < inputs {c.n_vars}")
    return next(_eval_packed(c, [(lambda i: 1 if a[i - 1] else 0, 1)])) == 1


def _input_column(i: int, n_vars: int) -> int:
    """Truth table of variable ``i`` (1-based) over all ``2**n_vars``
    assignments, packed into one integer: assignment ``a`` sits at bit
    ``a`` and reads variable ``i`` from bit ``i-1`` of ``a``.  Built by
    width doubling, so cost is linear in the table size."""
    half = 1 << (i - 1)
    col = ((1 << half) - 1) << half  # one period: half zeros, half ones
    width = half * 2
    total = 1 << n_vars
    while width < total:
        col |= col << width
        width *= 2
    return col


# Assignments per truth-table chunk, as a power of two: a 16 KB integer per
# live gate stays in cache, where a whole 22-input table is 512 KB per gate.
TABLE_CHUNK_BITS = 17


def truth_table_chunks(c: Circuit) -> tuple[list[int], int, Iterator[int]]:
    """The *support* of ``c``, the inputs its output's :func:`cone` reads,
    ascending; the chunk width ``width = 2**min(s, TABLE_CHUNK_BITS)`` for
    ``s`` support inputs, chosen here alone; and the truth table over the
    support in order, in chunks of ``width`` assignments.  Bit ``r`` of
    chunk ``j`` is the output when ``support[p]`` takes bit ``p`` of
    ``j * width + r`` and every other input is 0.  Within a chunk the low
    support inputs take their periodic columns and the others are
    constant.  The work is ``2**s`` assignments, not ``2**n_vars``."""
    gates = c.gates
    support = sorted({gates[x][1] for x in cone(gates, [c.output]) if gates[x][0] == "var"})
    s = len(support)
    b = min(s, TABLE_CHUNK_BITS)
    mask = (1 << (1 << b)) - 1
    low = {v: _input_column(p + 1, b) for p, v in enumerate(support[:b])}

    def chunk(j: int) -> Callable[[int], int]:
        cols = dict(low)
        cols.update((v, mask * (j >> p & 1)) for p, v in enumerate(support[b:]))
        return cols.__getitem__

    return support, 1 << b, _eval_packed(c, ((chunk(j), mask) for j in range(1 << (s - b))))


def cone(nodes: Sequence[Gate], roots: Iterable[int]) -> list[int]:
    """The ids reachable from ``roots`` through gate inputs, ascending."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        g = nodes[x]
        if g[0] not in ("var", "const"):
            stack.extend(g[1:])
    return sorted(seen)


class CircuitBuilder:
    """Hash-consing builder; identical gates share one node.

    Node ids index ``self.nodes``.  ``build(root)`` trims to the gates
    reachable from ``root`` and renumbers them topologically, so two
    structurally identical constructions serialize identically.
    """

    def __init__(self, n_vars: int):
        if n_vars < 0:
            raise ValueError(f"negative input count {n_vars}")
        self.n_vars = n_vars
        self.nodes: list[Gate] = []
        self._memo: dict[Gate, int] = {}

    def _add(self, node: Gate) -> int:
        got = self._memo.get(node)
        if got is not None:
            return got
        self.nodes.append(node)
        nid = len(self.nodes) - 1
        self._memo[node] = nid
        return nid

    def var(self, i: int) -> int:
        if not 1 <= i <= self.n_vars:
            raise ValueError(f"input {i} out of range (n_vars={self.n_vars})")
        return self._add(("var", i))

    def const(self, b: int) -> int:
        return self._add(("const", 1 if b else 0))

    def not_(self, g: int) -> int:
        return self._add(("not", g))

    def and_(self, g: int, h: int) -> int:
        return self._add(("and", g, h))

    def or_(self, g: int, h: int) -> int:
        return self._add(("or", g, h))

    def imp(self, g: int, h: int) -> int:
        return self._add(("imp", g, h))

    def lit(self, lit: int) -> int:
        """Literal as a circuit: var or its negation."""
        v = self.var(abs(lit))
        return v if lit > 0 else self.not_(v)

    def _fold(self, op, items: Sequence[int], empty: int) -> int:
        """Balanced fold for deterministic, shallow n-ary gates."""
        if not items:
            return self.const(empty)
        items = list(items)
        while len(items) > 1:
            nxt = []
            for j in range(0, len(items) - 1, 2):
                nxt.append(op(items[j], items[j + 1]))
            if len(items) % 2:
                nxt.append(items[-1])
            items = nxt
        return items[0]

    def or_many(self, items: Sequence[int]) -> int:
        return self._fold(self.or_, items, 0)

    def and_many(self, items: Sequence[int]) -> int:
        return self._fold(self.and_, items, 1)

    def clause_circuit(self, cl: frozenset[int]) -> int:
        return self.or_many([self.lit(l) for l in sorted_literals(cl)])

    def cnf_circuit(self, f: Cnf) -> int:
        return self.and_many([self.clause_circuit(cl) for cl in f.clauses])

    def copy(
        self, nodes: Sequence[Gate], order: Iterable[int], var_of: Callable[[int], int] | None = None
    ) -> dict[int, int]:
        """Hash-cons ``nodes[x]`` into this builder for each ``x`` of
        ``order``, which must list children before parents; returns the map
        from old id to new id.  Input gates go through ``var_of`` when given."""
        new: dict[int, int] = {}
        for x in order:
            g = nodes[x]
            if g[0] == "var":
                new[x] = self.var(g[1]) if var_of is None else var_of(g[1])
            elif g[0] == "const":
                new[x] = self.const(g[1])
            elif g[0] == "not":
                new[x] = self._add(("not", new[g[1]]))
            else:
                new[x] = self._add((g[0], new[g[1]], new[g[2]]))
        return new

    def import_circuit(self, c: Circuit) -> int:
        """Copy a finished circuit into this builder, returning its root."""
        if c.n_vars > self.n_vars:
            raise ValueError("imported circuit has more inputs than builder")
        return self.copy(c.gates, range(len(c.gates)))[c.output]

    def build(self, root: int) -> Circuit:
        """Trim to the cone of ``root`` and renumber topologically."""
        b = CircuitBuilder(self.n_vars)
        b.copy(self.nodes, cone(self.nodes, [root]))
        return Circuit(self.n_vars, tuple(b.nodes))


# ---------------------------------------------------------------------------
# Text formats: the rules all three share, then DIMACS


def read_number(tok: str) -> int:
    """The int that ``tok`` spells, when ``tok`` is how ``str`` writes it:
    the one number rule of the three text formats.  It refuses what ``int``
    would also read: spaces, ``_``, ``+``, ``-0``, leading zeros and the
    digits of other scripts."""
    try:
        value = int(tok)
    except ValueError:
        pass
    else:
        if str(value) == tok:
            return value
    raise ValueError(f"bad number {tok!r}")


def read_lines(text: str) -> list[str]:
    """The lines of ``text``, which must end in a newline.  The split is at
    ``\\n`` alone, so a ``\\r`` or any other line break stays inside its
    line for the reader to refuse."""
    lines = text.split("\n")
    if lines.pop() or not lines:
        raise ValueError(f"line {len(lines) + 1}: missing final newline")
    return lines


def read_clause(toks: list[str], shared: dict[str, int], n: int) -> frozenset[int]:
    """The clause that the literal tokens ``toks`` spell over variables
    ``1..n``: in :func:`sorted_literals` order with none repeated, the one
    spelling the emitters write.

    ``shared`` maps each token of the text met so far to its literal, so a
    clause holds one int object per literal value, and each distinct token
    is read and range-checked once.  The table grows with the text, not
    with ``n``.
    """
    try:
        lits = [shared[tok] for tok in toks]
    except KeyError:
        for tok in toks:
            if tok not in shared:
                lit = read_number(tok)
                if lit == 0 or abs(lit) > n:
                    raise ValueError(f"literal {lit} out of range") from None
                shared[tok] = lit
        lits = [shared[tok] for tok in toks]
    clause = frozenset(lits)
    if len(clause) != len(lits) or sorted_literals(lits) != lits:
        raise ValueError("literals repeated or out of order")
    return clause


@nogc
def parse_dimacs(text: str) -> Cnf:
    """Read the text :func:`emit_dimacs` writes, and no other: the header
    ``p cnf <vars> <clauses>`` on line 1, then one line per clause.  A
    malformed text raises ``ValueError`` naming its line."""
    lines = iter(read_lines(text))  # the iterator frees the list once it is read
    lineno = 1
    try:
        head = next(lines).split(" ")
        if len(head) != 4 or head[0] != "p" or head[1] != "cnf":
            raise ValueError("malformed header")
        n, k = read_number(head[2]), read_number(head[3])
        shared: dict[str, int] = {}
        clauses = []
        for lineno, line in enumerate(lines, start=2):
            toks = line.split(" ")
            if toks.pop() != "0":
                raise ValueError("clause does not end in 0")
            clauses.append(read_clause(toks, shared, n))
        lineno = 1
        if len(clauses) != k:
            raise ValueError(f"header declares {k} clauses, found {len(clauses)}")
        return Cnf(n, tuple(clauses))  # refuses n < 0
    except ValueError as e:
        raise ValueError(f"line {lineno}: {e}") from None


@nogc
def emit_dimacs(f: Cnf) -> str:
    """Canonical emission: ascending variable order inside each clause
    (negative literal first on a tie), original clause order, no comments;
    the only texts :func:`parse_dimacs` reads."""
    text, rank = literal_table(f.clauses)
    spell, key = text.__getitem__, rank.__getitem__
    lines = [f"p cnf {f.n} {f.k}"]
    lines += [" ".join([*map(spell, sorted(cl, key=key)), "0"]) for cl in f.clauses]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Gate-list circuit format


def emit_gates(c: Circuit) -> str:
    """Line-oriented gate list with an explicit input-count header.

    The header keeps the declared arity through round-trips even when the
    highest input is never mentioned by a gate.
    """
    lines = [f"inputs {c.n_vars}"]
    lines += [f"g{idx} := {gate_text(g)}" for idx, g in enumerate(c.gates)]
    lines.append(f"out g{c.output}")
    return "\n".join(lines) + "\n"


def gate_text(g: Gate) -> str:
    """One gate's right-hand side: ``var 3``, ``const 1``, ``and g4 g7``."""
    if g[0] in ("var", "const"):
        return f"{g[0]} {g[1]}"
    if g[0] == "not":
        return f"not g{g[1]}"
    return f"{g[0]} g{g[1]} g{g[2]}"


def parse_gates(text: str) -> Circuit:
    """Read the text :func:`emit_gates` writes, and no other: the header
    ``inputs <n>`` on line 1, one line per gate, and ``out g<i>`` naming the
    last gate on the last line.  A malformed text raises ``ValueError``
    naming its line."""
    lines = read_lines(text)
    lineno = 1
    try:
        n_vars = read_number(lines[0].partition(" ")[2])
        if lines[0] != f"inputs {n_vars}" or n_vars < 0:
            raise ValueError("malformed inputs header")
        gates: list[Gate] = []
        done = bytearray(len(lines))
        for x, line in enumerate(lines[1:-1]):
            lineno = x + 2
            # read leniently, then refuse what gate_text would not write
            kind, *args = line.partition(" := ")[2].split(" ")
            gates.append((kind, *(read_number(a[1:] if a[:1] == "g" else a) for a in args)))
            check_cone(gates, n_vars, x, done)
            if line != f"g{x} := {gate_text(gates[x])}":
                raise ValueError("malformed gate line")
        lineno = len(lines)
        if not gates or lines[-1] != f"out g{len(gates) - 1}":
            raise ValueError("no out line naming the last gate")
    except ValueError as e:
        raise ValueError(f"line {lineno}: {e}") from None
    return Circuit(n_vars, tuple(gates))
