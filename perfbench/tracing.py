"""Spans around the program's layer functions, and the per-layer metrics.

:func:`instrument` replaces each traced function by a wrapper at every
name a ``proofbench`` module binds it to, so the calls one layer makes into
another are recorded as well as the benchmark's own calls: for example the
``build_prf`` and ``check_refutation`` calls inside ``refute_prf_nontaut``,
and ``emit_proof`` inside ``check_refutation`` (its ``bit_size``).  The
wrappers are removed when the ``with`` block ends.

A span holds its name, start and end, the index of its parent span, the
operation it belongs to and the counts read off the call's arguments and
result.  Spans stay in memory; the benchmark writes them out when it ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

MODULES = ("core", "resolution", "oracle", "encoder", "proofgen", "cfrege")

# Per traced function: the counts its span records, read from
# (args, result).  Each count becomes the metric ``<name>.<count>``.
COUNTS: dict[str, dict[str, Callable]] = {
    "core.emit_dimacs": {"bytes": lambda a, r: len(r.encode())},
    "core.parse_dimacs": {},
    "core.eval_cnf": {},
    "resolution.check_refutation": {"lines": lambda a, r: r.lines},
    "resolution.emit_proof": {"bytes": lambda a, r: len(r.encode())},
    "resolution.parse_proof": {},
    "encoder.build_prf": {"clauses": lambda a, r: len(r.formula.clauses)},
    "encoder.build_rfn": {},
    "encoder.build_lrfn": {},
    "encoder.build_con": {},
    "encoder.decode_prf_assignment": {},
    "proofgen.refute_prf_nontaut": {"lines": lambda a, r: len(r)},
    "proofgen.encode_witness": {},
    "oracle.min_refutation_length": {},
    "oracle.dpll_sat": {"calls": lambda a, r: 1},
    "oracle.dpll_refute": {"lines": lambda a, r: len(r)},
    "oracle.is_tautology": {"assignments": lambda a, r: 1 << a[0].n_vars},
    "cfrege.cf_prove_rfn_res": {
        "lines": lambda a, r: len(r),
        "arena_nodes": lambda a, r: len(r.arena.nodes),
    },
    "cfrege.cf_check": {"lines": lambda a, r: r.lines},
    "cfrege.cf_serialize": {"bytes": lambda a, r: len(r.encode())},
    "cfrege.lrfn_from_rfn": {},
}

# DPLL search nodes: one ``_unit_propagate`` call per node, credited to the
# innermost open span (``dpll_sat`` or ``dpll_refute``) as ``nodes``.
NODE_COUNTER = ("oracle", "_unit_propagate")

# The per-layer metrics, in report order, with their units.  ``s`` is
# inclusive time, ``self_s`` that time minus the nested spans of other
# traced functions; ``lines_per_s`` divides a ``lines`` count by ``s``.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("encoder.build_prf.s", "s"),
    ("encoder.build_prf.clauses", "count"),
    ("encoder.build_rfn.s", "s"),
    ("encoder.build_lrfn.s", "s"),
    ("encoder.build_con.s", "s"),
    ("encoder.decode_prf_assignment.s", "s"),
    ("proofgen.refute_prf_nontaut.s", "s"),
    ("proofgen.refute_prf_nontaut.self_s", "s"),
    ("proofgen.refute_prf_nontaut.lines", "lines"),
    ("proofgen.encode_witness.s", "s"),
    ("resolution.check_refutation.s", "s"),
    ("resolution.check_refutation.lines", "lines"),
    ("resolution.check_refutation.lines_per_s", "lines/s"),
    ("resolution.emit_proof.s", "s"),
    ("resolution.emit_proof.bytes", "bytes"),
    ("resolution.parse_proof.s", "s"),
    ("core.emit_dimacs.s", "s"),
    ("core.emit_dimacs.bytes", "bytes"),
    ("core.parse_dimacs.s", "s"),
    ("core.eval_cnf.s", "s"),
    ("oracle.min_refutation_length.s", "s"),
    ("oracle.dpll_sat.s", "s"),
    ("oracle.dpll_sat.calls", "count"),
    ("oracle.dpll_sat.nodes", "count"),
    ("oracle.dpll_refute.s", "s"),
    ("oracle.dpll_refute.lines", "lines"),
    ("oracle.dpll_refute.nodes", "count"),
    ("oracle.is_tautology.s", "s"),
    ("oracle.is_tautology.assignments", "count"),
    ("cfrege.cf_prove_rfn_res.s", "s"),
    ("cfrege.cf_prove_rfn_res.self_s", "s"),
    ("cfrege.cf_prove_rfn_res.lines", "lines"),
    ("cfrege.cf_prove_rfn_res.arena_nodes", "count"),
    ("cfrege.cf_check.s", "s"),
    ("cfrege.cf_check.lines_per_s", "lines/s"),
    ("cfrege.cf_serialize.s", "s"),
    ("cfrege.cf_serialize.bytes", "bytes"),
    ("cfrege.lrfn_from_rfn.s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = ""
        self._open: list[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._open.pop()

    def count(self, key: str, value: int = 1) -> None:
        if self._open:
            counts = self.spans[self._open[-1]].counts
            counts[key] = counts.get(key, 0) + value


def _span_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    counters = COUNTS[name]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        counts = tracer.spans[idx].counts
        for key, read in counters.items():
            counts[key] = counts.get(key, 0) + read(args, out)
        return out

    return traced


def _node_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.count("nodes")
        return fn(*args, **kwargs)

    return counted


@contextmanager
def instrument(tracer: Tracer):
    """Trace every function in :data:`COUNTS` while the block runs."""
    mods = [importlib.import_module(f"proofbench.{m}") for m in MODULES]
    by_name = {m.__name__.rsplit(".", 1)[1]: m for m in mods}
    wrappers = {}
    for name in COUNTS:
        owner, fname = name.split(".")
        orig = getattr(by_name[owner], fname)
        wrappers[id(orig)] = (orig, _span_wrapper(tracer, name, orig))
    owner, fname = NODE_COUNTER
    orig = getattr(by_name[owner], fname)
    wrappers[id(orig)] = (orig, _node_wrapper(tracer, orig))

    saved = []
    for m in mods:
        for attr, val in list(vars(m).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                saved.append((m, attr, val))
                setattr(m, attr, hit[1])
    try:
        yield tracer
    finally:
        for m, attr, val in reversed(saved):
            setattr(m, attr, val)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over ``spans`` (one round), keyed like
    :data:`LAYER_METRICS`; layers that were not called read 0."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out: dict[str, float] = {name: 0.0 for name, _ in LAYER_METRICS}

    def add(key: str, value: float) -> None:
        if key in out:
            out[key] += value

    for idx, s in enumerate(spans):
        dur = s.end - s.start
        # A call nested in a call of the same function is already inside
        # the outer one's inclusive time.
        up = s.parent
        while up is not None and spans[up].name != s.name:
            up = spans[up].parent
        if up is None:
            add(f"{s.name}.s", dur)
        add(f"{s.name}.self_s", dur - child_time[idx])
        for key, value in s.counts.items():
            add(f"{s.name}.{key}", value)
    for name in ("resolution.check_refutation", "cfrege.cf_check"):
        lines = sum(s.counts.get("lines", 0) for s in spans if s.name == name)
        secs = out[f"{name}.s"]
        out[f"{name}.lines_per_s"] = lines / secs if secs > 0 else 0.0
    out["trace.spans"] = float(len(spans))
    return out
