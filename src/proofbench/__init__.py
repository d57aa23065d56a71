"""proofbench: encodings, checkers, and desk-scale experiments for
propositional proof systems (Resolution and Circuit Frege).

The package is organized as a small stack:

* ``core``        -- CNFs, clause codes, circuits, and the file formats.
* ``resolution``  -- Resolution proofs: checker, restriction, text format.
* ``oracle``      -- exhaustive ground truth: tautology checks, DPLL, minimal
                     refutation search.
* ``encoder``     -- the formula families: prf / sat / rfn / lrfn / con,
                     reductions, PHP, clique-coloring, templates.
* ``proofgen``    -- constructive refutations of prf formulas, witness
                     encoding, and the variable-disjoint split.
* ``cfcheck``     -- the Circuit Frege calculus: canonical forms, schemas,
                     and the checker.
* ``cfrege``      -- Circuit Frege proof generators and the proof text form.
* ``cli``         -- batch front door (``proofbench`` console script).
"""

__version__ = "0.1.0"
