"""Monadic datalog over trees (Sections 3-4 of the paper).

The package provides:

* :mod:`repro.datalog.terms` / :mod:`repro.datalog.program` -- the abstract
  syntax of datalog (variables, constants, atoms, rules, programs);
* :mod:`repro.datalog.parser` -- a textual syntax
  (``head(x) :- body1(x), body2(x, y).``);
* :mod:`repro.datalog.hornsat` -- the linear-time propositional Horn
  satisfiability core (Proposition 3.5, Dowling-Gallier);
* :mod:`repro.datalog.kernel` -- the linear-time propagation kernel:
  monadic programs lowered to numeric rule tables evaluated over columnar
  document snapshots with one byte lane per predicate (Theorem 4.2 as the
  hot path, auto-selected for tree workloads), its scalar worklist
  generated as Python source by :mod:`repro.datalog.worklist`;
* :mod:`repro.datalog.grounding` -- Theorem 4.2's linear-time grounding of
  connected monadic programs over tree structures (the kernel's
  cross-check oracle);
* :mod:`repro.datalog.seminaive` -- a general bottom-up engine (semi-naive
  and naive-with-trace evaluation);
* :mod:`repro.datalog.guarded` -- the guarded and Datalog LIT fragments
  (Propositions 3.6 and 3.7);
* :mod:`repro.datalog.plan` -- compile-once query plans
  (:func:`compile_program` / :class:`CompiledProgram`): interned ids,
  precomputed join orders, dependency strata, reusable across documents;
* :mod:`repro.datalog.engine` -- the public :func:`evaluate` entry point
  (a thin compile-and-run wrapper) with automatic strategy selection;
* :mod:`repro.datalog.analysis` -- query graphs, connectedness, safety and
  related static analyses;
* :mod:`repro.datalog.to_mso` -- Proposition 3.3 (monadic datalog is
  Pi1-MSO definable);
* :mod:`repro.datalog.containment` -- containment testing utilities
  (Corollary 4.20 context).
"""

from repro.datalog.terms import Atom, Constant, Term, Variable
from repro.datalog.program import Program, Rule
from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.engine import (
    CompiledProgram,
    EvaluationResult,
    compile_program,
    evaluate,
    naive_fixpoint_trace,
)

__all__ = [
    "Term",
    "Variable",
    "Constant",
    "Atom",
    "Rule",
    "Program",
    "parse_program",
    "parse_rule",
    "compile_program",
    "CompiledProgram",
    "evaluate",
    "naive_fixpoint_trace",
    "EvaluationResult",
]
