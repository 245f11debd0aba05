"""Public datalog evaluation entry point: a thin ``compile -> run`` wrapper.

The heavy lifting lives in :mod:`repro.datalog.plan`: ``compile_program``
turns a :class:`~repro.datalog.program.Program` into a reusable
:class:`~repro.datalog.plan.CompiledProgram` (interned predicates, per-rule
join plans with semi-naive delta variants, dependency strata, cached
connectedness split), and ``CompiledProgram.run(structure)`` evaluates the
plan over one document.  ``evaluate(program, structure)`` keeps the classic
one-shot API by compiling and running in a single call.

``run``/``evaluate`` pick the best applicable strategy:

* ``"kernel"`` -- the linear-time propagation kernel
  (:mod:`repro.datalog.kernel`): monadic programs over tree-backed
  structures evaluated against the columnar document snapshot with
  one byte lane per predicate, Theorem 4.2 as the hot path;
* ``"ground"`` -- Theorem 4.2's linear-time grounding + Horn-SAT, when the
  program is monadic and every binary body relation is bidirectionally
  functional in the structure (Proposition 4.1); kept as the cross-check
  oracle for the kernel;
* ``"lit"`` -- Proposition 3.7's Datalog LIT evaluation;
* ``"seminaive"`` -- the compiled bottom-up engine (always applicable; the
  interpreted reference lives in
  :func:`repro.datalog.seminaive.evaluate_seminaive`);
* ``"naive"`` -- naive :math:`T_P` iteration, exposing the round-by-round
  trace of Definition 3.1 (see :func:`naive_fixpoint_trace`).

All strategies compute the same minimal model; the test suite cross-checks
them on randomized programs and trees.  Callers evaluating one program over
many documents should compile once and reuse the plan::

    compiled = compile_program(program)
    for tree in documents:
        result = compiled.run(UnrankedStructure(tree))

and callers evaluating many programs over one document should additionally
share a single :class:`repro.structures.IndexedStructure` per document (see
:meth:`repro.wrap.extraction.Wrapper.extract_many`).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.datalog.plan import (
    CompiledProgram,
    EvaluationResult,
    compile_program,
)
from repro.datalog.program import Program
from repro.datalog.seminaive import naive_rounds
from repro.structures import Structure

Relations = Dict[str, Set[Tuple[int, ...]]]

__all__ = [
    "CompiledProgram",
    "EvaluationResult",
    "compile_program",
    "evaluate",
    "naive_fixpoint_trace",
]


def evaluate(
    program: Program, structure: Structure, method: str = "auto"
) -> EvaluationResult:
    """Evaluate ``program`` over ``structure`` (compile once, run once).

    Parameters
    ----------
    program:
        The datalog program (monadic for the specialized strategies).
    structure:
        Any finite structure; typically an
        :class:`repro.trees.UnrankedStructure` or
        :class:`repro.trees.RankedStructure`.  A pre-built
        :class:`repro.structures.IndexedStructure` is used as-is, sharing
        its indexes with other queries on the same document.
    method:
        ``"auto"`` (default), ``"kernel"``, ``"ground"``, ``"lit"``,
        ``"seminaive"`` or ``"naive"``.

    Returns
    -------
    EvaluationResult
    """
    return compile_program(program).run(structure, method=method)


def naive_fixpoint_trace(
    program: Program, structure: Structure
) -> List[Relations]:
    """Round-by-round naive fixpoint (Definition 3.1 / Example 3.2).

    ``result[i]`` maps predicates to atoms first derived in ``T^{i+1}_P``.
    """
    return naive_rounds(program, structure)
