"""Elog- to monadic datalog over ``tau_ur u {child}`` (Theorem 6.5, easy
direction): expand every ``subelem`` / ``contains`` shortcut per
Definition 6.1 and keep everything else verbatim.

:func:`evaluate_elog` evaluates an Elog- wrapper either through the
semi-naive engine directly, or -- demonstrating the paper's full
tool-chain (Corollary 6.4) -- by first normalizing the translation into
TMNF over pure ``tau_ur`` (Theorem 5.2) and then running the linear-time
Theorem 4.2 engine.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.datalog.engine import CompiledProgram, EvaluationResult, compile_program
from repro.datalog.program import Program, Rule, fresh_variable_factory
from repro.datalog.terms import Atom, Variable
from repro.elog.paths import expand_contains, expand_subelem
from repro.elog.syntax import ElogProgram, ElogRule, ROOT_PATTERN
from repro.errors import ElogError
from repro.structures import Structure


def elog_rule_to_datalog(rule: ElogRule, fresh) -> Rule:
    """Expand one Elog- rule into a datalog rule over ``tau_ur u {child}``."""
    body: List[Atom] = []
    head_var = Variable(rule.head_var)
    parent_var = Variable(rule.parent_var)

    if rule.parent == ROOT_PATTERN:
        body.append(Atom("root", (parent_var,)))
    else:
        body.append(Atom(rule.parent, (parent_var,)))

    if rule.path:
        atoms, _ = expand_subelem(rule.path, parent_var, head_var, fresh)
        body.extend(atoms)

    for condition in rule.conditions:
        if condition.pred == "contains":
            source, target = (Variable(a) for a in condition.args)
            atoms, _ = expand_contains(condition.path or (), source, target, fresh)
            body.extend(atoms)
        else:
            body.append(
                Atom(condition.pred, tuple(Variable(a) for a in condition.args))
            )

    for ref in rule.refs:
        body.append(Atom(ref.pattern, (Variable(ref.var),)))

    return Rule(Atom(rule.head, (head_var,)), body)


def elog_to_datalog(program: ElogProgram) -> Program:
    """Translate a whole Elog- program (Theorem 6.5, Elog- -> datalog)."""
    fresh = fresh_variable_factory("z")
    rules = [elog_rule_to_datalog(rule, fresh) for rule in program.rules]
    declared: Set[str] = set(program.patterns())
    return Program(rules, query=program.query, declared=declared)


def compile_elog(
    program: ElogProgram, method: str = "auto"
) -> Tuple[CompiledProgram, str]:
    """Compile an Elog- wrapper once into an executable datalog plan.

    Returns ``(compiled, run_method)``: the plan plus the datalog engine
    method to evaluate it with.  ``method="auto"`` (default) lets the
    engine pick the fastest applicable strategy -- for Elog- translations
    over tree documents that is the linear-time propagation kernel
    (:mod:`repro.datalog.kernel`), realizing Corollary 6.4 directly.
    ``method="kernel"`` demands the kernel (raising if it cannot apply);
    ``method="tmnf"`` bakes in the paper's original chain (Theorem 5.2
    normalization at compile time, the Theorem 4.2 grounding engine at run
    time); ``"seminaive"`` / ``"naive"`` compile the ``tau_ur u {child}``
    translation for the general engine.  The plan is reusable across
    documents::

        compiled, run_method = compile_elog(program)
        for tree in documents:
            result = compiled.run(UnrankedStructure(tree), method=run_method)
    """
    datalog = elog_to_datalog(program)
    if method == "tmnf":
        from repro.tmnf.pipeline import to_tmnf

        return compile_program(to_tmnf(datalog).program), "ground"
    if method not in ("auto", "kernel", "seminaive", "naive"):
        raise ElogError(f"unknown Elog evaluation method {method!r}")
    return compile_program(datalog), method


def evaluate_elog(
    program: ElogProgram,
    structure: Structure,
    method: str = "auto",
) -> EvaluationResult:
    """Evaluate an Elog- wrapper over a tree structure (compile + run).

    ``method="auto"`` (default) routes tree workloads through the
    linear-time propagation kernel, falling back to the general engine
    otherwise.  ``method="seminaive"`` evaluates the ``tau_ur u {child}``
    translation with the compiled join plans.  ``method="tmnf"``
    demonstrates Corollary 6.4's bound through the paper's original chain:
    normalize through Theorem 5.2 and evaluate with the Theorem 4.2
    grounding engine.  Callers with many documents should use
    :func:`compile_elog` once and run the plan per document.
    """
    compiled, run_method = compile_elog(program, method)
    return compiled.run(structure, method=run_method)
