"""Proposition 3.3: monadic datalog queries are Pi1-MSO definable.

The encoding of the proof: for a program with intensional predicates
``P1 .. Pn`` (``P1`` the query) the formula is::

    phi(x) = forall P1 ... forall Pn ( SAT(P1, .., Pn) -> x in P1 )

where ``SAT`` conjoins, per rule ``h <- b1, .., bm``, the universally
quantified implication ``b1 & .. & bm -> h`` with intensional atoms read
as set memberships.  The minimal model is the intersection of all models,
which is exactly what the universal set quantification expresses.

The resulting formula is evaluated with the naive MSO model checker in
tests (tiny trees, tiny programs -- set quantification is exponential).
"""

from __future__ import annotations

from repro.datalog.program import Program, Rule
from repro.datalog.terms import Atom, Constant
from repro.errors import DatalogError
from repro.mso.syntax import (
    FOVar,
    Forall,
    Formula,
    Implies,
    Member,
    Rel,
    SOVar,
    conj,
)

#: datalog extensional predicate -> MSO atomic relation name.
_REL_NAMES = {
    "root": "root",
    "leaf": "leaf",
    "lastsibling": "lastsibling",
    "firstsibling": "firstsibling",
    "firstchild": "firstchild",
    "nextsibling": "nextsibling",
    "child": "child",
}


def _atom_to_formula(atom: Atom, intensional: set) -> Formula:
    for term in atom.args:
        if isinstance(term, Constant):
            raise DatalogError("constants are not supported in the MSO encoding")
    variables = tuple(FOVar(t.name) for t in atom.args)  # type: ignore[union-attr]
    if atom.pred in intensional:
        if len(variables) != 1:
            raise DatalogError("only unary intensional predicates encode to MSO")
        return Member(variables[0], SOVar(f"SET_{atom.pred}"))
    if atom.pred.startswith("label_"):
        return Rel(atom.pred, variables)
    if atom.pred == "dom":
        # dom(x) is trivially true; encode as x = x.
        return Rel("eq", (variables[0], variables[0]))
    if atom.pred in _REL_NAMES:
        return Rel(_REL_NAMES[atom.pred], variables)
    raise DatalogError(f"extensional predicate {atom.pred!r} has no MSO atom")


def _rule_to_formula(rule: Rule, intensional: set) -> Formula:
    body = [_atom_to_formula(a, intensional) for a in rule.body]
    head = _atom_to_formula(rule.head, intensional)
    implication: Formula = Implies(conj(*body), head) if body else head
    for variable in sorted(rule.variables(), key=lambda v: v.name):
        implication = Forall(FOVar(variable.name), implication)
    return implication


def datalog_to_mso(program: Program, free_var: str = "x") -> Formula:
    """Encode a monadic datalog query as a Pi1-MSO formula
    (Proposition 3.3).

    The program must have a unary query predicate; the result has one free
    first-order variable named ``free_var``.
    """
    if program.query is None:
        raise DatalogError("the program needs a distinguished query predicate")
    if not program.is_monadic():
        raise DatalogError("Proposition 3.3 encodes monadic programs")
    intensional = program.intensional_predicates()
    for rule in program.rules:
        if rule.head.arity != 1:
            raise DatalogError(
                "zero-ary intensional predicates are not supported by the "
                "MSO encoding; inline them first"
            )

    sat = conj(*[_rule_to_formula(r, intensional) for r in program.rules])
    body: Formula = Implies(sat, Member(FOVar(free_var), SOVar(f"SET_{program.query}")))
    for pred in sorted(intensional, reverse=True):
        body = Forall(SOVar(f"SET_{pred}"), body)
    return body
