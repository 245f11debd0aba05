"""Lemmas 5.7 / 5.8: decomposing acyclic connected rules into TMNF shapes.

The decomposition repeatedly

* *folds* multiple unary atoms on one variable into a single fresh
  predicate through form-(3) rules, and
* *plucks ears* (Lemma 5.7): a variable in exactly one binary atom is
  eliminated by introducing a fresh predicate defined through a form-(2)
  rule.

The output rules are in the three shapes of Definition 5.1, possibly still
over the helper binary relations ``nextsibling_star`` / ``total`` that the
pipeline's final stage (Lemma 5.9) eliminates.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.datalog.program import Rule
from repro.datalog.terms import Atom, Variable
from repro.errors import TMNFError

#: Universal unary predicate available in the schema (seed for bare ears).
DOM = "dom"


class _NameSupply:
    """Generates fresh predicate names within one pipeline run."""

    def __init__(self, used: Set[str], prefix: str):
        self.used = set(used)
        self.prefix = prefix
        self.counter = 0

    def fresh(self, hint: str = "p") -> str:
        while True:
            name = f"{self.prefix}_{hint}_{self.counter}"
            self.counter += 1
            if name not in self.used:
                self.used.add(name)
                return name


def decompose_rule(rule: Rule, names: _NameSupply) -> List[Rule]:
    """Decompose one acyclic *connected* rule into TMNF-shaped rules.

    The head must be unary over a variable; the body may contain unary
    atoms and binary atoms over distinct variables.
    """
    if rule.head.arity != 1 or not isinstance(rule.head.args[0], Variable):
        raise TMNFError(f"head must be unary over a variable: {rule}")
    head_var: Variable = rule.head.args[0]

    unary: Dict[Variable, List[str]] = {}
    binary: List[Atom] = []
    for atom in rule.body:
        if atom.arity == 1:
            term = atom.args[0]
            if not isinstance(term, Variable):
                raise TMNFError(f"constants unsupported in decomposition: {rule}")
            unary.setdefault(term, []).append(atom.pred)
        elif atom.arity == 2:
            a, b = atom.args
            if not (isinstance(a, Variable) and isinstance(b, Variable)):
                raise TMNFError(f"constants unsupported in decomposition: {rule}")
            if a == b:
                raise TMNFError(f"self-loop binary atom unsupported: {rule}")
            binary.append(atom)
        else:
            raise TMNFError(f"unsupported atom arity in {rule}")

    out: List[Rule] = []
    x = Variable("x")

    def fold(variable: Variable) -> str:
        """Reduce the unary atoms on ``variable`` to exactly one predicate."""
        preds = unary.get(variable, [])
        if not preds:
            unary[variable] = [DOM]
            return DOM
        while len(preds) > 1:
            p1 = preds.pop()
            p2 = preds.pop()
            name = names.fresh("and")
            out.append(
                Rule(Atom(name, (x,)), [Atom(p1, (x,)), Atom(p2, (x,))])
            )
            preds.append(name)
        return preds[0]

    # Pluck ears until only the head variable remains.
    while binary:
        degree: Dict[Variable, int] = {}
        for atom in binary:
            for term in atom.args:
                degree[term] = degree.get(term, 0) + 1
        ear = None
        for variable, count in degree.items():
            if count == 1 and variable != head_var:
                ear = variable
                break
        if ear is None:
            raise TMNFError(
                f"no ear found; rule is cyclic or disconnected: {rule}"
            )
        ear_pred = fold(ear)
        atom = next(a for a in binary if ear in a.args)
        binary.remove(atom)
        other = atom.args[0] if atom.args[1] == ear else atom.args[1]
        name = names.fresh("via")
        x0 = Variable("x0")
        if atom.args == (ear, other):
            # q(x) <- p0(x0), R(x0, x).
            out.append(
                Rule(
                    Atom(name, (x,)),
                    [Atom(ear_pred, (x0,)), Atom(atom.pred, (x0, x))],
                )
            )
        else:
            # q(x) <- p0(x0), R(x, x0)   (inverse direction).
            out.append(
                Rule(
                    Atom(name, (x,)),
                    [Atom(ear_pred, (x0,)), Atom(atom.pred, (x, x0))],
                )
            )
        unary.pop(ear, None)
        unary.setdefault(other, []).append(name)

    stray = [v for v in unary if v != head_var]
    if stray:
        raise TMNFError(f"rule is not connected: leftover variables {stray}")

    final_pred = fold(head_var)
    out.append(Rule(rule.head, [Atom(final_pred, (head_var,))]))
    return out
