"""Definition 5.1: the TMNF rule shapes and their checker."""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.datalog.program import Program, Rule
from repro.datalog.terms import Variable

#: Binary relations of ``tau_ur`` admissible inside TMNF form (2).
TAU_UR_BINARY = ("firstchild", "nextsibling")


def check_tmnf_rule(
    rule: Rule, binary_relations: Iterable[str] = TAU_UR_BINARY
) -> Optional[str]:
    """Return ``None`` if the rule is in TMNF, else a reason string.

    ``binary_relations`` is the admissible set of schema binaries (defaults
    to ``tau_ur``; pass ``("child1", "child2", ...)`` for ranked programs).
    """
    binaries = set(binary_relations)
    head = rule.head
    if head.arity != 1 or not isinstance(head.args[0], Variable):
        return f"head must be unary over a variable: {rule}"
    x = head.args[0]
    body = rule.body
    if len(body) == 1:
        atom = body[0]
        if atom.arity == 1 and atom.args == (x,):
            return None  # form (1)
        return f"single-atom body must be p0(x): {rule}"
    if len(body) != 2:
        return f"TMNF bodies have one or two atoms: {rule}"
    unary = [a for a in body if a.arity == 1]
    binary = [a for a in body if a.arity == 2]
    if len(unary) == 2 and not binary:
        if all(a.args == (x,) for a in unary):
            return None  # form (3)
        return f"form (3) requires both atoms on the head variable: {rule}"
    if len(unary) == 1 and len(binary) == 1:
        u = unary[0]
        b = binary[0]
        if b.pred not in binaries:
            return f"binary relation {b.pred!r} not in the schema: {rule}"
        args = b.args
        if not all(isinstance(t, Variable) for t in args):
            return f"binary atom must be over variables: {rule}"
        x0 = u.args[0]
        if not isinstance(x0, Variable):
            return f"unary atom must be over a variable: {rule}"
        # form (2): p(x) <- p0(x0), B(x0, x)   with B = R or R^-1.
        if args == (x0, x) or args == (x, x0):
            if x0 == x:
                return f"form (2) requires distinct variables: {rule}"
            return None
        return f"binary atom must connect body variable to head variable: {rule}"
    return f"rule fits no TMNF shape: {rule}"


def is_tmnf(
    program: Program, binary_relations: Iterable[str] = TAU_UR_BINARY
) -> Tuple[bool, Optional[str]]:
    """Whether every rule of the program is in TMNF; reason on failure."""
    for rule in program.rules:
        reason = check_tmnf_rule(rule, binary_relations)
        if reason is not None:
            return False, reason
    return True, None
