"""Theorem 5.2: the full TMNF normalization pipeline.

``to_tmnf(program)`` rewrites any monadic datalog program over
``tau_ur u {child, lastchild}`` into an equivalent TMNF program over
``tau_ur`` in (near-)linear time, through five stages:

A. expand ``lastchild`` (Lemma 5.6 preprocessing);
B. acyclicize every rule (Lemma 5.5), dropping rules the chase proves
   unsatisfiable; output may use the helper relation ``nextsibling_star``;
C. connect disconnected rules by inserting the *total* caterpillar atom
   ``(docorder | eps | docorder^-1)(x, y)`` between the head component and
   every other component (proof of Theorem 5.2);
D. decompose every rule into the three TMNF shapes (Lemmas 5.7/5.8), still
   over the helper binaries ``nextsibling_star`` / ``total``;
E. eliminate the helper binaries via Lemma 5.9's Thompson-automaton
   encoding, whose output is TMNF over pure ``tau_ur``.

All intermediate programs are recorded on the returned :class:`TMNFResult`
for inspection and for the Figure 3 reproduction tests.
"""

from __future__ import annotations

from typing import List

from repro.caterpillar.compile import caterpillar_to_datalog
from repro.caterpillar.order import total_expression
from repro.caterpillar.syntax import CatExpr, cat_atom, cat_inverse, cat_star
from repro.datalog.analysis import variable_components
from repro.datalog.program import Program, Rule
from repro.datalog.terms import Atom
from repro.errors import TMNFError
from repro.tmnf.acyclic import (
    NEXTSIBLING_STAR,
    acyclicize_rule_ranked,
    acyclicize_rule_unranked,
)
from repro.tmnf.decompose import _NameSupply, decompose_rule
from repro.tmnf.forms import TAU_UR_BINARY, is_tmnf

#: Helper binary relations eliminated in stage E, with their caterpillar
#: definitions over ``tau_ur``.
_HELPER_EXPRESSIONS = {
    NEXTSIBLING_STAR: lambda: cat_star(cat_atom("nextsibling")),
    "total": total_expression,
}


class TMNFResult:
    """Output of :func:`to_tmnf` with all intermediate stages."""

    def __init__(
        self,
        program: Program,
        acyclic: Program,
        connected: Program,
        decomposed: Program,
        dropped_rules: List[Rule],
    ):
        #: The final TMNF program over ``tau_ur``.
        self.program = program
        #: Stage B output (acyclic rules over ``tau_ur u {nextsibling_star}``).
        self.acyclic = acyclic
        #: Stage C output (every rule connected, ``total`` atoms inserted).
        self.connected = connected
        #: Stage D output (TMNF shapes over helper binaries).
        self.decomposed = decomposed
        #: Rules the acyclicization chase proved unsatisfiable.
        self.dropped_rules = dropped_rules


def _connect_rule(rule: Rule, names: _NameSupply) -> Rule:
    """Stage C: join disconnected components with ``total`` atoms."""
    components = variable_components(rule)
    if len(components) <= 1:
        return rule
    head_vars = rule.head.variables()
    if head_vars:
        main = next(c for c in components if head_vars & c)
    else:
        raise TMNFError(f"propositional heads unsupported here: {rule}")
    anchor = next(iter(head_vars))
    extra: List[Atom] = []
    for component in components:
        if component is main:
            continue
        representative = sorted(component, key=lambda v: v.name)[0]
        extra.append(Atom("total", (anchor, representative)))
    return Rule(rule.head, list(rule.body) + extra)


def _eliminate_helpers(rules: List[Rule], names: _NameSupply) -> List[Rule]:
    """Stage E: replace form-(2) rules over helper binaries by Lemma 5.9
    programs."""
    out: List[Rule] = []
    for rule in rules:
        helper_atoms = [
            a for a in rule.body if a.arity == 2 and a.pred in _HELPER_EXPRESSIONS
        ]
        if not helper_atoms:
            out.append(rule)
            continue
        if len(rule.body) != 2 or len(helper_atoms) != 1:
            raise TMNFError(
                f"stage D should leave helper binaries in two-atom rules: {rule}"
            )
        binary = helper_atoms[0]
        unary = next(a for a in rule.body if a.arity == 1)
        expr: CatExpr = _HELPER_EXPRESSIONS[binary.pred]()
        head_var = rule.head.args[0]
        if binary.args == (unary.args[0], head_var):
            pass  # forward: head = p0 . E
        elif binary.args == (head_var, unary.args[0]):
            expr = cat_inverse(expr)  # inverse direction: head = p0 . E^-1
        else:
            raise TMNFError(f"unexpected helper-atom shape: {rule}")
        target = rule.head.pred
        sub_program, _ = caterpillar_to_datalog(
            expr, unary.pred, target, prefix=names.fresh("cat")
        )
        out.extend(sub_program.rules)
    return out


def to_tmnf(
    program: Program,
    signature: str = "unranked",
    max_rank: int = 2,
) -> TMNFResult:
    """Normalize a monadic datalog program into TMNF (Theorem 5.2).

    Parameters
    ----------
    program:
        Monadic program over ``tau_ur u {child, lastchild}`` (signature
        ``"unranked"``) or over ``tau_rk`` (signature ``"ranked"``).
    signature:
        ``"unranked"`` (default) or ``"ranked"``.
    max_rank:
        Maximum rank ``K`` for ranked signatures.

    Returns
    -------
    TMNFResult
        Final program plus all intermediate stages.  Equivalence of input
        and output is property-tested in ``tests/test_tmnf.py``.
    """
    if not program.is_monadic():
        raise TMNFError("TMNF normalization requires a monadic program")
    names = _NameSupply(set(program.predicates()), "tmnf")

    # Stage A+B: acyclicize.
    acyclic_rules: List[Rule] = []
    dropped: List[Rule] = []
    for rule in program.rules:
        if signature == "unranked":
            rewritten = acyclicize_rule_unranked(rule)
        elif signature == "ranked":
            rewritten = acyclicize_rule_ranked(rule, max_rank)
        else:
            raise TMNFError(f"unknown signature {signature!r}")
        if rewritten is None:
            dropped.append(rule)
        else:
            acyclic_rules.append(rewritten)
    acyclic = Program(acyclic_rules, declared=program.declared)

    # Stage C: connect.
    connected_rules = [_connect_rule(r, names) for r in acyclic_rules]
    connected = Program(connected_rules, declared=program.declared)

    # Stage D: decompose into TMNF shapes (helpers allowed).
    decomposed_rules: List[Rule] = []
    for rule in connected_rules:
        decomposed_rules.extend(decompose_rule(rule, names))
    decomposed = Program(decomposed_rules, declared=program.declared)

    # Stage E: eliminate helper binaries.
    final_rules = _eliminate_helpers(decomposed_rules, names)
    declared = set(program.declared) | {
        r.head.pred for r in final_rules
    } | program.intensional_predicates()
    final = Program(final_rules, query=program.query, declared=declared)

    if signature == "unranked":
        ok, reason = is_tmnf(final, TAU_UR_BINARY)
    else:
        ok, reason = is_tmnf(
            final, tuple(f"child{k}" for k in range(1, max_rank + 1))
        )
    if not ok:
        raise TMNFError(f"pipeline produced a non-TMNF rule: {reason}")
    return TMNFResult(final, acyclic, connected, decomposed, dropped)
