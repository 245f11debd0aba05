"""Elog-Delta: distance tolerances and order-negation conditions
(Theorem 6.6).

Elog-Delta extends Elog- with three *structural* condition predicates
(they read the tree only, never the derived patterns, so the evaluator
stays monotone):

* ``before_{pi, alpha%, beta%}(x0, x, y)``: ``x0`` has ``k`` children;
  ``x`` and ``y`` are children of ``x0``; ``y`` is reachable from ``x0``
  along path ``pi``; and ``y`` stands between ``k * alpha/100`` and
  ``k * beta/100`` positions to the right of ``x`` (the paper's distance
  tolerance, restricted as in the Theorem 6.6 program to sibling words);
* ``notafter_pi(x, y)``: ``y`` does not occur (in document order) after
  any node reachable from ``x`` along ``pi``;
* ``notbefore_pi(x, y)``: ``y`` does not occur before any such node.

With these, the three-rule program of Theorem 6.6 recognizes the root of
``r(a^n b^m)`` exactly when ``n = m >= 1`` -- a non-regular condition, so
Elog-Delta is *strictly* more expressive than MSO over trees.  The
accompanying non-regularity demonstration lives in
``repro.automata.nfa.distinguishable_prefixes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.datalog.engine import EvaluationResult, evaluate
from repro.datalog.program import Program, Rule, fresh_variable_factory
from repro.datalog.terms import Atom, Variable
from repro.elog.paths import Path, match_path, path_to_text
from repro.elog.syntax import Condition, ElogRule, PatternRef, ROOT_PATTERN
from repro.elog.translate import elog_rule_to_datalog
from repro.errors import ElogError
from repro.structures import Fact
from repro.trees.unranked import UnrankedStructure


@dataclass(frozen=True)
class DeltaCondition:
    """An Elog-Delta condition atom.

    ``pred`` is ``"before"``, ``"notafter"`` or ``"notbefore"``; ``args``
    are variable names (three for ``before``, two otherwise); ``path`` is
    the label path; ``low`` / ``high`` are the percentage tolerances (for
    ``before`` only).
    """

    pred: str
    args: Tuple[str, ...]
    path: Path
    low: int = 0
    high: int = 100

    def relation_name(self) -> str:
        """The reserved extensional relation name backing this condition."""
        path_text = path_to_text(self.path)
        if self.pred == "before":
            return f"before[{path_text}][{self.low}][{self.high}]"
        return f"{self.pred}[{path_text}]"

    def __str__(self) -> str:
        if self.pred == "before":
            return (
                f"before({self.args[0]}, '{path_to_text(self.path)}', "
                f"{self.low}%-{self.high}%, {self.args[1]}, {self.args[2]})"
            )
        return f"{self.pred}({self.args[0]}, '{path_to_text(self.path)}', {self.args[1]})"


@dataclass
class ElogDeltaRule:
    """An Elog- rule extended with :class:`DeltaCondition` atoms."""

    base: ElogRule
    delta_conditions: List[DeltaCondition]

    def __str__(self) -> str:
        base_text = str(self.base)[:-1]  # strip the trailing dot
        extra = ", ".join(str(c) for c in self.delta_conditions)
        return f"{base_text}, {extra}." if extra else f"{base_text}."


class ElogDeltaProgram:
    """A program of Elog-Delta rules with a distinguished query pattern."""

    def __init__(self, rules: List[ElogDeltaRule], query: Optional[str] = None):
        self.rules = list(rules)
        self.query = query

    def __iter__(self):
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self.rules)


class _DeltaStructure(UnrankedStructure):
    """An :class:`UnrankedStructure` that also materializes the reserved
    ``before[...]`` / ``notafter[...]`` / ``notbefore[...]`` relations."""

    def arity(self, name: str) -> int:
        if name.startswith("before["):
            return 3
        if name.startswith(("notafter[", "notbefore[")):
            return 2
        return super().arity(name)

    def _compute(self, name: str) -> Set[Fact]:
        if name.startswith(("before[", "notafter[", "notbefore[")):
            return self._compute_delta(name)
        return super()._compute(name)

    def _parse_brackets(self, name: str) -> List[str]:
        inner = name[name.index("[") :]
        parts: List[str] = []
        while inner:
            if not inner.startswith("["):
                raise ElogError(f"malformed delta relation name {name!r}")
            end = inner.index("]")
            parts.append(inner[1:end])
            inner = inner[end + 1 :]
        return parts

    def _compute_delta(self, name: str) -> Set[Fact]:
        from repro.elog.paths import parse_path

        parts = self._parse_brackets(name)
        path = parse_path(parts[0])
        out: Set[Fact] = set()
        if name.startswith("before["):
            low, high = int(parts[1]), int(parts[2])
            for x0 in self.domain:
                node = self.node(x0)
                k = len(node.children)
                if k == 0:
                    continue
                reachable = {id(n) for n in match_path(node, path)}
                positions = {id(c): i for i, c in enumerate(node.children)}
                for xi, xc in enumerate(node.children):
                    for yi, yc in enumerate(node.children):
                        if id(yc) not in reachable:
                            continue
                        distance = yi - xi
                        if distance <= 0:
                            continue
                        if k * low / 100 <= distance <= k * high / 100:
                            out.add((x0, self.ident(xc), self.ident(yc)))
            return out
        # notafter / notbefore: y must not come after/before any node
        # reachable from x along the path (document order = identifier
        # order).
        after = name.startswith("notafter[")
        for x in self.domain:
            reachable = [self.ident(n) for n in match_path(self.node(x), path)]
            for y in self.domain:
                if after and any(y > r for r in reachable):
                    continue
                if not after and any(y < r for r in reachable):
                    continue
                out.add((x, y))
        return out


def delta_rule_to_datalog(rule: ElogDeltaRule, fresh) -> Rule:
    """Expand an Elog-Delta rule to datalog over the extended signature."""
    base = elog_rule_to_datalog(rule.base, fresh)
    extra = [
        Atom(c.relation_name(), tuple(Variable(a) for a in c.args))
        for c in rule.delta_conditions
    ]
    return Rule(base.head, list(base.body) + extra)


def delta_to_datalog(program: ElogDeltaProgram) -> Program:
    """Translate a whole Elog-Delta program."""
    fresh = fresh_variable_factory("z")
    rules = [delta_rule_to_datalog(rule, fresh) for rule in program.rules]
    declared = {rule.base.head for rule in program.rules}
    return Program(rules, query=program.query, declared=declared)


def evaluate_elog_delta(
    program: ElogDeltaProgram, tree, method: str = "auto"
) -> EvaluationResult:
    """Evaluate an Elog-Delta program on a tree (root :class:`Node`).

    Funnels through the compiled engine
    (:mod:`repro.datalog.plan`) with the same strategy auto-selection as
    every other entry point (the reserved ``before[...]`` /
    ``notafter[...]`` / ``notbefore[...]`` relations put these programs
    outside the kernel fragment, so auto falls through to the
    grounding/semi-naive strategies); pass ``method`` to force one.
    Callers with many trees can compile ``delta_to_datalog(program)``
    once with :func:`repro.datalog.plan.compile_program` and run the
    plan per document, rebuilding only the per-tree ``_DeltaStructure``.
    """
    structure = _DeltaStructure(tree)
    return evaluate(delta_to_datalog(program), structure, method=method)


def anbn_program() -> ElogDeltaProgram:
    """The Theorem 6.6 program: ``anbn(root)`` iff the root's children
    spell ``a^n b^n`` (``n >= 1``).

    ::

        a0(x)   <- root(x0), subelem_a(x0, x), notafter_a(x0, x).
        b0(x)   <- root(x0), subelem_b(x0, x), notafter_b(x0, x),
                   notbefore_a(x0, x).
        anbn(x) <- root(x), contains_a(x, y), a0(y),
                   before_{b,50%-50%}(x, y, z), b0(z).
    """
    a0 = ElogDeltaRule(
        ElogRule(
            head="a0",
            head_var="x",
            parent=ROOT_PATTERN,
            parent_var="x0",
            path=("a",),
        ),
        [DeltaCondition("notafter", ("x0", "x"), ("a",))],
    )
    b0 = ElogDeltaRule(
        ElogRule(
            head="b0",
            head_var="x",
            parent=ROOT_PATTERN,
            parent_var="x0",
            path=("b",),
        ),
        [
            DeltaCondition("notafter", ("x0", "x"), ("b",)),
            DeltaCondition("notbefore", ("x0", "x"), ("a",)),
        ],
    )
    anbn = ElogDeltaRule(
        ElogRule(
            head="anbn",
            head_var="x",
            parent=ROOT_PATTERN,
            parent_var="x",
            conditions=[Condition("contains", ("x", "y"), ("a",))],
            refs=[PatternRef("a0", "y")],
        ),
        [DeltaCondition("before", ("x", "y", "z"), ("b",), 50, 50)],
    )
    # The z variable carries the b0 reference; attach it to the base rule.
    anbn.base.refs.append(PatternRef("b0", "z"))
    return ElogDeltaProgram([a0, b0, anbn], query="anbn")
