"""Compiling MSO formulas to bottom-up tree automata (Proposition 2.1).

The classical Thatcher-Wright/Doner construction, over the marked
firstchild/nextsibling binary encoding:

* a formula with free variables ``V`` becomes a DTA over the alphabet
  ``Sigma x 2^V`` (each tree node carries the set of variables "parked" on
  it);
* atomic relations get small hand-built automata (validated against the
  naive semantics in the test suite);
* conjunction/disjunction are automaton products, negation is
  complementation of the (total, deterministic) automaton;
* existential quantification is alphabet projection followed by the subset
  construction -- for first-order variables the automaton is first
  intersected with the "exactly one occurrence" validity automaton.

Automata produced here are only required to be correct on *valid* markings
(each free first-order variable occurs exactly once); the validity
intersection before each first-order projection, and at the very end for
the query variable, keeps that discipline sound under complementation.

The compiler is exact but, as the paper stresses (citing Frick & Grohe),
non-elementary in the quantifier alternation of the formula --
``benchmarks/bench_mso_compile.py`` measures that blow-up.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Callable, Dict, FrozenSet, Sequence, Set, Tuple

from repro.automata.treeauto import DTA, dta_from_step, intersect, product, union_dta
from repro.automata.unary import UnaryQueryDTA
from repro.errors import MSOError
from repro.mso.syntax import (
    And,
    Exists,
    FOVar,
    Forall,
    Formula,
    Iff,
    Implies,
    Member,
    Not,
    Or,
    Rel,
    Subset,
    free_variables,
    standardize_apart,
)

Symbol = Tuple[str, FrozenSet[str]]

#: Cap on determinization size during quantifier elimination.
MAX_AUTOMATON_STATES = 6000


def _alphabet(labels: Sequence[str], context: Sequence[str]) -> Set[Symbol]:
    marks = [
        frozenset(c)
        for c in chain.from_iterable(
            combinations(sorted(context), r) for r in range(len(context) + 1)
        )
    ]
    return {(label, m) for label in labels for m in marks}


# ---------------------------------------------------------------------------
# Atomic automata.
#
# Every automaton below is a small DTA built from a step function
#   step(symbol=(label, marks), q_left, q_right) -> state
# with a dedicated empty state that the step function never returns, so that
# "missing child" is observable (needed by leaf / lastsibling).  States are
# documented per automaton.  Correctness is only claimed for valid markings
# (each first-order variable exactly once), per the module docstring.
# ---------------------------------------------------------------------------

_EMPTY = 0  # the conventional empty state for all atomic automata


def _atom_label(labels: Sequence[str], context: Sequence[str], x: str, target: str) -> DTA:
    """``label_target(x)``: 1=no-x-yet, 2=x seen with the right label,
    3=x seen with a wrong label."""

    def step(symbol: Symbol, ql: int, qr: int) -> int:
        node_label, marks = symbol
        if x in marks:
            return 2 if node_label == target else 3
        for q in (ql, qr):
            if q in (2, 3):
                return q
        return 1

    return dta_from_step(_alphabet(labels, context), 4, _EMPTY, step, {2})


def _atom_root(labels: Sequence[str], context: Sequence[str], x: str) -> DTA:
    """``root(x)``: 1=no-x, 2=x at the root of this binary subtree,
    3=x strictly inside."""

    def step(symbol: Symbol, ql: int, qr: int) -> int:
        _, marks = symbol
        if x in marks:
            return 2
        if ql in (2, 3) or qr in (2, 3):
            return 3
        return 1

    return dta_from_step(_alphabet(labels, context), 4, _EMPTY, step, {2})


def _atom_leaf(labels: Sequence[str], context: Sequence[str], x: str) -> DTA:
    """``leaf(x)``: x's node must lack a left (firstchild) subtree.
    1=no-x, 2=x ok, 3=x not a leaf."""

    def step(symbol: Symbol, ql: int, qr: int) -> int:
        _, marks = symbol
        if x in marks:
            return 2 if ql == _EMPTY else 3
        for q in (ql, qr):
            if q in (2, 3):
                return q
        return 1

    return dta_from_step(_alphabet(labels, context), 4, _EMPTY, step, {2})


def _atom_lastsibling(labels: Sequence[str], context: Sequence[str], x: str) -> DTA:
    """``lastsibling(x)``: x lacks a right (nextsibling) subtree and is not
    the root.  1=no-x, 2=x ok but still at subtree root, 3=x ok and strictly
    inside, 4=x has a next sibling."""

    def step(symbol: Symbol, ql: int, qr: int) -> int:
        _, marks = symbol
        if x in marks:
            return 2 if qr == _EMPTY else 4
        if ql == 2 or qr == 2:
            return 3
        for q in (ql, qr):
            if q in (3, 4):
                return q
        return 1

    return dta_from_step(_alphabet(labels, context), 5, _EMPTY, step, {3})


def _atom_firstsibling(labels: Sequence[str], context: Sequence[str], x: str) -> DTA:
    """``firstsibling(x)``: x is the left (firstchild) child of its binary
    parent.  1=no-x, 2=x at subtree root (pending), 3=ok, 4=x is a right
    child (i.e. a next sibling) -- false."""

    def step(symbol: Symbol, ql: int, qr: int) -> int:
        _, marks = symbol
        if x in marks:
            return 2
        if ql == 2:
            return 3
        if qr == 2:
            return 4
        for q in (ql, qr):
            if q in (3, 4):
                return q
        return 1

    return dta_from_step(_alphabet(labels, context), 5, _EMPTY, step, {3})


def _atom_eq(labels: Sequence[str], context: Sequence[str], x: str, y: str) -> DTA:
    """``x = y``: both marks on the same node.  1=none, 2=ok, 3=false."""

    def step(symbol: Symbol, ql: int, qr: int) -> int:
        _, marks = symbol
        mx, my = x in marks, y in marks
        if mx and my:
            return 2
        if mx or my:
            return 3
        if ql == 3 or qr == 3:
            return 3
        if ql == 2 or qr == 2:
            return 2
        return 1

    return dta_from_step(_alphabet(labels, context), 4, _EMPTY, step, {2})


def _atom_firstchild(labels: Sequence[str], context: Sequence[str], x: str, y: str) -> DTA:
    """``firstchild(x, y)``: y is the left child of x in the encoding.
    1=none, 2=y at subtree root, 3=pair matched, 4=false."""

    def step(symbol: Symbol, ql: int, qr: int) -> int:
        _, marks = symbol
        mx, my = x in marks, y in marks
        if mx and my:
            return 4
        if my:
            if ql in (2, 3, 4) or qr in (2, 3, 4):
                return 4
            return 2
        if mx:
            return 3 if ql == 2 else 4
        if ql == 2 or qr == 2:
            return 4  # y's binary parent is not x
        for q in (ql, qr):
            if q in (3, 4):
                return q
        return 1

    return dta_from_step(_alphabet(labels, context), 5, _EMPTY, step, {3})


def _atom_nextsibling(labels: Sequence[str], context: Sequence[str], x: str, y: str) -> DTA:
    """``nextsibling(x, y)``: y is the right child of x in the encoding."""

    def step(symbol: Symbol, ql: int, qr: int) -> int:
        _, marks = symbol
        mx, my = x in marks, y in marks
        if mx and my:
            return 4
        if my:
            if ql in (2, 3, 4) or qr in (2, 3, 4):
                return 4
            return 2
        if mx:
            return 3 if qr == 2 else 4
        if ql == 2 or qr == 2:
            return 4
        for q in (ql, qr):
            if q in (3, 4):
                return q
        return 1

    return dta_from_step(_alphabet(labels, context), 5, _EMPTY, step, {3})


def _atom_child(labels: Sequence[str], context: Sequence[str], x: str, y: str) -> DTA:
    """``child(x, y)``: y reachable from x by one left edge then right
    edges (``firstchild.nextsibling*``).  1=none, 2=y on the right spine of
    this subtree, 3=ok, 4=false."""

    def step(symbol: Symbol, ql: int, qr: int) -> int:
        _, marks = symbol
        mx, my = x in marks, y in marks
        if mx and my:
            return 4
        if my:
            if ql in (2, 3, 4) or qr in (2, 3, 4):
                return 4
            return 2
        if mx:
            return 3 if ql == 2 else 4
        if ql == 2:
            return 4  # spine broken by a left edge below a non-x node
        if qr == 2:
            return 2  # spine extends through the right edge
        for q in (ql, qr):
            if q in (3, 4):
                return q
        return 1

    return dta_from_step(_alphabet(labels, context), 5, _EMPTY, step, {3})


def _atom_descendant(labels: Sequence[str], context: Sequence[str], x: str, y: str) -> DTA:
    """``descendant(x, y)`` (``child+``): y strictly below x in the
    original tree, i.e. anywhere in x's left (firstchild) subtree."""

    def step(symbol: Symbol, ql: int, qr: int) -> int:
        _, marks = symbol
        mx, my = x in marks, y in marks
        if mx and my:
            return 4
        if my:
            if ql in (2, 3, 4) or qr in (2, 3, 4):
                return 4
            return 2
        if mx:
            return 3 if ql == 2 else 4
        if ql == 2 or qr == 2:
            return 2
        for q in (ql, qr):
            if q in (3, 4):
                return q
        return 1

    return dta_from_step(_alphabet(labels, context), 5, _EMPTY, step, {3})


def _atom_sibling_before(labels: Sequence[str], context: Sequence[str], x: str, y: str) -> DTA:
    """``sibling_before(x, y)`` (``nextsibling+``): y reachable from x by
    one or more right edges."""

    def step(symbol: Symbol, ql: int, qr: int) -> int:
        _, marks = symbol
        mx, my = x in marks, y in marks
        if mx and my:
            return 4
        if my:
            if ql in (2, 3, 4) or qr in (2, 3, 4):
                return 4
            return 2
        if mx:
            return 3 if qr == 2 else 4
        if qr == 2:
            return 2  # right spine extends
        if ql == 2:
            return 4  # spine broken by a left edge
        for q in (ql, qr):
            if q in (3, 4):
                return q
        return 1

    return dta_from_step(_alphabet(labels, context), 5, _EMPTY, step, {3})


def _atom_before(labels: Sequence[str], context: Sequence[str], x: str, y: str) -> DTA:
    """``before(x, y)``: x strictly precedes y in document order.

    Document order is the preorder of the binary encoding (node, left
    subtree, right subtree).  States: 1=none, 2=x only, 3=y only,
    4=x before y (ok), 5=y before x (false)."""

    def step(symbol: Symbol, ql: int, qr: int) -> int:
        _, marks = symbol
        mx, my = x in marks, y in marks
        seen_x = False
        seen_y = False
        if mx and my:
            return 5  # same node: not *strictly* before
        if mx:
            seen_x = True
        if my:
            seen_y = True
        for q in (ql, qr):  # preorder: current node, then left, then right
            if q == 4:
                return 4
            if q == 5:
                return 5
            if q == 2:
                if seen_y:
                    return 5
                seen_x = True
            elif q == 3:
                if seen_x:
                    return 4
                seen_y = True
        if seen_x and seen_y:
            # both marks at this very node handled above; x at node plus y
            # in a subtree was resolved in the loop, so this is unreachable
            # on valid markings -- classify as ok for definiteness.
            return 4
        if seen_x:
            return 2
        if seen_y:
            return 3
        return 1

    return dta_from_step(_alphabet(labels, context), 6, _EMPTY, step, {4})


def _atom_member(labels: Sequence[str], context: Sequence[str], x: str, bigx: str) -> DTA:
    """``x in X``: the x-marked node also carries the X mark."""

    def step(symbol: Symbol, ql: int, qr: int) -> int:
        _, marks = symbol
        if x in marks:
            return 2 if bigx in marks else 3
        for q in (ql, qr):
            if q in (2, 3):
                return q
        return 1

    return dta_from_step(_alphabet(labels, context), 4, _EMPTY, step, {2})


def _atom_subset(labels: Sequence[str], context: Sequence[str], bigx: str, bigy: str) -> DTA:
    """``X sub Y``: every X-marked node is Y-marked.  1=ok so far, 2=bad."""

    def step(symbol: Symbol, ql: int, qr: int) -> int:
        _, marks = symbol
        if bigx in marks and bigy not in marks:
            return 2
        if ql == 2 or qr == 2:
            return 2
        return 1

    return dta_from_step(_alphabet(labels, context), 3, _EMPTY, step, {1})


def exactly_one(labels: Sequence[str], context: Sequence[str], x: str) -> DTA:
    """Validity automaton: the mark ``x`` occurs on exactly one node.
    1=zero so far, 2=one, 3=more than one."""

    def step(symbol: Symbol, ql: int, qr: int) -> int:
        _, marks = symbol
        count = (1 if x in marks else 0)
        for q in (ql, qr):
            if q == 2:
                count += 1
            elif q == 3:
                return 3
        if count > 1:
            return 3
        return 2 if count == 1 else 1

    return dta_from_step(_alphabet(labels, context), 4, _EMPTY, step, {2})


_ATOMIC_BUILDERS: Dict[str, Callable[..., DTA]] = {
    "root": _atom_root,
    "leaf": _atom_leaf,
    "lastsibling": _atom_lastsibling,
    "firstsibling": _atom_firstsibling,
    "eq": _atom_eq,
    "firstchild": _atom_firstchild,
    "nextsibling": _atom_nextsibling,
    "child": _atom_child,
    "descendant": _atom_descendant,
    "sibling_before": _atom_sibling_before,
    "before": _atom_before,
}


# ---------------------------------------------------------------------------
# The compiler proper.
# ---------------------------------------------------------------------------


class _Compiler:
    def __init__(self, labels: Sequence[str]):
        self.labels = sorted(set(labels))
        if not self.labels:
            raise MSOError("compilation requires a nonempty label alphabet")

    def compile(self, formula: Formula, context: Tuple[str, ...]) -> DTA:
        if isinstance(formula, Rel):
            return self._compile_rel(formula, context)
        if isinstance(formula, Member):
            self._check_in_context(formula.element.name, context)
            self._check_in_context(formula.container.name, context)
            return _atom_member(
                self.labels, context, formula.element.name, formula.container.name
            )
        if isinstance(formula, Subset):
            self._check_in_context(formula.left.name, context)
            self._check_in_context(formula.right.name, context)
            return _atom_subset(
                self.labels, context, formula.left.name, formula.right.name
            )
        if isinstance(formula, Not):
            return self.compile(formula.inner, context).complement()
        if isinstance(formula, And):
            out = self.compile(formula.parts[0], context)
            for part in formula.parts[1:]:
                out = intersect(out, self.compile(part, context))
            return out
        if isinstance(formula, Or):
            out = self.compile(formula.parts[0], context)
            for part in formula.parts[1:]:
                out = union_dta(out, self.compile(part, context))
            return out
        if isinstance(formula, Implies):
            return union_dta(
                self.compile(formula.antecedent, context).complement(),
                self.compile(formula.consequent, context),
            )
        if isinstance(formula, Iff):
            left = self.compile(formula.left, context)
            right = self.compile(formula.right, context)
            return product(left, right, lambda a, b: a == b)
        if isinstance(formula, Exists):
            return self._compile_exists(formula.var, formula.body, context)
        if isinstance(formula, Forall):
            inner = Exists(formula.var, Not(formula.body))
            return self._compile_exists(inner.var, inner.body, context).complement()
        raise MSOError(f"unknown formula node {formula!r}")

    def _check_in_context(self, name: str, context: Tuple[str, ...]) -> None:
        if name not in context:
            raise MSOError(f"variable {name!r} not in compilation context {context}")

    def _compile_rel(self, formula: Rel, context: Tuple[str, ...]) -> DTA:
        for arg in formula.args:
            self._check_in_context(arg.name, context)
        names = [a.name for a in formula.args]
        if formula.name.startswith("label_"):
            if len(names) != 1:
                raise MSOError("label atoms are unary")
            return _atom_label(
                self.labels, context, names[0], formula.name[len("label_") :]
            )
        builder = _ATOMIC_BUILDERS.get(formula.name)
        if builder is None:
            raise MSOError(f"unsupported atomic relation {formula.name!r}")
        return builder(self.labels, context, *names)

    def _compile_exists(
        self, variable, body: Formula, context: Tuple[str, ...]
    ) -> DTA:
        name = variable.name
        if name in context:
            raise MSOError(
                f"quantified variable {name!r} shadows the context; run "
                "standardize_apart first"
            )
        inner_context = tuple(sorted(context + (name,)))
        inner = self.compile(body, inner_context)
        if isinstance(variable, FOVar):
            inner = intersect(inner, exactly_one(self.labels, inner_context, name))

        def project(symbol: Symbol) -> Symbol:
            label, marks = symbol
            return (label, marks - {name})

        nta = inner.minimize().to_nta().relabel(project)
        return nta.determinize(max_states=MAX_AUTOMATON_STATES).minimize()


def compile_formula(
    formula: Formula, context: Sequence[str], labels: Sequence[str]
) -> DTA:
    """Compile ``formula`` to a DTA over alphabet ``labels x 2^context``.

    ``context`` must contain all free variables (first- and second-order).
    The formula is standardized apart first.
    """
    formula = standardize_apart(formula)
    fo_free, so_free = free_variables(formula)
    missing = (fo_free | so_free) - set(context)
    if missing:
        raise MSOError(f"free variables {sorted(missing)} missing from context")
    return _Compiler(labels).compile(formula, tuple(sorted(set(context))))


def compile_sentence(formula: Formula, labels: Sequence[str]) -> DTA:
    """Compile a sentence to a DTA over the *plain* label alphabet
    (Proposition 2.1: MSO-definable = regular)."""
    fo_free, so_free = free_variables(formula)
    if fo_free or so_free:
        raise MSOError(
            f"sentence expected; free variables {sorted(fo_free | so_free)}"
        )
    marked = compile_formula(formula, (), labels).minimize()
    # Strip the (label, frozenset()) wrapping: a bijective relabeling.
    delta = {
        (symbol[0], ql, qr): q
        for (symbol, ql, qr), q in marked.delta.items()
    }
    return DTA(
        marked.num_states,
        {symbol[0] for symbol in marked.alphabet},
        marked.empty_state,
        delta,
        marked.accept,
    )


def compile_query(
    formula: Formula, free_var: str, labels: Sequence[str]
) -> UnaryQueryDTA:
    """Compile a unary query ``phi(x)`` to a :class:`UnaryQueryDTA`.

    The result is intersected with the exactly-one validity automaton for
    the query variable, so its language consists precisely of the correctly
    marked witnesses.
    """
    fo_free, so_free = free_variables(formula)
    if so_free or fo_free - {free_var}:
        raise MSOError(
            f"query must have exactly the free variable {free_var!r}; "
            f"found FO={sorted(fo_free)}, SO={sorted(so_free)}"
        )
    dta = compile_formula(formula, (free_var,), labels)
    dta = intersect(dta, exactly_one(sorted(set(labels)), (free_var,), free_var))
    return UnaryQueryDTA(dta.minimize(), free_var)
