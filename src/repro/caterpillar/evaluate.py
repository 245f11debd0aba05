"""Direct evaluation of caterpillar expressions over tree structures.

``[[E]]`` is computed as a binary relation over node identifiers, following
the inductive semantics of Section 2.  For large trees prefer
:func:`image`, which computes ``p.E = {y | exists x in p: (x, y) in [[E]]}``
by an NFA-style reachability sweep without materializing the full relation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Set, Tuple

from repro.automata.nfa import thompson
from repro.automata.regex import Concat, Epsilon, Regex, Star, Sym, Union
from repro.caterpillar.rewrite import push_inversions
from repro.caterpillar.syntax import (
    EPSILON_NAME,
    CatAtom,
    CatConcat,
    CatExpr,
    CatStar,
    CatUnion,
    is_unary_relation,
)
from repro.trees.unranked import UnrankedStructure

Pair = Tuple[int, int]


def _atom_pairs(structure: UnrankedStructure, name: str, inverted: bool) -> Set[Pair]:
    if name == EPSILON_NAME:
        return {(v, v) for v in structure.domain}
    if is_unary_relation(name):
        return {(v, v) for (v,) in structure.relation(name)}
    pairs = {(a, b) for (a, b) in structure.relation(name)}
    if inverted:
        pairs = {(b, a) for (a, b) in pairs}
    return pairs


def _compose(left: Set[Pair], right: Set[Pair]) -> Set[Pair]:
    by_first: Dict[int, Set[int]] = {}
    for a, b in right:
        by_first.setdefault(a, set()).add(b)
    out: Set[Pair] = set()
    for a, b in left:
        for c in by_first.get(b, ()):
            out.add((a, c))
    return out


def _closure(pairs: Set[Pair], domain: Iterable[int]) -> Set[Pair]:
    # Reflexive-transitive closure by iterated squaring over adjacency sets.
    successors: Dict[int, Set[int]] = {v: {v} for v in domain}
    for a, b in pairs:
        successors.setdefault(a, {a}).add(b)
    changed = True
    while changed:
        changed = False
        for a, targets in successors.items():
            new = set()
            for b in targets:
                new |= successors.get(b, {b})
            if not new <= targets:
                targets |= new
                changed = True
    return {(a, b) for a, targets in successors.items() for b in targets}


def evaluate_caterpillar(
    expr: CatExpr, structure: UnrankedStructure
) -> FrozenSet[Pair]:
    """The full relation ``[[E]]`` (quadratic in the worst case)."""
    expr = push_inversions(expr)

    def ev(e: CatExpr) -> Set[Pair]:
        if isinstance(e, CatAtom):
            return _atom_pairs(structure, e.name, e.inverted)
        if isinstance(e, CatConcat):
            out = ev(e.parts[0])
            for part in e.parts[1:]:
                out = _compose(out, ev(part))
            return out
        if isinstance(e, CatUnion):
            out: Set[Pair] = set()
            for part in e.parts:
                out |= ev(part)
            return out
        if isinstance(e, CatStar):
            return _closure(ev(e.inner), structure.domain)
        raise TypeError(f"unknown caterpillar node {e!r}")

    return frozenset(ev(expr))


def to_word_regex(expr: CatExpr) -> Regex:
    """View an inverse-free caterpillar expression as a word regex whose
    symbols are ``(relation_name, inverted)`` pairs (unary filters become
    ``(name, False)``)."""
    expr = push_inversions(expr)

    def conv(e: CatExpr) -> Regex:
        if isinstance(e, CatAtom):
            if e.name == EPSILON_NAME:
                return Epsilon()
            return Sym((e.name, e.inverted))
        if isinstance(e, CatConcat):
            return Concat(tuple(conv(p) for p in e.parts))
        if isinstance(e, CatUnion):
            return Union(tuple(conv(p) for p in e.parts))
        if isinstance(e, CatStar):
            return Star(conv(e.inner))
        raise TypeError(f"unknown caterpillar node {e!r}")

    return conv(expr)


def image(
    expr: CatExpr, structure: UnrankedStructure, sources: Iterable[int]
) -> Set[int]:
    """``p.E``: nodes reachable from ``sources`` through ``[[E]]``.

    Runs the Thompson automaton of the expression as a product with the
    tree: a worklist over (automaton state, node) pairs -- the evaluation
    strategy underlying Lemma 5.9, linear in ``|E| * |tree|`` for
    fixed-degree relations.
    """
    nfa = thompson(to_word_regex(expr))

    # Relation successor maps, fetched lazily.
    forward: Dict[Tuple[str, bool], Dict[int, Set[int]]] = {}

    def successors(name: str, inverted: bool, node: int) -> Set[int]:
        key = (name, inverted)
        if key not in forward:
            table: Dict[int, Set[int]] = {}
            if is_unary_relation(name):
                for (v,) in structure.relation(name):
                    table.setdefault(v, set()).add(v)
            else:
                for a, b in structure.relation(name):
                    if inverted:
                        a, b = b, a
                    table.setdefault(a, set()).add(b)
            forward[key] = table
        return forward[key].get(node, set())

    start_states = nfa.epsilon_closure(nfa.start)
    agenda = [(q, v) for v in sources for q in start_states]
    seen = set(agenda)
    out: Set[int] = set()
    while agenda:
        state, node = agenda.pop()
        if state in nfa.accept:
            out.add(node)
        for (q, symbol), targets in nfa.transitions.items():
            if q != state:
                continue
            name, inverted = symbol
            for succ_node in successors(name, inverted, node):
                for target in targets:
                    for closed in nfa.epsilon_closure([target]):
                        item = (closed, succ_node)
                        if item not in seen:
                            seen.add(item)
                            agenda.append(item)
    return out
