"""Query containment machinery (Proposition 4.18, Corollaries 4.20, 5.12).

Containment of monadic datalog queries over trees is EXPTIME-hard
(Corollary 4.20) -- a lower bound, so no general efficient algorithm
exists.  This module provides the practically useful procedures:

* :func:`bounded_containment` -- exhaustive counterexample search over all
  trees up to a size bound (sound refutation; "no counterexample up to n"
  otherwise);
* :func:`automaton_query_containment` -- *exact* containment for queries
  presented as unary automata (e.g. compiled from MSO), via
  product/complement/emptiness on the marked alphabet;
* :func:`caterpillar_word_containment` -- the word-language containment
  test behind Corollary 5.12's PSPACE upper bound for unary caterpillar
  queries (containment of the path languages; sound for query containment
  whenever the expressions are path-deterministic -- see the docstring).
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.automata.nfa import language_subset, thompson
from repro.automata.treeauto import intersect, emptiness_witness_unranked
from repro.automata.unary import UnaryQueryDTA
from repro.caterpillar.evaluate import to_word_regex
from repro.caterpillar.syntax import CatExpr
from repro.datalog.engine import evaluate
from repro.datalog.program import Program
from repro.errors import DatalogError
from repro.trees.node import Node
from repro.trees.unranked import UnrankedStructure


def enumerate_trees(labels: Sequence[str], max_size: int) -> Iterator[Node]:
    """Enumerate all ordered labeled trees with up to ``max_size`` nodes.

    The number of shapes is the Catalan-like series times ``|labels|^n``;
    keep ``max_size`` small (<= 6 with two labels is ~10^4 trees).
    """

    def shapes(size: int) -> Iterator[Tuple]:
        # A shape is a tuple of child shapes.
        if size == 1:
            yield ()
            return
        # Split size-1 nodes among one or more children.
        for first in range(1, size):
            rest = size - 1 - first
            for first_shape in shapes(first):
                if rest == 0:
                    yield (first_shape,)
                else:
                    for tail in shapes_forest(rest):
                        yield (first_shape,) + tail

    def shapes_forest(size: int) -> Iterator[Tuple]:
        for first in range(1, size + 1):
            for first_shape in shapes(first):
                if size - first == 0:
                    yield (first_shape,)
                else:
                    for tail in shapes_forest(size - first):
                        yield (first_shape,) + tail

    def build(shape: Tuple, labeling: List[str], cursor: List[int]) -> Node:
        node = Node(labeling[cursor[0]])
        cursor[0] += 1
        for child_shape in shape:
            node.add_child(build(child_shape, labeling, cursor))
        return node

    def shape_size(shape: Tuple) -> int:
        return 1 + sum(shape_size(c) for c in shape)

    for size in range(1, max_size + 1):
        for shape in shapes(size):
            for labeling in iter_product(labels, repeat=size):
                yield build(shape, list(labeling), [0])


def bounded_containment(
    p1: Program,
    p2: Program,
    labels: Sequence[str] = ("a", "b"),
    max_size: int = 5,
) -> Tuple[bool, Optional[Node]]:
    """Search for a tree where ``p1``'s query selects a node ``p2``'s does
    not.  Returns ``(False, witness)`` or ``(True, None)`` meaning "no
    counterexample up to the bound" (NOT a proof of containment --
    Corollary 4.20 says no cheap proof exists in general)."""
    if p1.query is None or p2.query is None:
        raise DatalogError("both programs need query predicates")
    for tree in enumerate_trees(labels, max_size):
        structure = UnrankedStructure(tree)
        left = evaluate(p1, structure).query_result()
        if not left:
            continue
        right = evaluate(p2, structure).query_result()
        if not left <= right:
            return False, tree
    return True, None


def automaton_query_containment(
    q1: UnaryQueryDTA, q2: UnaryQueryDTA
) -> Tuple[bool, Optional[Node]]:
    """Exact containment of two automaton-presented unary queries.

    Both queries must share the mark variable and label alphabet.  The
    check is emptiness of ``L(A1) \\cap L(A2)^c`` over correctly marked
    encodings; the witness (if any) is the unranked tree whose marked node
    ``q1`` selects but ``q2`` does not (the mark is dropped in the
    returned witness).
    """
    if q1.var != q2.var:
        raise DatalogError("queries must share the mark variable")
    if q1.dta.alphabet != q2.dta.alphabet:
        raise DatalogError("queries must share the marked alphabet")
    difference = intersect(q1.dta, q2.dta.complement())
    witness = emptiness_witness_unranked(difference)
    if witness is None:
        return True, None
    # Drop marks from the witness labels.
    def strip(node: Node) -> Node:
        label = node.label[0] if isinstance(node.label, tuple) else node.label
        out = Node(label)
        for child in node.children:
            out.add_child(strip(child))
        return out

    return False, strip(witness)


def caterpillar_word_containment(
    e1: CatExpr, e2: CatExpr
) -> Tuple[bool, Optional[Tuple]]:
    """Containment of the *path languages* of two caterpillar expressions.

    This is the regular-expression containment at the heart of
    Corollary 5.12's PSPACE procedure.  Path-language containment implies
    query containment of ``root.E1 <= root.E2``; the converse can fail
    (different relation words may denote overlapping node pairs on actual
    trees), so a negative answer should be confirmed with
    :func:`bounded_containment` on the compiled programs -- the test suite
    demonstrates both directions.
    """
    n1 = thompson(to_word_regex(e1))
    n2 = thompson(to_word_regex(e2))
    return language_subset(n1, n2, alphabet=n1.alphabet | n2.alphabet)
