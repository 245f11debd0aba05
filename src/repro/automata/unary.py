"""Unary queries presented by deterministic tree automata.

A unary query (an *information extraction function*) can be presented by a
DTA over the marked alphabet ``(label, {}) | (label, {x})``: node ``v`` is
selected in tree ``t`` iff the automaton accepts ``t`` with ``v`` (and only
``v``) marked.

:class:`UnaryQueryDTA` evaluates such queries for *all* nodes simultaneously
in linear time with the classical two-pass algorithm:

1. bottom-up, compute the state ``s0(u)`` of every binary subtree with all
   marks off;
2. top-down, compute the *acceptance set* ``Acc(u)``: the states ``q`` such
   that the whole tree is accepted if the subtree at ``u`` evaluates to
   ``q`` (everything outside ``u`` unmarked);
3. ``v`` is selected iff its own marked transition, applied to its
   children's unmarked states, lands in ``Acc(v)``.

Because marking ``v`` changes only ``v``'s transition, this is exact.  The
same decomposition drives the monadic datalog program emitted by
:mod:`repro.automata.dta_to_datalog` (Theorem 4.4's constructive content).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.automata.treeauto import DTA
from repro.errors import AutomatonError
from repro.trees.binary import encode_binary
from repro.trees.node import Node
from repro.trees.unranked import UnrankedStructure

MarkedSymbol = Tuple[str, FrozenSet[str]]


def marked_alphabet(labels, var: str) -> Set[MarkedSymbol]:
    """The alphabet ``{(l, {}), (l, {var})}`` for the given labels."""
    out: Set[MarkedSymbol] = set()
    for label in labels:
        out.add((label, frozenset()))
        out.add((label, frozenset([var])))
    return out


class UnaryQueryDTA:
    """A unary query given by a DTA over a singly-marked alphabet.

    Parameters
    ----------
    dta:
        Total DTA whose alphabet consists of pairs ``(label, marks)`` with
        ``marks`` either empty or ``{var}``.
    var:
        The mark (free first-order variable) name.
    """

    def __init__(self, dta: DTA, var: str):
        self.dta = dta
        self.var = var
        self.labels: Set[str] = set()
        for symbol in dta.alphabet:
            if not (isinstance(symbol, tuple) and len(symbol) == 2):
                raise AutomatonError("unary-query DTA alphabet must be (label, marks)")
            label, marks = symbol
            if marks not in (frozenset(), frozenset([var])):
                raise AutomatonError(
                    f"unexpected mark set {set(marks)!r} for variable {var!r}"
                )
            self.labels.add(label)

    def _unmarked(self, label: str) -> MarkedSymbol:
        return (label, frozenset())

    def _marked(self, label: str) -> MarkedSymbol:
        return (label, frozenset([self.var]))

    def _check_label(self, label: str) -> None:
        if label not in self.labels:
            raise AutomatonError(
                f"tree label {label!r} outside the automaton alphabet"
            )

    def select(self, root: Node) -> List[Node]:
        """All selected nodes of ``root``'s tree, in document order."""
        binary = encode_binary(root)
        dta = self.dta
        empty = dta.empty_state

        for node in binary.iter_preorder():
            self._check_label(node.label)

        # Pass 1: unmarked states, bottom-up.
        state: Dict[int, int] = {}
        for node in binary.iter_postorder():
            ql = state[id(node.left)] if node.left is not None else empty
            qr = state[id(node.right)] if node.right is not None else empty
            state[id(node)] = dta.step(self._unmarked(node.label), ql, qr)

        # Pass 2: acceptance sets, top-down.
        acc: Dict[int, Set[int]] = {id(binary): set(dta.accept)}
        order = list(binary.iter_preorder())
        for node in order:
            node_acc = acc[id(node)]
            symbol = self._unmarked(node.label)
            ql = state[id(node.left)] if node.left is not None else empty
            qr = state[id(node.right)] if node.right is not None else empty
            if node.left is not None:
                acc[id(node.left)] = {
                    q for q in range(dta.num_states)
                    if dta.step(symbol, q, qr) in node_acc
                }
            if node.right is not None:
                acc[id(node.right)] = {
                    q for q in range(dta.num_states)
                    if dta.step(symbol, ql, q) in node_acc
                }

        # Pass 3: marked transitions against acceptance sets.
        selected: List[Node] = []
        for node in order:
            ql = state[id(node.left)] if node.left is not None else empty
            qr = state[id(node.right)] if node.right is not None else empty
            marked_state = dta.step(self._marked(node.label), ql, qr)
            if marked_state in acc[id(node)]:
                if node.origin is None:
                    raise AutomatonError("binary encoding lost origin pointers")
                selected.append(node.origin)
        return selected

    def select_ids(self, structure: UnrankedStructure) -> Set[int]:
        """Selected node identifiers over an :class:`UnrankedStructure`."""
        return {structure.ident(n) for n in self.select(structure.root_node)}

    def accepts_marked(self, root: Node, target: Node) -> bool:
        """Direct check: is the tree with exactly ``target`` marked accepted?

        Quadratic if called for every node; used by tests to validate the
        two-pass algorithm.
        """
        binary = encode_binary(root)
        state: Dict[int, int] = {}
        for node in binary.iter_postorder():
            self._check_label(node.label)
            ql = state[id(node.left)] if node.left is not None else self.dta.empty_state
            qr = state[id(node.right)] if node.right is not None else self.dta.empty_state
            if node.origin is target:
                symbol = self._marked(node.label)
            else:
                symbol = self._unmarked(node.label)
            state[id(node)] = self.dta.step(symbol, ql, qr)
        return state[id(binary)] in self.dta.accept
