"""Bottom-up tree automata over the firstchild/nextsibling binary encoding.

The regular tree languages (ranked and unranked, Proposition 2.1) are
handled uniformly by running bottom-up automata on the binary encoding of
Figure 1: the left child of a binary node encodes "first child", the right
child encodes "next sibling", and missing children are modeled by a
distinguished *empty* state.

* :class:`NTA` -- nondeterministic bottom-up automata (used as the output of
  projection when compiling MSO quantifiers);
* :class:`DTA` -- deterministic, total bottom-up automata (closed under
  product and complement; produced by the subset construction);
* :func:`emptiness_witness` -- linear emptiness test returning a smallest
  witness tree, the engine behind exact containment checks for
  automaton-presented queries.

Alphabet symbols are arbitrary hashable values; the MSO compiler uses pairs
``(label, frozenset_of_marks)``.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

from repro.errors import AutomatonError
from repro.trees.binary import BinNode, encode_binary
from repro.trees.node import Node

Symbol = Hashable
State = Hashable

#: Safety cap on determinization output (states), configurable per call.
DEFAULT_MAX_STATES = 4000


class NTA:
    """A nondeterministic bottom-up automaton on binary encodings.

    ``delta`` maps ``(symbol, q_left, q_right)`` to a set of states; the run
    of a missing child is any state in ``empty_states``.  A tree is accepted
    when the run set of its root meets ``accept``.
    """

    def __init__(
        self,
        alphabet: Iterable[Symbol],
        empty_states: Iterable[State],
        delta: Dict[Tuple[Symbol, State, State], Set[State]],
        accept: Iterable[State],
    ):
        self.alphabet: FrozenSet[Symbol] = frozenset(alphabet)
        self.empty_states: FrozenSet[State] = frozenset(empty_states)
        self.delta = {key: frozenset(value) for key, value in delta.items()}
        self.accept: FrozenSet[State] = frozenset(accept)

    def states(self) -> FrozenSet[State]:
        """All states mentioned by the automaton."""
        out: Set[State] = set(self.empty_states) | set(self.accept)
        for (_, ql, qr), targets in self.delta.items():
            out.add(ql)
            out.add(qr)
            out |= targets
        return frozenset(out)

    def run(self, root: Optional[BinNode]) -> FrozenSet[State]:
        """The set of states reachable at ``root`` (empty tree -> empty states)."""
        if root is None:
            return self.empty_states
        result: Dict[int, FrozenSet[State]] = {}
        for node in root.iter_postorder():
            left = result[id(node.left)] if node.left is not None else self.empty_states
            right = result[id(node.right)] if node.right is not None else self.empty_states
            states: Set[State] = set()
            for ql in left:
                for qr in right:
                    states |= self.delta.get((node.label, ql, qr), frozenset())
            result[id(node)] = frozenset(states)
        return result[id(root)]

    def accepts(self, tree: Node | BinNode) -> bool:
        """Whether the automaton accepts the (binary encoding of the) tree."""
        root = encode_binary(tree) if isinstance(tree, Node) else tree
        return bool(self.run(root) & self.accept)

    def relabel(self, mapping: Callable[[Symbol], Symbol]) -> "NTA":
        """Apply an alphabet projection (used for MSO quantifier elimination).

        The result reads symbol ``mapping(s)`` wherever this automaton read
        ``s``; several source symbols may collapse onto one target symbol,
        which is exactly the nondeterministic projection.
        """
        delta: Dict[Tuple[Symbol, State, State], Set[State]] = {}
        for (symbol, ql, qr), targets in self.delta.items():
            key = (mapping(symbol), ql, qr)
            delta.setdefault(key, set()).update(targets)
        alphabet = {mapping(s) for s in self.alphabet}
        return NTA(alphabet, self.empty_states, delta, self.accept)

    def determinize(self, max_states: int = DEFAULT_MAX_STATES) -> "DTA":
        """Subset construction producing a total :class:`DTA`.

        Only subsets realizable by some tree context are constructed; the
        transition table is complete over all pairs of constructed subsets,
        which keeps complementation sound.
        """
        empty = frozenset(self.empty_states)
        index: Dict[FrozenSet[State], int] = {empty: 0}
        found: List[FrozenSet[State]] = [empty]
        table: Dict[Tuple[Symbol, int, int], int] = {}
        queue: List[FrozenSet[State]] = [empty]
        while queue:
            subset = queue.pop()
            for other in list(found):
                for left, right in ((subset, other), (other, subset)):
                    li, ri = index[left], index[right]
                    for symbol in self.alphabet:
                        if (symbol, li, ri) in table:
                            continue
                        target: Set[State] = set()
                        for ql in left:
                            for qr in right:
                                target |= self.delta.get((symbol, ql, qr), frozenset())
                        frozen = frozenset(target)
                        if frozen not in index:
                            if len(index) >= max_states:
                                raise AutomatonError(
                                    f"determinization exceeded {max_states} states"
                                )
                            index[frozen] = len(index)
                            found.append(frozen)
                            queue.append(frozen)
                        table[(symbol, li, ri)] = index[frozen]
        accept = {i for subset, i in index.items() if subset & self.accept}
        return DTA(len(index), self.alphabet, 0, table, accept)


class DTA:
    """A deterministic, *total* bottom-up automaton on binary encodings.

    States are integers ``0..num_states-1``; ``empty_state`` is the run
    value of a missing child; ``delta`` is total over
    ``alphabet x states x states``.
    """

    def __init__(
        self,
        num_states: int,
        alphabet: Iterable[Symbol],
        empty_state: int,
        delta: Dict[Tuple[Symbol, int, int], int],
        accept: Iterable[int],
    ):
        self.num_states = num_states
        self.alphabet: FrozenSet[Symbol] = frozenset(alphabet)
        self.empty_state = empty_state
        self.delta = delta
        self.accept: FrozenSet[int] = frozenset(accept)

    def step(self, symbol: Symbol, ql: int, qr: int) -> int:
        """One bottom-up transition."""
        try:
            return self.delta[(symbol, ql, qr)]
        except KeyError:
            raise AutomatonError(
                f"missing transition ({symbol!r}, {ql}, {qr})"
            ) from None

    def run_states(self, root: Optional[BinNode]) -> Dict[int, int]:
        """Map ``id(bin_node) -> state`` for the whole subtree."""
        result: Dict[int, int] = {}
        if root is None:
            return result
        for node in root.iter_postorder():
            ql = result[id(node.left)] if node.left is not None else self.empty_state
            qr = result[id(node.right)] if node.right is not None else self.empty_state
            result[id(node)] = self.step(node.label, ql, qr)
        return result

    def run(self, root: Optional[BinNode]) -> int:
        """The state of the (possibly empty) tree."""
        if root is None:
            return self.empty_state
        return self.run_states(root)[id(root)]

    def accepts(self, tree: Node | BinNode) -> bool:
        """Whether the automaton accepts the (binary encoding of the) tree."""
        root = encode_binary(tree) if isinstance(tree, Node) else tree
        return self.run(root) in self.accept

    def complement(self) -> "DTA":
        """Accept exactly the trees this automaton rejects."""
        accept = set(range(self.num_states)) - set(self.accept)
        return DTA(self.num_states, self.alphabet, self.empty_state, dict(self.delta), accept)

    def to_nta(self) -> NTA:
        """View this DTA as an NTA (e.g. before a projection)."""
        delta: Dict[Tuple[Symbol, State, State], Set[State]] = {
            key: {value} for key, value in self.delta.items()
        }
        return NTA(self.alphabet, {self.empty_state}, delta, self.accept)

    def minimize(self) -> "DTA":
        """Minimize by partition refinement (Myhill-Nerode for trees).

        Two states are equivalent when no context distinguishes them;
        refinement splits classes until, for every symbol and every
        co-argument class, transitions from one class land in one class.
        Restricting first to reachable states keeps the result canonical.
        """
        reachable = sorted(self.reachable_states())
        index_of = {q: i for i, q in enumerate(reachable)}
        # Initial partition: accepting vs not.
        cls: Dict[int, int] = {
            q: (1 if q in self.accept else 0) for q in reachable
        }
        while True:
            signature: Dict[int, Tuple] = {}
            for q in reachable:
                rows = []
                for symbol in sorted(self.alphabet, key=repr):
                    for r in reachable:
                        rows.append(cls[self.step(symbol, q, r)])
                        rows.append(cls[self.step(symbol, r, q)])
                signature[q] = (cls[q], tuple(rows))
            groups: Dict[Tuple, int] = {}
            new_cls: Dict[int, int] = {}
            for q in reachable:
                sig = signature[q]
                if sig not in groups:
                    groups[sig] = len(groups)
                new_cls[q] = groups[sig]
            if len(set(new_cls.values())) == len(set(cls.values())):
                cls = new_cls
                break
            cls = new_cls
        num = len(set(cls.values()))
        delta: Dict[Tuple[Symbol, int, int], int] = {}
        for symbol in self.alphabet:
            for ql in reachable:
                for qr in reachable:
                    delta[(symbol, cls[ql], cls[qr])] = cls[
                        self.step(symbol, ql, qr)
                    ]
        accept = {cls[q] for q in reachable if q in self.accept}
        return DTA(num, self.alphabet, cls[self.empty_state], delta, accept)

    def reachable_states(self) -> Set[int]:
        """States realized by some (possibly empty) tree."""
        reached = {self.empty_state}
        changed = True
        while changed:
            changed = False
            for (symbol, ql, qr), target in self.delta.items():
                if ql in reached and qr in reached and target not in reached:
                    reached.add(target)
                    changed = True
        return reached


def product(
    a: DTA, b: DTA, combine: Callable[[bool, bool], bool]
) -> DTA:
    """Product of two DTAs over the same alphabet.

    ``combine`` decides acceptance from the two components' acceptance
    (e.g. ``lambda x, y: x and y`` for intersection).  Only pairs reachable
    from the empty pair are constructed; the table is complete over those.
    """
    if a.alphabet != b.alphabet:
        raise AutomatonError(
            f"product requires identical alphabets "
            f"({len(a.alphabet)} vs {len(b.alphabet)} symbols)"
        )
    start = (a.empty_state, b.empty_state)
    index: Dict[Tuple[int, int], int] = {start: 0}
    found: List[Tuple[int, int]] = [start]
    table: Dict[Tuple[Symbol, int, int], int] = {}
    queue = [start]
    while queue:
        pair = queue.pop()
        for other in list(found):
            for left, right in ((pair, other), (other, pair)):
                li, ri = index[left], index[right]
                for symbol in a.alphabet:
                    if (symbol, li, ri) in table:
                        continue
                    target = (
                        a.step(symbol, left[0], right[0]),
                        b.step(symbol, left[1], right[1]),
                    )
                    if target not in index:
                        index[target] = len(index)
                        found.append(target)
                        queue.append(target)
                    table[(symbol, li, ri)] = index[target]
    accept = {
        i
        for (qa, qb), i in index.items()
        if combine(qa in a.accept, qb in b.accept)
    }
    return DTA(len(index), a.alphabet, 0, table, accept)


def intersect(a: DTA, b: DTA) -> DTA:
    """Intersection product."""
    return product(a, b, lambda x, y: x and y)


def union_dta(a: DTA, b: DTA) -> DTA:
    """Union product."""
    return product(a, b, lambda x, y: x or y)


def complement(a: DTA) -> DTA:
    """Complement (total DTAs only)."""
    return a.complement()


def emptiness_witness(automaton: NTA | DTA) -> Optional[BinNode]:
    """A smallest-ish witness tree in the automaton's language, or ``None``.

    Runs the standard least-fixpoint reachability over the transition
    relation, keeping one witness subtree per state.  The returned tree is a
    :class:`BinNode`; use :func:`repro.trees.decode_binary` to obtain the
    unranked original (after checking the root has no right child -- the
    witness search below only returns encodings of real trees when asked
    via :func:`emptiness_witness_unranked`).
    """
    nta = automaton.to_nta() if isinstance(automaton, DTA) else automaton
    witness: Dict[State, Optional[BinNode]] = {q: None for q in nta.empty_states}
    changed = True
    while changed:
        changed = False
        for (symbol, ql, qr), targets in nta.delta.items():
            if ql not in witness or qr not in witness:
                continue
            for target in targets:
                if target in witness:
                    continue
                witness[target] = BinNode(symbol, left=witness[ql], right=witness[qr])
                changed = True
    for q in nta.accept:
        if q in witness and witness[q] is not None:
            return witness[q]
    return None


def emptiness_witness_unranked(automaton: NTA | DTA) -> Optional[Node]:
    """A witness *unranked* tree whose binary encoding is accepted.

    Restricts the search to encodings whose root has no right child (i.e.
    genuine encodings of unranked trees).  Implemented by intersecting with
    nothing: we simply search for a witness among trees of the form
    ``BinNode(label, left, None)``.
    """
    nta = automaton.to_nta() if isinstance(automaton, DTA) else automaton
    witness: Dict[State, Optional[BinNode]] = {q: None for q in nta.empty_states}
    changed = True
    while changed:
        changed = False
        for (symbol, ql, qr), targets in nta.delta.items():
            if ql not in witness or qr not in witness:
                continue
            for target in targets:
                if target in witness:
                    continue
                witness[target] = BinNode(symbol, left=witness[ql], right=witness[qr])
                changed = True
    # A genuine encoding: root transition with the right child empty.
    for (symbol, ql, qr), targets in nta.delta.items():
        if ql in witness and qr in nta.empty_states:
            if targets & nta.accept:
                from repro.trees.binary import decode_binary

                return decode_binary(BinNode(symbol, left=witness[ql], right=None))
    return None


def tree_language_subset(a: DTA, b: DTA) -> Tuple[bool, Optional[Node]]:
    """Decide ``L(a) <= L(b)`` over unranked trees; witness on failure.

    Both automata must share an alphabet.  Returns ``(True, None)`` or
    ``(False, tree)`` with an unranked counterexample tree.
    """
    difference = intersect(a, b.complement())
    witness = emptiness_witness_unranked(difference)
    return (witness is None), witness


def dta_from_step(
    alphabet: Iterable[Symbol],
    num_states: int,
    empty_state: int,
    step: Callable[[Symbol, int, int], int],
    accept: Iterable[int],
) -> DTA:
    """Build a total DTA by tabulating a transition function.

    The hand-written atomic automata of the MSO compiler use this helper;
    the full ``alphabet x states^2`` table is enumerated eagerly, which keeps
    later products and complements straightforward.
    """
    sigma = frozenset(alphabet)
    delta: Dict[Tuple[Symbol, int, int], int] = {}
    for symbol in sigma:
        for ql in range(num_states):
            for qr in range(num_states):
                target = step(symbol, ql, qr)
                if not 0 <= target < num_states:
                    raise AutomatonError(f"step function returned bad state {target}")
                delta[(symbol, ql, qr)] = target
    return DTA(num_states, sigma, empty_state, delta, accept)
