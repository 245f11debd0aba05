"""Word automata: NFAs with epsilon moves and total DFAs.

Provides the Thompson construction from :mod:`repro.automata.regex`
expressions (linear time, as required by Lemma 5.9), the subset
construction, boolean operations and the language-containment test used by
Corollary 5.12 (caterpillar query containment is PSPACE-complete; the
complement-product-emptiness routine below is the standard upper-bound
procedure).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.automata.regex import Concat, Empty, Epsilon, Regex, Star, Sym, Union
from repro.errors import AutomatonError

Symbol = Hashable


class NFA:
    """A nondeterministic finite automaton with epsilon transitions.

    States are integers.  ``transitions`` maps ``(state, symbol)`` to a set
    of successor states; ``epsilon`` maps a state to a set of
    epsilon-successors.
    """

    def __init__(
        self,
        num_states: int,
        alphabet: Iterable[Symbol],
        transitions: Dict[Tuple[int, Symbol], Set[int]],
        epsilon: Dict[int, Set[int]],
        start: Set[int],
        accept: Set[int],
    ):
        self.num_states = num_states
        self.alphabet: FrozenSet[Symbol] = frozenset(alphabet)
        self.transitions = transitions
        self.epsilon = epsilon
        self.start = set(start)
        self.accept = set(accept)

    # -- execution ----------------------------------------------------------

    def epsilon_closure(self, states: Iterable[int]) -> FrozenSet[int]:
        """The epsilon closure of a set of states."""
        closure = set(states)
        stack = list(closure)
        while stack:
            state = stack.pop()
            for successor in self.epsilon.get(state, ()):
                if successor not in closure:
                    closure.add(successor)
                    stack.append(successor)
        return frozenset(closure)

    def step(self, states: Iterable[int], symbol: Symbol) -> FrozenSet[int]:
        """One symbol step (including closing under epsilon moves)."""
        moved: Set[int] = set()
        for state in states:
            moved |= self.transitions.get((state, symbol), set())
        return self.epsilon_closure(moved)

    def accepts(self, word: Sequence[Symbol]) -> bool:
        """Whether the automaton accepts ``word``."""
        states = self.epsilon_closure(self.start)
        for symbol in word:
            states = self.step(states, symbol)
            if not states:
                return False
        return bool(states & self.accept)

    # -- construction -------------------------------------------------------

    def determinize(self, alphabet: Optional[Iterable[Symbol]] = None) -> "DFA":
        """Subset construction; the result is total over ``alphabet``."""
        sigma = frozenset(alphabet) if alphabet is not None else self.alphabet
        start = self.epsilon_closure(self.start)
        index: Dict[FrozenSet[int], int] = {start: 0}
        worklist: List[FrozenSet[int]] = [start]
        transitions: Dict[Tuple[int, Symbol], int] = {}
        while worklist:
            subset = worklist.pop()
            source = index[subset]
            for symbol in sigma:
                target = self.step(subset, symbol)
                if target not in index:
                    index[target] = len(index)
                    worklist.append(target)
                transitions[(source, symbol)] = index[target]
        accept = {i for subset, i in index.items() if subset & self.accept}
        return DFA(len(index), sigma, transitions, 0, accept)


class DFA:
    """A deterministic finite automaton, total over its alphabet."""

    def __init__(
        self,
        num_states: int,
        alphabet: Iterable[Symbol],
        transitions: Dict[Tuple[int, Symbol], int],
        start: int,
        accept: Set[int],
    ):
        self.num_states = num_states
        self.alphabet: FrozenSet[Symbol] = frozenset(alphabet)
        self.transitions = transitions
        self.start = start
        self.accept = set(accept)
        for state in range(num_states):
            for symbol in self.alphabet:
                if (state, symbol) not in transitions:
                    raise AutomatonError(
                        f"DFA transition function not total: missing "
                        f"({state}, {symbol!r})"
                    )

    def accepts(self, word: Sequence[Symbol]) -> bool:
        """Whether the DFA accepts ``word``."""
        state = self.start
        for symbol in word:
            if symbol not in self.alphabet:
                return False
            state = self.transitions[(state, symbol)]
        return state in self.accept

    def complement(self) -> "DFA":
        """The DFA for the complement language (same alphabet)."""
        accept = set(range(self.num_states)) - self.accept
        return DFA(self.num_states, self.alphabet, dict(self.transitions), self.start, accept)

    def product(self, other: "DFA", mode: str = "and") -> "DFA":
        """Product automaton; ``mode`` is ``"and"`` or ``"or"``."""
        if self.alphabet != other.alphabet:
            raise AutomatonError("product requires identical alphabets")
        index: Dict[Tuple[int, int], int] = {}
        transitions: Dict[Tuple[int, Symbol], int] = {}
        worklist = [(self.start, other.start)]
        index[(self.start, other.start)] = 0
        while worklist:
            pair = worklist.pop()
            source = index[pair]
            for symbol in self.alphabet:
                target = (
                    self.transitions[(pair[0], symbol)],
                    other.transitions[(pair[1], symbol)],
                )
                if target not in index:
                    index[target] = len(index)
                    worklist.append(target)
                transitions[(source, symbol)] = index[target]
        accept = set()
        for (a, b), i in index.items():
            in_a = a in self.accept
            in_b = b in other.accept
            if (mode == "and" and in_a and in_b) or (mode == "or" and (in_a or in_b)):
                accept.add(i)
        return DFA(len(index), self.alphabet, transitions, 0, accept)

    def is_empty(self) -> bool:
        """Whether the accepted language is empty."""
        return self.shortest_accepted() is None

    def shortest_accepted(self) -> Optional[Tuple[Symbol, ...]]:
        """A shortest accepted word, or ``None`` if the language is empty."""
        if self.start in self.accept:
            return ()
        visited = {self.start}
        frontier: List[Tuple[int, Tuple[Symbol, ...]]] = [(self.start, ())]
        while frontier:
            next_frontier = []
            for state, word in frontier:
                for symbol in sorted(self.alphabet, key=repr):
                    target = self.transitions[(state, symbol)]
                    if target in visited:
                        continue
                    visited.add(target)
                    extended = word + (symbol,)
                    if target in self.accept:
                        return extended
                    next_frontier.append((target, extended))
            frontier = next_frontier
        return None


def thompson(expr: Regex, alphabet: Optional[Iterable[Symbol]] = None) -> NFA:
    """Thompson construction: regex -> epsilon-NFA in linear time.

    The automaton has a single start and a single accept state, as used by
    the Lemma 5.9 encoding of caterpillar expressions into TMNF rules.
    """
    transitions: Dict[Tuple[int, Symbol], Set[int]] = {}
    epsilon: Dict[int, Set[int]] = {}
    counter = [0]

    def fresh() -> int:
        counter[0] += 1
        return counter[0] - 1

    def add_eps(a: int, b: int) -> None:
        epsilon.setdefault(a, set()).add(b)

    def build(e: Regex) -> Tuple[int, int]:
        if isinstance(e, Empty):
            return fresh(), fresh()
        if isinstance(e, Epsilon):
            a, b = fresh(), fresh()
            add_eps(a, b)
            return a, b
        if isinstance(e, Sym):
            a, b = fresh(), fresh()
            transitions.setdefault((a, e.symbol), set()).add(b)
            return a, b
        if isinstance(e, Concat):
            first_in, prev_out = build(e.parts[0])
            for part in e.parts[1:]:
                part_in, part_out = build(part)
                add_eps(prev_out, part_in)
                prev_out = part_out
            return first_in, prev_out
        if isinstance(e, Union):
            a, b = fresh(), fresh()
            for part in e.parts:
                part_in, part_out = build(part)
                add_eps(a, part_in)
                add_eps(part_out, b)
            return a, b
        if isinstance(e, Star):
            a, b = fresh(), fresh()
            inner_in, inner_out = build(e.inner)
            add_eps(a, inner_in)
            add_eps(inner_out, b)
            add_eps(a, b)
            add_eps(inner_out, inner_in)
            return a, b
        raise AutomatonError(f"unknown regex node {e!r}")

    start, end = build(expr)
    sigma = set(expr.symbols())
    if alphabet is not None:
        sigma |= set(alphabet)
    return NFA(counter[0], sigma, transitions, epsilon, {start}, {end})


def nfa_from_words(words: Iterable[Sequence[Symbol]], alphabet: Iterable[Symbol]) -> NFA:
    """An NFA accepting exactly the given finite set of words (for tests)."""
    transitions: Dict[Tuple[int, Symbol], Set[int]] = {}
    accept: Set[int] = set()
    counter = [1]
    for word_ in words:
        state = 0
        for symbol in word_:
            target = counter[0]
            counter[0] += 1
            transitions.setdefault((state, symbol), set()).add(target)
            state = target
        accept.add(state)
    return NFA(counter[0], alphabet, transitions, {}, {0}, accept)


def language_subset(
    a: NFA | DFA, b: NFA | DFA, alphabet: Optional[Iterable[Symbol]] = None
) -> Tuple[bool, Optional[Tuple[Symbol, ...]]]:
    """Decide ``L(a) <= L(b)``; on failure return a witness word.

    Returns ``(True, None)`` or ``(False, witness)`` where ``witness`` is a
    shortest word in ``L(a) - L(b)``.
    """
    sigma = set(alphabet or [])
    for machine in (a, b):
        sigma |= set(machine.alphabet)
    dfa_a = a if isinstance(a, DFA) else a.determinize(sigma)
    dfa_b = b if isinstance(b, DFA) else b.determinize(sigma)
    if isinstance(a, DFA) and a.alphabet != frozenset(sigma):
        dfa_a = _extend_alphabet(a, sigma)
    if isinstance(b, DFA) and b.alphabet != frozenset(sigma):
        dfa_b = _extend_alphabet(b, sigma)
    difference = dfa_a.product(dfa_b.complement(), mode="and")
    witness = difference.shortest_accepted()
    return (witness is None), witness


def language_equal(
    a: NFA | DFA, b: NFA | DFA, alphabet: Optional[Iterable[Symbol]] = None
) -> bool:
    """Decide ``L(a) = L(b)``."""
    left, _ = language_subset(a, b, alphabet)
    right, _ = language_subset(b, a, alphabet)
    return left and right


def _extend_alphabet(dfa: DFA, alphabet: Set[Symbol]) -> DFA:
    """Totalize a DFA over a larger alphabet with a fresh sink state."""
    sink = dfa.num_states
    transitions = dict(dfa.transitions)
    for state in range(dfa.num_states + 1):
        for symbol in alphabet:
            transitions.setdefault((state, symbol), sink)
    return DFA(dfa.num_states + 1, alphabet, transitions, dfa.start, set(dfa.accept))


def distinguishable_prefixes(
    oracle, prefixes: List[Sequence[Symbol]], suffixes: List[Sequence[Symbol]]
) -> int:
    """Count pairwise-distinguishable prefixes under a language oracle.

    ``oracle(word) -> bool`` decides membership.  Two prefixes ``u, v`` are
    distinguishable when some suffix ``s`` has ``oracle(u + s) !=
    oracle(v + s)``.  By Myhill-Nerode, a regular language has only finitely
    many pairwise-distinguishable prefixes; Theorem 6.6's ``a^n b^n``
    demonstration uses this to exhibit non-regularity computationally.
    """
    signatures = set()
    for prefix in prefixes:
        signature = tuple(oracle(tuple(prefix) + tuple(suffix)) for suffix in suffixes)
        signatures.add(signature)
    return len(signatures)
