"""Ranked query automata (Definition 4.8).

A ranked query automaton is a two-way deterministic ranked tree automaton
with a selection function.  It walks a tree through *configurations*: maps
from a *cut* (an antichain meeting every root-to-leaf path) to states.
Four transition kinds move the cut:

* **down**  -- replace a node by its children (``(q, a) in D``);
* **up**    -- replace all children of a node by the node
  (``(q_i, a_i) in U`` for every child);
* **root**  -- rewrite the root's state when the cut is ``{root}``;
* **leaf**  -- rewrite a leaf's state (``(q, a) in D``).

The ``U``/``D`` partition of ``Q x Sigma`` makes at most one transition
applicable per node, so the run is deterministic up to irrelevant
interleaving.  The automaton *selects* node ``n`` whenever some
configuration of an accepting run assigns ``n`` a state ``q`` with
``lambda(q, label(n)) = 1``.

Runs can take superpolynomially many steps (Example 4.21);
:class:`RankedQARun` counts steps so the benchmark harness can exhibit the
blow-up against the linear-time datalog simulation of Theorem 4.11.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Set, Tuple

from repro.errors import QueryAutomatonError
from repro.trees.node import Node

State = Hashable
Label = str
Pair = Tuple[State, Label]


class RankedQA:
    """A ranked query automaton ``(Q, Sigma, F, s, d_up, d_down, d_root,
    d_leaf, selection)`` with the ``U``/``D`` partition given explicitly.

    Parameters
    ----------
    states / labels / final / start:
        The finite ingredients of Definition 4.8.
    up:
        ``d_up``: maps tuples of ``(state, label)`` pairs (one per child,
        left to right) to the parent's new state.
    down:
        ``d_down``: maps ``(state, label, arity)`` to the tuple of children
        states.
    root:
        ``d_root``: maps ``(state, label)`` to a state (applied only when
        the cut is exactly the root).
    leaf:
        ``d_leaf``: maps ``(state, label)`` to a state (applied to leaves).
    selection:
        The set of pairs ``(state, label)`` with ``lambda = 1``.
    up_pairs / down_pairs:
        The partition ``U`` / ``D`` of ``Q x Sigma``.
    """

    def __init__(
        self,
        states: Set[State],
        labels: Set[Label],
        final: Set[State],
        start: State,
        up: Dict[Tuple[Pair, ...], State],
        down: Dict[Tuple[State, Label, int], Tuple[State, ...]],
        root: Dict[Pair, State],
        leaf: Dict[Pair, State],
        selection: Set[Pair],
        up_pairs: Set[Pair],
        down_pairs: Set[Pair],
    ):
        self.states = set(states)
        self.labels = set(labels)
        self.final = set(final)
        self.start = start
        self.up = dict(up)
        self.down = dict(down)
        self.root = dict(root)
        self.leaf = dict(leaf)
        self.selection = set(selection)
        self.up_pairs = set(up_pairs)
        self.down_pairs = set(down_pairs)
        self._validate()

    def _validate(self) -> None:
        if self.start not in self.states:
            raise QueryAutomatonError("start state not in state set")
        if not self.final:
            raise QueryAutomatonError("final state set must be nonempty")
        if self.up_pairs & self.down_pairs:
            overlap = self.up_pairs & self.down_pairs
            raise QueryAutomatonError(f"U and D overlap: {overlap}")
        for pair in self.up_pairs | self.down_pairs:
            if pair[0] not in self.states or pair[1] not in self.labels:
                raise QueryAutomatonError(f"partition pair {pair} out of range")
        for key in self.down:
            if (key[0], key[1]) not in self.down_pairs:
                raise QueryAutomatonError(f"down transition on non-D pair {key}")
        for key in self.leaf:
            if key not in self.down_pairs:
                raise QueryAutomatonError(f"leaf transition on non-D pair {key}")
        for key in self.root:
            if key not in self.up_pairs:
                raise QueryAutomatonError(f"root transition on non-U pair {key}")
        for key in self.up:
            for pair in key:
                if pair not in self.up_pairs:
                    raise QueryAutomatonError(f"up transition uses non-U pair {pair}")

    def classify(self, state: State, label: Label) -> str:
        """``"U"`` or ``"D"`` for the given pair."""
        if (state, label) in self.up_pairs:
            return "U"
        if (state, label) in self.down_pairs:
            return "D"
        raise QueryAutomatonError(f"pair ({state!r}, {label!r}) unclassified")

    def run(
        self,
        tree: Node,
        max_steps: int = 10_000_000,
        trace: bool = False,
    ) -> "RankedQARun":
        """Execute the automaton on ``tree`` (see :class:`RankedQARun`)."""
        return RankedQARun(self, tree, max_steps=max_steps, trace=trace)


class RankedQARun:
    """One (the) run of a :class:`RankedQA` on a tree.

    Attributes
    ----------
    accepted:
        Whether the run is accepting (terminal configuration maps the root
        to a final state).
    selected:
        Nodes selected by the run (empty unless accepting).
    steps:
        Number of transitions performed (Example 4.21's cost measure).
    trace:
        When requested, the list of configurations as ``{node: state}``
        dictionaries (Example 4.9's c0..c4).
    """

    def __init__(self, qa: RankedQA, tree: Node, max_steps: int, trace: bool):
        self.qa = qa
        self.tree = tree
        self.steps = 0
        self.trace: List[Dict[int, State]] = []
        self._node_by_id: Dict[int, Node] = {id(n): n for n in tree.iter_subtree()}

        cut: Dict[int, State] = {id(tree): qa.start}
        selected_raw: Set[int] = set()

        def note_selection(node: Node, state: State) -> None:
            if (state, node.label) in qa.selection:
                selected_raw.add(id(node))

        note_selection(tree, qa.start)
        if trace:
            self.trace.append(dict(cut))

        # FIFO scheduling visits nodes in the paper's document-order style
        # (Example 4.9's c0..c4 trace); the selected set and acceptance are
        # scheduling-independent by determinism (Definition 4.8).
        from collections import deque

        agenda = deque([tree])
        while agenda:
            if self.steps > max_steps:
                raise QueryAutomatonError(
                    f"run exceeded {max_steps} steps (non-terminating automaton?)"
                )
            node = agenda.popleft()
            if id(node) not in cut:
                continue
            state = cut[id(node)]
            label = node.label
            kind = qa.classify(state, label)
            if kind == "D":
                if node.is_leaf:
                    new_state = qa.leaf.get((state, label))
                    if new_state is None:
                        continue
                    cut[id(node)] = new_state
                    note_selection(node, new_state)
                    self._bump(trace, cut)
                    agenda.append(node)
                else:
                    children_states = qa.down.get((state, label, len(node.children)))
                    if children_states is None:
                        continue
                    del cut[id(node)]
                    for child, child_state in zip(node.children, children_states):
                        cut[id(child)] = child_state
                        note_selection(child, child_state)
                        agenda.append(child)
                    self._bump(trace, cut)
            else:  # U
                if node.parent is None:
                    if len(cut) == 1:
                        new_state = qa.root.get((state, label))
                        if new_state is None:
                            continue
                        cut[id(node)] = new_state
                        note_selection(node, new_state)
                        self._bump(trace, cut)
                        agenda.append(node)
                    continue
                parent = node.parent
                word: List[Pair] = []
                ready = True
                for sibling in parent.children:
                    sibling_state = cut.get(id(sibling))
                    if sibling_state is None:
                        ready = False
                        break
                    pair = (sibling_state, sibling.label)
                    if pair not in qa.up_pairs:
                        ready = False
                        break
                    word.append(pair)
                if not ready:
                    continue
                new_state = qa.up.get(tuple(word))
                if new_state is None:
                    continue
                for sibling in parent.children:
                    del cut[id(sibling)]
                cut[id(parent)] = new_state
                note_selection(parent, new_state)
                self._bump(trace, cut)
                agenda.append(parent)

        root_state = cut.get(id(tree))
        self.final_cut = cut
        self.accepted = root_state is not None and root_state in qa.final
        if self.accepted:
            self.selected: Set[Node] = {self._node_by_id[i] for i in selected_raw}
        else:
            self.selected = set()

    def _bump(self, trace: bool, cut: Dict[int, State]) -> None:
        self.steps += 1
        if trace:
            self.trace.append(dict(cut))

    def trace_states(self) -> List[Dict[Node, State]]:
        """The trace with :class:`Node` keys (for readable assertions)."""
        return [
            {self._node_by_id[i]: s for i, s in config.items()} for config in self.trace
        ]
