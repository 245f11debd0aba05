"""Theorems 4.11 / 4.14: query automata to monadic datalog.

Both translations encode the *history* of the automaton run -- the set of
state assignments ``(q, n)`` made in any configuration -- with pair
predicates ``<q0, q>(n)``: "at some point, ``n`` was assigned ``q``, and
the most recent prior assignment to ``n``'s parent was ``q0``" (``q0`` is
the sentinel ``nabla`` for the root).  The pairing is what makes up
transitions sound (Lemma 4.10: imminent-return states are functions of the
parent's state and the node).

We additionally compute a *reachable-pair closure* before emitting rules:
rules are only generated for pair predicates the run could ever derive.
This keeps the emitted program at the quadratic size the paper advertises
(for ``A_beta``: ``O(beta^4)`` rules rather than the naive ``O(beta^6)``)
without affecting equivalence -- pruned rules have underivable bodies.

The unranked translation (Theorem 4.14) contains the staged
``u_i v_i* w_i`` down-transition encoding worked through in Example 4.15 /
Figure 2 (predicates ``utmp``/``wtmp``/``bwtmp``/``vtmp``/``succ``), the
NFA-scan encoding of up transitions, and a 2DFA simulation for stay
transitions.
"""

from __future__ import annotations

import re
from typing import Dict, Hashable, List, Set, Tuple

from repro.automata.nfa import NFA
from repro.datalog.program import Program, Rule
from repro.datalog.terms import Atom, var
from repro.qa.ranked import RankedQA
from repro.qa.unranked import StrongUnrankedQA

NABLA = "<nabla>"

_X = var("x")
_X0 = var("x0")
_X1 = var("x1")
_Y = var("y")


class _Names:
    """Collision-free sanitization of arbitrary state objects into
    predicate-name tokens."""

    def __init__(self):
        self._tokens: Dict[Hashable, str] = {}
        self._used: Set[str] = set()

    def token(self, value: Hashable) -> str:
        if value in self._tokens:
            return self._tokens[value]
        base = re.sub(r"[^0-9A-Za-z]+", "_", str(value)).strip("_") or "s"
        candidate = base
        i = 0
        while candidate in self._used:
            i += 1
            candidate = f"{base}_{i}"
        self._used.add(candidate)
        self._tokens[value] = candidate
        return candidate


def _pair_closure_ranked(qa: RankedQA) -> Set[Tuple[Hashable, Hashable]]:
    """Over-approximate the derivable pair predicates (label-blind)."""
    pairs: Set[Tuple[Hashable, Hashable]] = {(NABLA, qa.start)}
    changed = True
    while changed:
        changed = False
        known_q = {q for _, q in pairs}
        # Down transitions: (q0, q) + delta_down(q, a, m) -> (q, q_i).
        for (q, _a, _m), word in qa.down.items():
            if q in known_q:
                for qi in word:
                    if (q, qi) not in pairs:
                        pairs.add((q, qi))
                        changed = True
        # Leaf transitions: (q0, q) -> (q0, q').
        for (q, _a), q2 in qa.leaf.items():
            for q0, q1 in list(pairs):
                if q1 == q and (q0, q2) not in pairs:
                    pairs.add((q0, q2))
                    changed = True
        # Root transitions: (nabla, q) -> (nabla, q').
        for (q, _a), q2 in qa.root.items():
            if (NABLA, q) in pairs and (NABLA, q2) not in pairs:
                pairs.add((NABLA, q2))
                changed = True
        # Up transitions.
        for word, q_new in qa.up.items():
            child_states = [p[0] for p in word]
            for q0, q in list(pairs):
                if all((q, qc) in pairs for qc in child_states):
                    if (q0, q_new) not in pairs:
                        pairs.add((q0, q_new))
                        changed = True
    return pairs


def ranked_qa_to_datalog(
    qa: RankedQA,
    query_pred: str = "qa_query",
    accept_pred: str = "qa_accept",
) -> Program:
    """Theorem 4.11: an equivalent monadic datalog program over ``tau_rk``.

    The program's ``query_pred`` selects exactly the nodes the automaton
    selects; ``accept_pred`` holds at the root iff the run is accepting.
    Verified run-vs-program on randomized trees in
    ``tests/test_qa_to_datalog.py``.
    """
    names = _Names()
    pairs = _pair_closure_ranked(qa)
    q0s_of = lambda q: [q0 for (q0, q1) in pairs if q1 == q]

    def pp(q0: Hashable, q: Hashable) -> str:
        return f"st_{names.token(q0)}__{names.token(q)}"

    rules: List[Rule] = []

    # (1) Start state.
    rules.append(Rule(Atom(pp(NABLA, qa.start), (_X,)), [Atom("root", (_X,))]))

    # (2) Up transitions.
    for word, q_new in qa.up.items():
        child_states = [p[0] for p in word]
        child_labels = [p[1] for p in word]
        m = len(word)
        for q in qa.states:
            if not all((q, qc) in pairs for qc in child_states):
                continue
            for q0 in q0s_of(q):
                child_vars = [var(f"x{i + 1}") for i in range(m)]
                body = [Atom(pp(q0, q), (_X,))]
                for i in range(m):
                    body.append(Atom(f"child{i + 1}", (_X, child_vars[i])))
                    body.append(Atom(pp(q, child_states[i]), (child_vars[i],)))
                    body.append(Atom(f"label_{child_labels[i]}", (child_vars[i],)))
                rules.append(Rule(Atom(pp(q0, q_new), (_X,)), body))

    # (3) Down transitions.
    for (q, a, m), word in qa.down.items():
        for q0 in q0s_of(q):
            for i, qi in enumerate(word):
                xi = var(f"x{i + 1}")
                rules.append(
                    Rule(
                        Atom(pp(q, qi), (xi,)),
                        [
                            Atom(pp(q0, q), (_X,)),
                            Atom(f"child{i + 1}", (_X, xi)),
                            Atom(f"label_{a}", (_X,)),
                        ],
                    )
                )

    # (4) Root transitions.
    for (q, a), q2 in qa.root.items():
        if (NABLA, q) in pairs:
            rules.append(
                Rule(
                    Atom(pp(NABLA, q2), (_X,)),
                    [
                        Atom(pp(NABLA, q), (_X,)),
                        Atom(f"label_{a}", (_X,)),
                        Atom("root", (_X,)),
                    ],
                )
            )

    # (5) Leaf transitions.
    for (q, a), q2 in qa.leaf.items():
        for q0 in q0s_of(q):
            rules.append(
                Rule(
                    Atom(pp(q0, q2), (_X,)),
                    [
                        Atom(pp(q0, q), (_X,)),
                        Atom(f"label_{a}", (_X,)),
                        Atom("leaf", (_X,)),
                    ],
                )
            )

    # (6) Acceptance.
    for q in qa.final:
        for q0 in q0s_of(q):
            rules.append(
                Rule(
                    Atom(accept_pred, (_X,)),
                    [Atom("root", (_X,)), Atom(pp(q0, q), (_X,))],
                )
            )

    # (7) Selection.
    for (q, a) in qa.selection:
        for q0 in q0s_of(q):
            rules.append(
                Rule(
                    Atom(query_pred, (_X,)),
                    [
                        Atom(pp(q0, q), (_X,)),
                        Atom(f"label_{a}", (_X,)),
                        Atom(accept_pred, (_Y,)),
                    ],
                )
            )

    declared = {pp(q0, q) for q0, q in pairs} | {accept_pred, query_pred}
    return Program(rules, query=query_pred, declared=declared)


# ---------------------------------------------------------------------------
# Theorem 4.14: SQAu.
# ---------------------------------------------------------------------------


def _nfa_effective(nfa: NFA):
    """Epsilon-free view: (start_states, transition dict, accept set)."""
    start = nfa.epsilon_closure(nfa.start)
    table: Dict[Tuple[int, Hashable], Set[int]] = {}
    for (state, symbol), targets in nfa.transitions.items():
        table.setdefault((state, symbol), set()).update(
            nfa.epsilon_closure(targets)
        )
    # Transitions must also fire from epsilon-reachable states; fold the
    # closure into a state-level table.
    return start, table, set(nfa.accept)


def _pair_closure_sqau(qa: StrongUnrankedQA) -> Set[Tuple[Hashable, Hashable]]:
    pairs: Set[Tuple[Hashable, Hashable]] = {(NABLA, qa.start)}
    stay_range: Set[Hashable] = set(qa.stay.selection.values()) if qa.stay else set()
    changed = True
    while changed:
        changed = False
        known_q = {q for _, q in pairs}
        for (q, _a), triples in qa.down.items():
            if q in known_q:
                for u, v, w in triples:
                    for qi in tuple(u) + tuple(v) + tuple(w):
                        if (q, qi) not in pairs:
                            pairs.add((q, qi))
                            changed = True
        for (q, _a), q2 in qa.leaf.items():
            for q0, q1 in list(pairs):
                if q1 == q and (q0, q2) not in pairs:
                    pairs.add((q0, q2))
                    changed = True
        for (q, _a), q2 in qa.root.items():
            if (NABLA, q) in pairs and (NABLA, q2) not in pairs:
                pairs.add((NABLA, q2))
                changed = True
        # Up: children under parent-state q can reach target q_t when the
        # up-language mentions states all pairable with q.
        for q_t, nfa in qa.up.items():
            mentioned = {sym[0] for (_s, sym) in nfa.transitions.keys()}
            for q0, q in list(pairs):
                if any((q, qc) in pairs for qc in mentioned):
                    if (q0, q_t) not in pairs:
                        pairs.add((q0, q_t))
                        changed = True
        # Stay: children under parent-state q can be re-assigned any
        # selection output.
        if stay_range:
            for q0, q in list(pairs):
                has_child_pairs = any((q, qc) in pairs for qc in qa.states)
                if has_child_pairs:
                    for sigma in stay_range:
                        if (q, sigma) not in pairs:
                            pairs.add((q, sigma))
                            changed = True
    return pairs


def sqau_to_datalog(
    qa: StrongUnrankedQA,
    query_pred: str = "qa_query",
    accept_pred: str = "qa_accept",
) -> "SQAuTranslation":
    """Theorem 4.14: an equivalent monadic datalog program over
    ``tau_ur u {lastchild}``.

    Returns an :class:`SQAuTranslation` exposing the program plus the
    stage-predicate namers needed by the Figure 2 reproduction test.
    """
    return SQAuTranslation(qa, query_pred, accept_pred)


class SQAuTranslation:
    """The Theorem 4.14 translation with inspectable naming."""

    def __init__(self, qa: StrongUnrankedQA, query_pred: str, accept_pred: str):
        self.qa = qa
        self.query_pred = query_pred
        self.accept_pred = accept_pred
        self.names = _Names()
        self.pairs = _pair_closure_sqau(qa)
        self.rules: List[Rule] = []
        self.declared: Set[str] = {query_pred, accept_pred}
        self._emit()
        self.program = Program(
            self.rules, query=query_pred, declared=self.declared
        )

    # -- predicate naming (stable, used by tests) ---------------------------

    def pp(self, q0: Hashable, q: Hashable) -> str:
        """The pair predicate ``<q0, q>``."""
        return f"st_{self.names.token(q0)}__{self.names.token(q)}"

    def utmp(self, q: Hashable, a: str, i: int, k: int) -> str:
        """Stage (a) marker: k-th position of ``u_i`` (Example 4.15)."""
        return f"utmp_{self.names.token(q)}_{a}_{i}_{k}"

    def wtmp(self, q: Hashable, a: str, i: int, k: int) -> str:
        """Stage (b) marker: k-th position of ``w_i``."""
        return f"wtmp_{self.names.token(q)}_{a}_{i}_{k}"

    def bwtmp(self, q: Hashable, a: str, i: int) -> str:
        """Stage (c) marker: strictly before the ``w_i`` span."""
        return f"bwtmp_{self.names.token(q)}_{a}_{i}"

    def vtmp(self, q: Hashable, a: str, i: int, k: int) -> str:
        """Stage (d) marker: position ``k`` within the cycling ``v_i``."""
        return f"vtmp_{self.names.token(q)}_{a}_{i}_{k}"

    def succ(self, q: Hashable, a: str, i: int) -> str:
        """Stage (e) marker: subexpression ``i`` matched the fan-out."""
        return f"succ_{self.names.token(q)}_{a}_{i}"

    # -- emission ------------------------------------------------------------

    def _add(self, head: Atom, body: List[Atom]) -> None:
        self.rules.append(Rule(head, body))
        self.declared.add(head.pred)

    def _q0s_of(self, q: Hashable) -> List[Hashable]:
        return [q0 for (q0, q1) in self.pairs if q1 == q]

    def _emit(self) -> None:
        qa = self.qa
        self._add(Atom(self.pp(NABLA, qa.start), (_X,)), [Atom("root", (_X,))])
        self._emit_down()
        self._emit_up()
        self._emit_stay()
        for (q, a), q2 in qa.leaf.items():
            for q0 in self._q0s_of(q):
                self._add(
                    Atom(self.pp(q0, q2), (_X,)),
                    [
                        Atom(self.pp(q0, q), (_X,)),
                        Atom(f"label_{a}", (_X,)),
                        Atom("leaf", (_X,)),
                    ],
                )
        for (q, a), q2 in qa.root.items():
            if (NABLA, q) in self.pairs:
                self._add(
                    Atom(self.pp(NABLA, q2), (_X,)),
                    [
                        Atom(self.pp(NABLA, q), (_X,)),
                        Atom(f"label_{a}", (_X,)),
                        Atom("root", (_X,)),
                    ],
                )
        for q in qa.final:
            for q0 in self._q0s_of(q):
                self._add(
                    Atom(self.accept_pred, (_X,)),
                    [Atom("root", (_X,)), Atom(self.pp(q0, q), (_X,))],
                )
        for (q, a) in qa.selection:
            for q0 in self._q0s_of(q):
                self._add(
                    Atom(self.query_pred, (_X,)),
                    [
                        Atom(self.pp(q0, q), (_X,)),
                        Atom(f"label_{a}", (_X,)),
                        Atom(self.accept_pred, (_Y,)),
                    ],
                )

    def _emit_down(self) -> None:
        """The staged u v* w encoding -- stages (a)..(f) of the proof."""
        qa = self.qa
        for (q, a), triples in qa.down.items():
            q0s = self._q0s_of(q)
            if not q0s:
                continue
            anchor = [Atom(self.pp(q0, q), (_X,)) for q0 in q0s]
            for i, (u, v, w) in enumerate(triples, start=1):
                u, v, w = tuple(u), tuple(v), tuple(w)
                # (a) mark the |u| leftmost children.
                for q0_atom in anchor:
                    if u:
                        self._add(
                            Atom(self.utmp(q, a, i, 1), (_X1,)),
                            [q0_atom, Atom("firstchild", (_X, _X1)), Atom(f"label_{a}", (_X,))],
                        )
                for k in range(1, len(u)):
                    xk, xk1 = var(f"x{k}"), var(f"x{k + 1}")
                    self._add(
                        Atom(self.utmp(q, a, i, k + 1), (xk1,)),
                        [
                            Atom(self.utmp(q, a, i, k), (xk,)),
                            Atom("nextsibling", (xk, xk1)),
                        ],
                    )
                # (b) mark the |w| rightmost children.
                for q0_atom in anchor:
                    if w:
                        self._add(
                            Atom(self.wtmp(q, a, i, len(w)), (_Y,)),
                            [q0_atom, Atom("lastchild", (_X, _Y)), Atom(f"label_{a}", (_X,))],
                        )
                for l in range(len(w), 1, -1):
                    self._add(
                        Atom(self.wtmp(q, a, i, l - 1), (_X0,)),
                        [
                            Atom(self.wtmp(q, a, i, l), (_X,)),
                            Atom("nextsibling", (_X0, _X)),
                        ],
                    )
                # (c) everything strictly before the w-span (or all children
                # when w is empty).
                if w:
                    self._add(
                        Atom(self.bwtmp(q, a, i), (_X0,)),
                        [
                            Atom(self.wtmp(q, a, i, 1), (_X,)),
                            Atom("nextsibling", (_X0, _X)),
                        ],
                    )
                else:
                    for q0_atom in anchor:
                        self._add(
                            Atom(self.bwtmp(q, a, i), (_Y,)),
                            [q0_atom, Atom("lastchild", (_X, _Y)), Atom(f"label_{a}", (_X,))],
                        )
                self._add(
                    Atom(self.bwtmp(q, a, i), (_X0,)),
                    [
                        Atom(self.bwtmp(q, a, i), (_X,)),
                        Atom("nextsibling", (_X0, _X)),
                    ],
                )
                # (d) cycle v-markings through the middle span.
                if v:
                    if u:
                        self._add(
                            Atom(self.vtmp(q, a, i, 1), (_Y,)),
                            [
                                Atom(self.utmp(q, a, i, len(u)), (_X,)),
                                Atom("nextsibling", (_X, _Y)),
                                Atom(self.bwtmp(q, a, i), (_Y,)),
                            ],
                        )
                    else:
                        for q0_atom in anchor:
                            self._add(
                                Atom(self.vtmp(q, a, i, 1), (_Y,)),
                                [
                                    q0_atom,
                                    Atom("firstchild", (_X, _Y)),
                                    Atom(f"label_{a}", (_X,)),
                                    Atom(self.bwtmp(q, a, i), (_Y,)),
                                ],
                            )
                    for m in range(1, len(v)):
                        self._add(
                            Atom(self.vtmp(q, a, i, m + 1), (_Y,)),
                            [
                                Atom(self.vtmp(q, a, i, m), (_X,)),
                                Atom("nextsibling", (_X, _Y)),
                                Atom(self.bwtmp(q, a, i), (_Y,)),
                            ],
                        )
                    self._add(
                        Atom(self.vtmp(q, a, i, 1), (_Y,)),
                        [
                            Atom(self.vtmp(q, a, i, len(v)), (_X,)),
                            Atom("nextsibling", (_X, _Y)),
                            Atom(self.bwtmp(q, a, i), (_Y,)),
                        ],
                    )
                # (e) success: the subexpression has a word of length m.
                succ = self.succ(q, a, i)
                if u and w:
                    self._add(
                        Atom(succ, (_X0,)),
                        [
                            Atom(self.utmp(q, a, i, len(u)), (_X0,)),
                            Atom("nextsibling", (_X0, _X)),
                            Atom(self.wtmp(q, a, i, 1), (_X,)),
                        ],
                    )
                if not u and w:
                    for q0_atom in anchor:
                        self._add(
                            Atom(succ, (_Y,)),
                            [
                                q0_atom,
                                Atom("firstchild", (_X, _Y)),
                                Atom(f"label_{a}", (_X,)),
                                Atom(self.wtmp(q, a, i, 1), (_Y,)),
                            ],
                        )
                if u and not w:
                    self._add(
                        Atom(succ, (_X,)),
                        [
                            Atom(self.utmp(q, a, i, len(u)), (_X,)),
                            Atom("lastsibling", (_X,)),
                        ],
                    )
                if v and w:
                    self._add(
                        Atom(succ, (_X0,)),
                        [
                            Atom(self.vtmp(q, a, i, len(v)), (_X0,)),
                            Atom("nextsibling", (_X0, _X)),
                            Atom(self.wtmp(q, a, i, 1), (_X,)),
                        ],
                    )
                if v and not w:
                    self._add(
                        Atom(succ, (_X,)),
                        [
                            Atom(self.vtmp(q, a, i, len(v)), (_X,)),
                            Atom("lastsibling", (_X,)),
                        ],
                    )
                self._add(
                    Atom(succ, (_Y,)),
                    [Atom(succ, (_X,)), Atom("nextsibling", (_X, _Y))],
                )
                self._add(
                    Atom(succ, (_X0,)),
                    [Atom(succ, (_X,)), Atom("nextsibling", (_X0, _X))],
                )
                # (f) assign the new states.
                for k, sigma in enumerate(u, start=1):
                    self._add(
                        Atom(self.pp(q, sigma), (_X,)),
                        [Atom(succ, (_X,)), Atom(self.utmp(q, a, i, k), (_X,))],
                    )
                for k, sigma in enumerate(v, start=1):
                    self._add(
                        Atom(self.pp(q, sigma), (_X,)),
                        [Atom(succ, (_X,)), Atom(self.vtmp(q, a, i, k), (_X,))],
                    )
                for k, sigma in enumerate(w, start=1):
                    self._add(
                        Atom(self.pp(q, sigma), (_X,)),
                        [Atom(succ, (_X,)), Atom(self.wtmp(q, a, i, k), (_X,))],
                    )

    def _emit_up(self) -> None:
        """NFA scan over the sibling word, then back to the parent."""
        qa = self.qa
        for q_target, nfa in qa.up.items():
            start, table, accept = _nfa_effective(nfa)
            target_token = self.names.token(q_target)
            for q2 in qa.states:
                # Parent-last-state q2; scan predicates per NFA state.
                def tmp(s: Hashable) -> str:
                    return f"up_{target_token}_{self.names.token(q2)}_{self.names.token(s)}"

                emitted = False
                for (s, symbol), targets in table.items():
                    q_child, a = symbol
                    if (q2, q_child) not in self.pairs:
                        continue
                    self.declared.add(tmp(s))
                    for s2 in targets:
                        self.declared.add(tmp(s2))
                        if s in start:
                            self._add(
                                Atom(tmp(s2), (_X,)),
                                [
                                    Atom("firstchild", (_X0, _X)),
                                    Atom(self.pp(q2, q_child), (_X,)),
                                    Atom(f"label_{a}", (_X,)),
                                ],
                            )
                        self._add(
                            Atom(tmp(s2), (_Y,)),
                            [
                                Atom(tmp(s), (_X,)),
                                Atom("nextsibling", (_X, _Y)),
                                Atom(self.pp(q2, q_child), (_Y,)),
                                Atom(f"label_{a}", (_Y,)),
                            ],
                        )
                        emitted = True
                if not emitted:
                    continue
                bck = f"bck_{target_token}_{self.names.token(q2)}"
                for s in accept:
                    self._add(
                        Atom(bck, (_X,)),
                        [Atom(tmp(s), (_X,)), Atom("lastsibling", (_X,))],
                    )
                self._add(
                    Atom(bck, (_X0,)),
                    [Atom("nextsibling", (_X0, _X)), Atom(bck, (_X,))],
                )
                for q1 in self._q0s_of(q2):
                    self._add(
                        Atom(self.pp(q1, q_target), (_X0,)),
                        [
                            Atom(self.pp(q1, q2), (_X0,)),
                            Atom("firstchild", (_X0, _X)),
                            Atom(bck, (_X,)),
                        ],
                    )

    def _emit_stay(self) -> None:
        """Gate on U_stay with an NFA scan, then simulate the 2DFA."""
        qa = self.qa
        if qa.stay_gate is None or qa.stay is None:
            return
        start, table, accept = _nfa_effective(qa.stay_gate)
        for q2 in qa.states:
            def gate_tmp(s: Hashable) -> str:
                return f"sg_{self.names.token(q2)}_{self.names.token(s)}"

            emitted = False
            for (s, symbol), targets in table.items():
                q_child, a = symbol
                if (q2, q_child) not in self.pairs:
                    continue
                self.declared.add(gate_tmp(s))
                for s2 in targets:
                    self.declared.add(gate_tmp(s2))
                    if s in start:
                        self._add(
                            Atom(gate_tmp(s2), (_X,)),
                            [
                                Atom("firstchild", (_X0, _X)),
                                Atom(self.pp(q2, q_child), (_X,)),
                                Atom(f"label_{a}", (_X,)),
                            ],
                        )
                    self._add(
                        Atom(gate_tmp(s2), (_Y,)),
                        [
                            Atom(gate_tmp(s), (_X,)),
                            Atom("nextsibling", (_X, _Y)),
                            Atom(self.pp(q2, q_child), (_Y,)),
                            Atom(f"label_{a}", (_Y,)),
                        ],
                    )
                    emitted = True
            if not emitted:
                continue
            gate_ok = f"sgok_{self.names.token(q2)}"
            for s in accept:
                self._add(
                    Atom(gate_ok, (_X,)),
                    [Atom(gate_tmp(s), (_X,)), Atom("lastsibling", (_X,))],
                )
            self._add(
                Atom(gate_ok, (_X0,)),
                [Atom("nextsibling", (_X0, _X)), Atom(gate_ok, (_X,))],
            )
            # 2DFA simulation seeded at the first sibling.
            def bst(s: Hashable) -> str:
                return f"bst_{self.names.token(q2)}_{self.names.token(s)}"

            self._add(
                Atom(bst(qa.stay.start), (_X,)),
                [Atom(gate_ok, (_X,)), Atom("firstsibling", (_X,))],
            )
            for (s, symbol), (s2, direction) in qa.stay.transitions.items():
                q_child, a = symbol
                if (q2, q_child) not in self.pairs:
                    continue
                self.declared.add(bst(s))
                self.declared.add(bst(s2))
                if direction == "R":
                    self._add(
                        Atom(bst(s2), (_Y,)),
                        [
                            Atom(bst(s), (_X,)),
                            Atom(self.pp(q2, q_child), (_X,)),
                            Atom(f"label_{a}", (_X,)),
                            Atom("nextsibling", (_X, _Y)),
                        ],
                    )
                else:
                    self._add(
                        Atom(bst(s2), (_X0,)),
                        [
                            Atom(bst(s), (_X,)),
                            Atom(self.pp(q2, q_child), (_X,)),
                            Atom(f"label_{a}", (_X,)),
                            Atom("nextsibling", (_X0, _X)),
                        ],
                    )
            for (s, symbol), sigma in qa.stay.selection.items():
                q_child, a = symbol
                if (q2, q_child) not in self.pairs:
                    continue
                self._add(
                    Atom(self.pp(q2, sigma), (_X,)),
                    [
                        Atom(bst(s), (_X,)),
                        Atom(self.pp(q2, q_child), (_X,)),
                        Atom(f"label_{a}", (_X,)),
                    ],
                )
