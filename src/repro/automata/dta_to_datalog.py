"""From automaton-presented unary queries to monadic datalog (Theorem 4.4).

Theorem 4.4 states that every unary MSO-definable query over trees is
definable in monadic datalog.  Our constructive route compiles the MSO
formula to a deterministic bottom-up tree automaton over the marked binary
encoding (:mod:`repro.mso.compile`) and then emits, via this module, a
monadic datalog program over ``tau_ur`` that simulates the two-pass
evaluation of :class:`repro.automata.unary.UnaryQueryDTA`:

* ``fcst_q(v)``  -- the (unmarked) state of ``v``'s first-child encoding
  subtree is ``q`` (the empty state when ``v`` is a leaf);
* ``nsst_q(v)``  -- likewise for ``v``'s next-sibling subtree (the empty
  state when ``v`` is a last sibling or the root);
* ``st_q(v)``    -- the state of ``v``'s own binary subtree;
* ``acc_q(v)``   -- ``q`` belongs to the acceptance set of ``v`` (the whole
  tree is accepted if ``v``'s subtree evaluates to ``q``);
* ``<query>(v)`` -- ``v``'s *marked* transition lands in its acceptance set.

The bottom-up predicates mirror the paper's type predicates
``T^{MSO,up}_k`` and the top-down ones its envelope types
``T^{MSO,down}_k``; the final rule is the analogue of the proof's part (3)
combination rules.

Only states that can hold are emitted, which is exact on trees over the
alphabet:

* ``R``, the states reachable from the empty state under unmarked steps,
  are the only values of ``st_*``/``fcst_*``/``nsst_*``;
* the states of a subtree holding the one mark (``marks``: a marked step
  on ``R x R``, closed under unmarked steps with the other child in
  ``R``) are the only ones an ``acc_*`` atom is ever read at, and of
  those only the *live* ones -- accepting, or leading to a live state --
  can hold.

A ``(ql, qr)`` pair that every label sends to the same target gets one
rule without a ``label_a`` atom.  The program has
``O(|Sigma| * |R| * (|R| + |live|))`` rules, fewer where the label-free
rules apply: over a catalog page's 13 labels, 10 for ``label_td(x)`` and
12 for ``exists y (child(y, x) & label_tr(y))``, against 478 and 844 for
the full ``|Sigma| * |Q|^2`` product.  It evaluates in linear time by
Theorem 4.2.  A tree with a label outside the alphabet
is outside the query's domain: the label-free rules would fire on it, so
callers reject such trees first, as ``UnaryQueryDTA.select`` does.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.automata.unary import UnaryQueryDTA
from repro.datalog.program import Program, Rule
from repro.datalog.terms import Atom, var

_X = var("x")
_Y = var("y")


def _closure(seed: Set[int], grow) -> Set[int]:
    """Smallest superset of ``seed`` closed under ``grow(states)``."""
    states = set(seed)
    while True:
        more = grow(states) - states
        if not more:
            return states
        states |= more


def unary_dta_to_datalog(
    query: UnaryQueryDTA,
    labels: Iterable[str] | None = None,
    query_pred: str = "select",
) -> Program:
    """Emit the monadic datalog program equivalent to a unary DTA query.

    Parameters
    ----------
    query:
        The automaton-presented unary query.
    labels:
        Labels to generate rules for (defaults to the automaton's alphabet
        labels).
    query_pred:
        Name of the distinguished query predicate.

    Returns
    -------
    Program
        A monadic datalog program over ``tau_ur`` whose query predicate
        selects exactly the nodes the automaton query selects on trees
        over ``labels`` (checked against ``UnaryQueryDTA.select_ids`` in
        ``tests/test_mso.py``).
    """
    dta = query.dta
    sigma = sorted(labels) if labels is not None else sorted(query.labels)
    unmarked = [(label, frozenset()) for label in sigma]
    marked = [(label, frozenset([query.var])) for label in sigma]
    step = dta.step

    reach = _closure(
        {dta.empty_state},
        lambda qs: {step(a, l, r) for a in unmarked for l in qs for r in qs},
    )
    marks = _closure(
        {step(a, l, r) for a in marked for l in reach for r in reach},
        lambda qs: {
            target
            for a in unmarked
            for m in qs
            for r in reach
            for target in (step(a, m, r), step(a, r, m))
        },
    )
    live = _closure(
        set(dta.accept) & marks,
        lambda qs: {
            m
            for a in unmarked
            for m in marks
            for r in reach
            if step(a, m, r) in qs or step(a, r, m) in qs
        },
    )
    rules: List[Rule] = []

    def emit(symbols, ql: int, qr: int, keep: Set[int], make) -> None:
        """Rules ``head :- [label_a(x)], body`` with ``(head, body) =
        make(target)`` for the labels whose step on ``(ql, qr)`` lands in
        ``keep``; one label-free rule when every label agrees."""
        groups: Dict[int, List[str]] = {}
        for label, symbol in zip(sigma, symbols):
            groups.setdefault(step(symbol, ql, qr), []).append(label)
        for target, group in sorted(groups.items()):
            if target in keep:
                head, body = make(target)
                guards = [[Atom(f"label_{a}", (_X,))] for a in group] if len(groups) > 1 else [[]]
                rules.extend(Rule(head, guard + body) for guard in guards)

    def unary(pred: str, q: int, v=_X) -> Atom:
        return Atom(f"{pred}_{q}", (v,))

    # Child states: missing binary children carry the empty state.
    for pred, base in (("fcst", "leaf"), ("nsst", "lastsibling"), ("nsst", "root")):
        rules.append(Rule(unary(pred, dta.empty_state), [Atom(base, (_X,))]))
    for q in sorted(reach):
        for pred, edge in (("fcst", "firstchild"), ("nsst", "nextsibling")):
            rules.append(Rule(unary(pred, q), [Atom(edge, (_X, _Y)), unary("st", q, _Y)]))

    # Bottom-up: st_{delta(a0, ql, qr)}(x) <- label_a(x), fcst_ql, nsst_qr.
    # Selection: the marked transition must land in the acceptance set.
    for ql in sorted(reach):
        for qr in sorted(reach):
            children = [unary("fcst", ql), unary("nsst", qr)]
            emit(unmarked, ql, qr, reach, lambda t: (unary("st", t), children))
            emit(marked, ql, qr, live,
                 lambda t: (Atom(query_pred, (_X,)), children + [unary("acc", t)]))

    # Acceptance sets, top-down from the root's accepting states: if
    # delta(a0, m, r) in Acc(x) then m in Acc(firstchild(x)) given
    # nsst_r(x); symmetrically for the next sibling given fcst_r(x).
    for q in sorted(live & dta.accept):
        rules.append(Rule(unary("acc", q), [Atom("root", (_X,))]))
    for m in sorted(live):
        for r in sorted(reach):
            head = unary("acc", m, _Y)
            emit(unmarked, m, r, live, lambda t: (
                head, [unary("acc", t), unary("nsst", r), Atom("firstchild", (_X, _Y))]))
            emit(unmarked, r, m, live, lambda t: (
                head, [unary("acc", t), unary("fcst", r), Atom("nextsibling", (_X, _Y))]))

    declared = {f"{p}_{q}" for q in reach for p in ("fcst", "nsst", "st")}
    declared |= {f"acc_{q}" for q in live} | {query_pred}
    return Program(rules, query=query_pred, declared=declared)
