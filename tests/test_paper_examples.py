"""Exact reproductions of the paper's worked examples and figures.

Every assertion here mirrors a literal artifact printed in the paper:
Example 2.5 (document order), Example 3.2 (the T^0..T^7 fixpoint),
Example 4.9 (the run c0..c4), Example 4.15 / Figure 2 (the staged down
transition), Example 5.10 (the p.child program), and a Figure-3-style
acyclicization (the figure's exact rule is not fully recoverable from the
text, so we assert the stages on a rule with the same structure)."""

import pytest

from repro.datalog.engine import evaluate, naive_fixpoint_trace
from repro.datalog.parser import parse_program, parse_rule
from repro.caterpillar import (
    caterpillar_to_datalog,
    evaluate_caterpillar,
    parse_caterpillar,
)
from repro.caterpillar.order import child_expression, document_order_expression
from repro.paper import even_a_program, example32_structure, figure1_structure
from repro.qa.examples import even_a_qa
from repro.qa.to_datalog import sqau_to_datalog
from repro.qa.unranked import StrongUnrankedQA, match_uvw
from repro.tmnf.acyclic import acyclicize_rule_unranked
from repro.trees.node import Node
from repro.trees.generate import flat_tree
from repro.trees.unranked import UnrankedStructure
from repro.automata.nfa import NFA


class TestExample25DocumentOrder:
    """Example 2.5: the caterpillar expression for document order."""

    def test_on_figure1_tree(self):
        structure = figure1_structure()
        relation = evaluate_caterpillar(document_order_expression(), structure)
        expected = {(i, j) for i in range(6) for j in range(i + 1, 6)}
        assert set(relation) == expected

    def test_child_inverse_identity(self):
        # The remark closing Example 2.5: child^-1 = (nextsibling^-1)*.firstchild^-1.
        structure = figure1_structure()
        left = evaluate_caterpillar(parse_caterpillar("child^-1"), structure)
        right = evaluate_caterpillar(
            parse_caterpillar("(nextsibling^-1)*.firstchild^-1"), structure
        )
        assert left == right


class TestExample32:
    """Example 3.2: the even-a program and its exact fixpoint trace."""

    def test_query_selects_root_only(self):
        result = evaluate(even_a_program(labels=("a",)), example32_structure())
        assert result.query_result() == {0}

    def test_fixpoint_trace_matches_paper(self):
        trace = naive_fixpoint_trace(
            even_a_program(labels=("a",)), example32_structure()
        )
        # Paper node names: n1 -> 0, n2 -> 1, n3 -> 2, n4 -> 3.
        expected = [
            {"B0": {(1,), (2,), (3,)}},
            {"C1": {(1,), (2,), (3,)}},
            {"R1": {(3,)}},
            {"R0": {(2,)}},
            {"R1": {(1,)}},
            {"B1": {(0,)}},
            {"C0": {(0,)}},
        ]
        assert trace == expected

    def test_fixpoint_reached_at_t7(self):
        assert len(naive_fixpoint_trace(even_a_program(labels=("a",)), example32_structure())) == 7


class TestExample49:
    """Example 4.9: the even-a query automaton's run on a 3-node tree."""

    def setup_method(self):
        self.qa = even_a_qa()
        self.tree = Node("a", [Node("a"), Node("a")])
        self.run = self.qa.run(self.tree, trace=True)

    def test_five_configurations(self):
        assert len(self.run.trace) == 5  # c0 .. c4

    def test_configuration_sequence(self):
        n0, n1, n2 = self.tree, self.tree.children[0], self.tree.children[1]
        trace = self.run.trace_states()
        assert trace[0] == {n0: "down"}
        assert trace[1] == {n1: "down", n2: "down"}
        assert trace[2] == {n1: "s0", n2: "down"}
        assert trace[3] == {n1: "s0", n2: "s0"}
        assert trace[4] == {n0: "s0"}

    def test_accepting_but_empty_selection(self):
        # All subtrees have an odd number of 'a's: result empty.
        assert self.run.accepted
        assert self.run.selected == set()


def _figure2_sqau():
    """An SQAu whose down language at (q, a) is (q1 q0)* u (q1 q0)* q1 --
    Example 4.15's L_down."""
    labels = ("a",)
    triples = [((), ("q1", "q0"), ()), ((), ("q1", "q0"), ("q1",))]
    # Minimal surrounding automaton: q is the start state; children end in
    # q0 / q1 which are D pairs with leaf transitions to a final state.
    up_pairs = {("done", "a")}
    down_pairs = {("q", "a"), ("q0", "a"), ("q1", "a")}
    done_nfa = NFA(
        2,
        {("done", "a")},
        {(0, ("done", "a")): {1}, (1, ("done", "a")): {1}},
        {},
        {0},
        {1},
    )
    return StrongUnrankedQA(
        states={"q", "q0", "q1", "done"},
        labels={"a"},
        final={"done"},
        start="q",
        down={("q", "a"): triples},
        up={"done": done_nfa},
        root={},
        leaf={("q", "a"): "done", ("q0", "a"): "done", ("q1", "a"): "done"},
        selection={("q1", "a")},
        up_pairs=up_pairs,
        down_pairs=down_pairs,
    )


class TestExample415Figure2:
    """Example 4.15 / Figure 2: the staged down-transition encoding on a
    node with four children."""

    def setup_method(self):
        self.qa = _figure2_sqau()
        self.translation = sqau_to_datalog(self.qa)
        self.tree = flat_tree("aaaa", root_label="a")
        self.structure = UnrankedStructure(self.tree)
        self.result = evaluate(
            self.translation.program, self.structure, method="seminaive"
        )
        self.n = {1: 1, 2: 2, 3: 3, 4: 4}  # paper's n1..n4 -> ids 1..4

    def _extension(self, pred):
        return self.result.unary(pred)

    def test_stage_b_wtmp(self):
        # Only subexpression 2 has a w part; it marks n4.
        t = self.translation
        assert self._extension(t.wtmp("q", "a", 2, 1)) == {4}

    def test_stage_c_bwtmp(self):
        t = self.translation
        # Subexpression 1 (w empty): all four children are "before w".
        assert self._extension(t.bwtmp("q", "a", 1)) == {1, 2, 3, 4}
        # Subexpression 2: everything strictly before n4.
        assert self._extension(t.bwtmp("q", "a", 2)) == {1, 2, 3}

    def test_stage_d_vtmp(self):
        t = self.translation
        # v = q1 q0 cycles: positions n1, n3 get vtmp_1; n2, n4 get vtmp_2.
        assert self._extension(t.vtmp("q", "a", 1, 1)) == {1, 3}
        assert self._extension(t.vtmp("q", "a", 1, 2)) == {2, 4}
        # Subexpression 2 is blocked at n4 by w.
        assert self._extension(t.vtmp("q", "a", 2, 1)) == {1, 3}
        assert self._extension(t.vtmp("q", "a", 2, 2)) == {2}

    def test_stage_e_succ(self):
        t = self.translation
        # Only subexpression 1 matches length 4 ((q1 q0)^2).
        assert self._extension(t.succ("q", "a", 1)) == {1, 2, 3, 4}
        assert self._extension(t.succ("q", "a", 2)) == set()

    def test_stage_f_state_assignment(self):
        t = self.translation
        # Figure 2 (f): <q, q1> at n1, n3; <q, q0> at n2, n4.
        assert self._extension(t.pp("q", "q1")) == {1, 3}
        assert self._extension(t.pp("q", "q0")) == {2, 4}

    def test_run_agrees_with_translation(self):
        run = self.qa.run(self.tree)
        selected = {self.structure.ident(n) for n in run.selected}
        assert selected == self.result.query_result() == {1, 3}

    def test_match_uvw_density_one(self):
        triples = [((), ("q1", "q0"), ()), ((), ("q1", "q0"), ("q1",))]
        assert match_uvw(triples, 4) == ("q1", "q0", "q1", "q0")
        assert match_uvw(triples, 3) == ("q1", "q0", "q1")
        assert match_uvw(triples, 0) == ()


class TestFigure3StyleAcyclicization:
    """Figure 3's stages on a rule with the same structural features: two
    parents sharing a nextsibling-connected child component (merged by the
    child FD), a chain needing depth-index merging, and child atoms
    replaced by firstchild + nextsibling*."""

    def test_parents_of_one_component_merge(self):
        rule = parse_rule(
            "p(x1) :- child(x1, x5), firstchild(x3, x6), nextsibling(x6, x5)."
        )
        out = acyclicize_rule_unranked(rule)
        assert out is not None
        # x1 and x3 must have merged: only one parent variable remains.
        parents = {a.args[0] for a in out.body if a.pred == "firstchild"}
        assert len(parents) == 1
        # The child atom is implied by the firstchild anchor and dropped.
        assert all(a.pred != "child" for a in out.body)

    def test_first_child_with_prior_sibling_unsat(self):
        # firstchild(x3, x6) plus a sibling strictly before x6 contradicts
        # the firstchild semantics: the chase must detect it.
        rule = parse_rule(
            "p(x1) :- child(x1, x5), firstchild(x3, x6), nextsibling(x5, x6)."
        )
        assert acyclicize_rule_unranked(rule) is None

    def test_same_depth_siblings_merge(self):
        rule = parse_rule(
            "p(x1) :- nextsibling(x1, x2), nextsibling(x1, x3), label_a(x2)."
        )
        out = acyclicize_rule_unranked(rule)
        assert out is not None
        assert len(out.variables()) == 2  # x2 = x3 merged

    def test_child_becomes_fc_nsstar(self):
        rule = parse_rule("p(x) :- child(x, y), label_b(y).")
        out = acyclicize_rule_unranked(rule)
        preds = {a.pred for a in out.body}
        assert preds == {"firstchild", "nextsibling_star", "label_b"}

    def test_conflicting_depths_unsat(self):
        rule = parse_rule(
            "p(x) :- nextsibling(x, y), nextsibling(y, x)."
        )
        assert acyclicize_rule_unranked(rule) is None

    def test_child_cycle_unsat(self):
        rule = parse_rule("p(x) :- child(x, y), child(y, x).")
        assert acyclicize_rule_unranked(rule) is None

    def test_semantics_preserved(self):
        from tests.helpers_shared import random_structures

        rule_text = (
            "p(x1) :- child(x1, x5), firstchild(x3, x6), nextsibling(x6, x5), "
            "label_a(x6)."
        )
        original = parse_program(rule_text, query="p")
        rewritten_rule = acyclicize_rule_unranked(parse_rule(rule_text))
        from repro.datalog.program import Program

        rewritten = Program([rewritten_rule], query="p")
        for tree, structure in random_structures(seed=9, count=12):
            left = evaluate(original, structure, method="seminaive").query_result()
            right = evaluate(rewritten, structure, method="seminaive").query_result()
            assert left == right, str(tree)


class TestExample510:
    """Example 5.10: the TMNF program for p.child."""

    def test_program_is_tmnf_and_correct(self):
        from repro.tmnf.forms import is_tmnf

        program, _ = caterpillar_to_datalog(child_expression(), "root", "p_child")
        ok, reason = is_tmnf(program)
        assert ok, reason
        structure = figure1_structure()
        result = evaluate(program, structure)
        assert result.unary("p_child") == {1, 2, 5}
