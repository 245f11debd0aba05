"""Tests for query automata: the run engines (Definitions 4.8 / 4.12),
the paper's example automata, and the Theorems 4.11 / 4.14 translations."""

import random

import pytest

from repro.datalog.engine import evaluate
from repro.errors import QueryAutomatonError
from repro.qa import (
    RankedQA,
    a_beta_qa,
    even_a_qa,
    even_a_sqau,
    even_position_sqau,
    ranked_qa_to_datalog,
    sqau_to_datalog,
)
from repro.qa.unranked import match_uvw
from repro.paper import even_a_program
from repro.trees.generate import (
    complete_binary_tree,
    random_binary_tree,
    random_tree,
)
from repro.trees.ranked import RankedStructure
from repro.trees.unranked import UnrankedStructure


def brute_force_even_a(tree):
    out = set()
    for node in tree.iter_subtree():
        count = sum(1 for m in node.iter_subtree() if m.label == "a")
        if count % 2 == 0:
            out.add(id(node))
    return out


class TestRankedQAValidation:
    def test_overlapping_partition_rejected(self):
        with pytest.raises(QueryAutomatonError):
            RankedQA(
                states={"q"},
                labels={"a"},
                final={"q"},
                start="q",
                up={},
                down={},
                root={},
                leaf={},
                selection=set(),
                up_pairs={("q", "a")},
                down_pairs={("q", "a")},
            )

    def test_down_transition_must_use_d_pair(self):
        with pytest.raises(QueryAutomatonError):
            RankedQA(
                states={"q", "r"},
                labels={"a"},
                final={"q"},
                start="q",
                up={},
                down={("q", "a", 2): ("q", "q")},
                root={},
                leaf={},
                selection=set(),
                up_pairs={("q", "a"), ("r", "a")},
                down_pairs=set(),
            )


class TestEvenAQA:
    def test_selection_matches_brute_force(self, rng):
        qa = even_a_qa(labels=("a", "b"))
        for _ in range(20):
            tree = random_binary_tree(
                rng, rng.randint(0, 7), internal_label="a",
                leaf_label=rng.choice("ab"),
            )
            run = qa.run(tree)
            assert run.accepted
            assert {id(n) for n in run.selected} == brute_force_even_a(tree)

    def test_single_node_tree(self):
        from repro.trees.node import Node

        qa = even_a_qa(labels=("a", "b"))
        run = qa.run(Node("b"))
        assert run.accepted
        assert len(run.selected) == 1  # zero a's is even

    def test_step_count_linear_here(self):
        qa = even_a_qa()
        small = qa.run(complete_binary_tree(3)).steps
        large = qa.run(complete_binary_tree(5)).steps
        # The even-a automaton visits each node O(1) times.
        assert large <= 5 * small


class TestABeta:
    def test_accepts_complete_trees(self):
        qa = a_beta_qa(1)
        for depth in range(0, 4):
            assert qa.run(complete_binary_tree(depth)).accepted

    def test_superpolynomial_growth(self):
        qa = a_beta_qa(1)  # beta = 2
        steps = [qa.run(complete_binary_tree(d)).steps for d in (2, 3, 4, 5)]
        ratios = [b / a for a, b in zip(steps, steps[1:])]
        # Each extra level multiplies work by ~2*beta = 4 (Example 4.21).
        assert all(ratio > 3.4 for ratio in ratios), (steps, ratios)

    def test_alpha_increases_base(self):
        steps_1 = a_beta_qa(1).run(complete_binary_tree(4)).steps
        steps_2 = a_beta_qa(2).run(complete_binary_tree(4)).steps
        assert steps_2 > 5 * steps_1

    def test_step_budget_guard(self):
        qa = a_beta_qa(2)
        with pytest.raises(QueryAutomatonError):
            qa.run(complete_binary_tree(4), max_steps=100)


class TestTheorem411:
    def test_even_a_translation_equivalent(self, rng):
        qa = even_a_qa(labels=("a", "b"))
        program = ranked_qa_to_datalog(qa)
        assert program.is_monadic()
        for _ in range(15):
            tree = random_binary_tree(
                rng, rng.randint(0, 6), internal_label="a",
                leaf_label=rng.choice("ab"),
            )
            run = qa.run(tree)
            structure = RankedStructure(tree, max_rank=2)
            result = evaluate(program, structure, method="seminaive")
            expected = {structure.ident(n) for n in run.selected}
            assert result.query_result() == expected, str(tree)
            assert result.unary("qa_accept") == ({0} if run.accepted else set())

    def test_a_beta_translation_equivalent(self):
        qa = a_beta_qa(1)
        program = ranked_qa_to_datalog(qa)
        for depth in (0, 1, 2, 3):
            tree = complete_binary_tree(depth)
            run = qa.run(tree)
            structure = RankedStructure(tree, max_rank=2)
            result = evaluate(program, structure, method="seminaive")
            expected = {structure.ident(n) for n in run.selected}
            assert result.query_result() == expected

    def test_translation_size_polynomial(self):
        small = len(ranked_qa_to_datalog(a_beta_qa(1)).rules)
        large = len(ranked_qa_to_datalog(a_beta_qa(2)).rules)
        # |A_beta| ~ beta^2; the paper's bound is a program quadratic in
        # |A| (O(beta^4), 16x per beta doubling).  Our reachable-pair
        # pruning measures at ~O(beta^5) (36x) -- still polynomial, which
        # is the content of Example 4.21 against the automaton's
        # superpolynomial runs.
        assert large <= 36 * small


class TestSQAuRuns:
    def test_even_a_sqau_matches_datalog(self, rng):
        sqau = even_a_sqau(labels=("a", "b"))
        program = even_a_program(labels=("a", "b"))
        for _ in range(15):
            tree = random_tree(rng, rng.randint(1, 14), labels=("a", "b"))
            run = sqau.run(tree)
            structure = UnrankedStructure(tree)
            expected = evaluate(program, structure).query_result()
            assert run.accepted
            assert {structure.ident(n) for n in run.selected} == expected

    def test_even_position_sqau(self, rng):
        sqau = even_position_sqau(labels=("a", "b"))
        for _ in range(15):
            tree = random_tree(rng, rng.randint(1, 12), labels=("a", "b"))
            run = sqau.run(tree)
            expected = {
                id(n)
                for n in tree.iter_subtree()
                if n.parent is not None and n.child_index % 2 == 1
            }
            assert {id(n) for n in run.selected} == expected

    def test_match_uvw_empty_v(self):
        assert match_uvw([(("u",), (), ("w",))], 2) == ("u", "w")
        assert match_uvw([(("u",), (), ("w",))], 3) is None

    def test_match_uvw_modulus(self):
        triples = [(("u",), ("v", "v"), ())]
        assert match_uvw(triples, 1) == ("u",)
        assert match_uvw(triples, 3) == ("u", "v", "v")
        assert match_uvw(triples, 2) is None


class TestTheorem414:
    def test_even_a_sqau_translation(self, rng):
        sqau = even_a_sqau(labels=("a", "b"))
        translation = sqau_to_datalog(sqau)
        assert translation.program.is_monadic()
        for _ in range(12):
            tree = random_tree(rng, rng.randint(1, 12), labels=("a", "b"))
            run = sqau.run(tree)
            structure = UnrankedStructure(tree)
            result = evaluate(translation.program, structure, method="seminaive")
            expected = {structure.ident(n) for n in run.selected}
            assert result.query_result() == expected, str(tree)

    def test_stay_transition_translation(self, rng):
        sqau = even_position_sqau(labels=("a", "b"))
        translation = sqau_to_datalog(sqau)
        for _ in range(12):
            tree = random_tree(rng, rng.randint(1, 12), labels=("a", "b"))
            run = sqau.run(tree)
            structure = UnrankedStructure(tree)
            result = evaluate(translation.program, structure, method="seminaive")
            expected = {structure.ident(n) for n in run.selected}
            assert result.query_result() == expected, str(tree)

    def test_linear_evaluation_via_ground_engine(self):
        # The translated program is within Theorem 4.2's fragment: the
        # kernel hot path picks it up and the grounding oracle agrees.
        sqau = even_a_sqau(labels=("a",))
        translation = sqau_to_datalog(sqau)
        structure = UnrankedStructure(random_tree(5, 20, labels=("a",)))
        result = evaluate(translation.program, structure)
        assert result.method == "kernel"
        ground = evaluate(translation.program, structure, method="ground")
        assert result.query_result() == ground.query_result()
