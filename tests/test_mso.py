"""Tests for MSO syntax, parsing, the naive model checker, the automaton
compiler (Proposition 2.1) and the Theorem 4.4 translation to datalog.

The central battery compiles a spectrum of unary queries and checks, on
randomized trees, that the naive semantics, the two-pass automaton
evaluation, and the emitted monadic datalog program all agree.
"""

import pytest

from repro.automata.dta_to_datalog import unary_dta_to_datalog
from repro.datalog.engine import evaluate
from repro.errors import MSOError, ParseError
from repro.mso import (
    compile_query,
    compile_sentence,
    mso_to_datalog,
    naive_check,
    naive_eval,
    naive_select,
    parse_mso,
)
from repro.mso.syntax import (
    Exists,
    FOVar,
    Forall,
    Member,
    Not,
    Rel,
    SOVar,
    free_variables,
    quantifier_rank,
    standardize_apart,
)
from repro.trees import UnrankedStructure, parse_sexpr
from repro.trees.stream import html_snapshot
from repro.workloads import catalog_page
from tests.helpers_shared import random_structures

#: The unary-query battery: (formula text, short name).
QUERIES = [
    ("label_a(x)", "label"),
    ("root(x)", "root"),
    ("leaf(x)", "leaf"),
    ("lastsibling(x)", "lastsibling"),
    ("firstsibling(x)", "firstsibling"),
    ("~leaf(x)", "negation"),
    ("label_a(x) & ~root(x)", "conjunction"),
    ("label_a(x) | leaf(x)", "disjunction"),
    ("exists y (firstchild(x, y) & label_b(y))", "firstchild-down"),
    ("exists y (firstchild(y, x))", "is-first-child"),
    ("exists y (nextsibling(y, x))", "has-left-sibling"),
    ("exists y (child(y, x) & label_a(y))", "parent-label"),
    ("exists y (child(x, y) & leaf(y))", "has-leaf-child"),
    ("exists y (descendant(x, y) & label_b(y))", "has-b-descendant"),
    ("forall y (descendant(x, y) -> label_a(y))", "all-desc-a"),
    ("exists y (before(y, x) & label_b(y))", "b-before"),
    ("exists y (sibling_before(x, y) & label_a(y))", "a-later-sibling"),
    ("exists y (x = y & leaf(y))", "eq-leaf"),
    ("leaf(x) <-> label_b(x)", "iff"),
    (
        "exists Y (x in Y & forall z (z in Y -> label_a(z)))",
        "so-membership",
    ),
]


#: The other unary queries the suite and the examples compile (the
#: expressiveness, containment and wrapper tests, the yardstick example).
MORE_QUERIES = [
    "label_b(x)",
    "leaf(x) & label_b(x)",
    "label_a(x) & leaf(x)",
    "exists y (child(x, y))",
    "exists y (child(y, x))",
    "exists y (child(y, x)) & firstsibling(x)",
    "~root(x) & ~exists y (nextsibling(x, y))",
    "forall y (descendant(x, y) -> leaf(y) | label_a(y))",
    "label_b(x) & forall y (descendant(x, y) -> label_a(y)) & exists z (before(z, x))",
    # Its unmarked states tell a subtree with a right spine apart, so they
    # are reachable only through steps with a non-empty right child.
    "exists y (firstchild(x, y) & ~lastsibling(y))",
]


class TestSyntax:
    def test_free_variables(self):
        formula = parse_mso("exists y (firstchild(x, y) & y in X)")
        fo_free, so_free = free_variables(formula)
        assert fo_free == {"x"}
        assert so_free == {"X"}

    def test_quantifier_rank(self):
        formula = parse_mso("exists y (forall z (before(y, z)) & leaf(y))")
        assert quantifier_rank(formula) == 2

    def test_standardize_apart(self):
        formula = parse_mso("exists y (leaf(y)) & exists y (root(y))")
        renamed = standardize_apart(formula)
        text = str(renamed)
        assert text.count("exists y (") <= 1  # second binder renamed


class TestParser:
    def test_precedence(self):
        formula = parse_mso("leaf(x) | root(x) & label_a(x)")
        assert formula.__class__.__name__ == "Or"

    def test_sugar_relations(self):
        assert str(parse_mso("x < y")) == "before(x, y)"
        assert str(parse_mso("x = y")) == "eq(x, y)"

    def test_set_syntax(self):
        formula = parse_mso("x in X")
        assert isinstance(formula, Member)

    def test_error_on_set_in_structural_atom(self):
        with pytest.raises(ParseError):
            parse_mso("leaf(X)")

    def test_error_on_trailing(self):
        with pytest.raises(ParseError):
            parse_mso("leaf(x) leaf(y)")


class TestNaive:
    def test_unbound_variable_raises(self):
        structure = UnrankedStructure(parse_sexpr("a"))
        with pytest.raises(MSOError):
            naive_eval(parse_mso("leaf(x)"), structure)

    def test_sentence_check(self):
        structure = UnrankedStructure(parse_sexpr("a(b)"))
        assert naive_check(parse_mso("exists x (label_b(x))"), structure)
        assert not naive_check(parse_mso("forall x (label_b(x))"), structure)

    def test_so_quantification(self):
        structure = UnrankedStructure(parse_sexpr("a(b, a)"))
        # There is a set containing exactly the a-nodes.
        formula = parse_mso(
            "exists X (forall y (y in X <-> label_a(y)))"
        )
        assert naive_check(formula, structure)

    def test_so_guard_on_large_trees(self):
        from repro.trees.generate import chain_tree

        structure = UnrankedStructure(chain_tree(30))
        with pytest.raises(MSOError):
            naive_check(parse_mso("exists X (forall y (y in X))"), structure)


class TestCompileQueryBattery:
    @pytest.mark.parametrize("text,name", QUERIES, ids=[n for _, n in QUERIES])
    def test_naive_automaton_datalog_agree(self, text, name):
        formula = parse_mso(text)
        query = compile_query(formula, "x", ["a", "b"])
        program, _ = mso_to_datalog(formula, "x", ["a", "b"])
        for tree, structure in random_structures(seed=hash(name) % 2**31, count=8, max_size=9):
            expected = naive_select(formula, "x", structure)
            assert query.select_ids(structure) == expected, f"automaton: {tree}"
            assert (
                evaluate(program, structure).query_result() == expected
            ), f"datalog: {tree}"

    def test_two_pass_matches_marked_acceptance(self):
        formula = parse_mso("exists y (child(y, x))")
        query = compile_query(formula, "x", ["a", "b"])
        for tree, structure in random_structures(seed=404, count=6, max_size=8):
            selected = set(query.select(tree))
            for node in tree.iter_subtree():
                assert (node in selected) == query.accepts_marked(tree, node)

    def test_free_variable_mismatch_raises(self):
        with pytest.raises(MSOError):
            compile_query(parse_mso("before(x, y)"), "x", ["a"])


class TestCompileSentence:
    def test_regular_language_even_a(self):
        # "the number of a-nodes is even" is MSO-definable; spot-check via
        # an explicit even/odd set-partition sentence.
        sentence = parse_mso(
            "exists E (exists O ("
            "  forall x ((x in E | x in O) & ~(x in E & x in O))"
            "  & forall x (label_b(x) -> x in E)"
            "))"
        )
        dta = compile_sentence(sentence, ["a", "b"])
        # The sentence above is satisfiable everywhere; just check totality.
        assert dta.accepts(parse_sexpr("a(b)"))

    def test_sentence_with_free_vars_rejected(self):
        with pytest.raises(MSOError):
            compile_sentence(parse_mso("leaf(x)"), ["a"])

    def test_has_ab_edge_language(self):
        sentence = parse_mso(
            "exists x exists y (firstchild(x, y) & label_a(x) & label_b(y))"
        )
        dta = compile_sentence(sentence, ["a", "b"])
        assert dta.accepts(parse_sexpr("a(b)"))
        assert not dta.accepts(parse_sexpr("b(a)"))
        assert not dta.accepts(parse_sexpr("a(a, b)"))  # b is not a firstchild
        assert dta.accepts(parse_sexpr("b(a(b), a)"))


class TestTheorem44Anatomy:
    def test_emitted_program_is_monadic_and_linear_evaluable(self):
        formula = parse_mso("exists y (child(y, x) & label_a(y))")
        program, query = mso_to_datalog(formula, "x", ["a", "b"])
        assert program.is_monadic()
        structure = UnrankedStructure(parse_sexpr("a(b(a), a(b))"))
        result = evaluate(program, structure)
        # The Theorem 4.2 fragment applies: auto picks its hot path (the
        # propagation kernel) and the grounding engine agrees.
        assert result.method == "kernel"
        ground = evaluate(program, structure, method="ground")
        assert result.query_result() == ground.query_result()
        assert result.query_result() == query.select_ids(structure)


class TestReachableStateLowering:
    """The emitted program keeps only the states that can hold and drops
    the label atom where every label agrees: it must still select exactly
    what the two-pass automaton evaluation selects."""

    @pytest.mark.parametrize("text", [text for text, _ in QUERIES] + MORE_QUERIES)
    def test_program_equals_select_ids(self, text):
        query = compile_query(parse_mso(text), "x", ["a", "b", "c"])
        program = unary_dta_to_datalog(query)
        assert program.is_monadic()
        seed = sum(map(ord, text))
        # Trees over the whole alphabet and over part of it (where the
        # label-free rules meet labels that never occur).
        for labels in (("a", "b", "c"), ("a", "b"), ("c",)):
            for tree, structure in random_structures(
                seed=seed, count=12, max_size=30, labels=labels
            ):
                result = evaluate(program, structure, method="kernel")
                assert result.query_result() == query.select_ids(structure), str(tree)

    @pytest.mark.parametrize(
        "text", ["label_td(x)", "exists y (child(y, x) & label_tr(y))"]
    )
    def test_catalog_label_programs_stay_small(self, text):
        # The full |Sigma| * |Q|^2 product emitted 478 and 844 rules here.
        labels = html_snapshot(catalog_page(seed=7, items=640)).labels
        assert len(labels) == 13
        program, _ = mso_to_datalog(parse_mso(text), "x", labels)
        assert len(program.rules) <= 30
