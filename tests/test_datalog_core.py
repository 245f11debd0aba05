"""Tests for datalog syntax, parsing, analysis and the Horn-SAT core."""

import pytest

from repro.datalog.analysis import (
    dependency_graph,
    ears,
    is_acyclic,
    is_connected,
    is_recursive,
    query_graph_edges,
    split_disconnected,
    variable_components,
)
from repro.datalog.hornsat import AtomInterner, solve_horn
from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.program import Program, Rule
from repro.datalog.terms import Atom, Constant, Variable, var
from repro.errors import DatalogError, ParseError


class TestTerms:
    def test_atom_str(self):
        assert str(Atom("p", (var("x"), Constant(3)))) == "p(x, 3)"

    def test_propositional_atom(self):
        atom = Atom("b")
        assert atom.arity == 0
        assert atom.is_ground

    def test_substitute(self):
        atom = Atom("p", (var("x"), var("y")))
        out = atom.substitute({var("x"): Constant(1)})
        assert out == Atom("p", (Constant(1), var("y")))

    def test_ground_tuple(self):
        atom = Atom("p", (var("x"), Constant(7)))
        assert atom.ground_tuple({var("x"): 2}) == (2, 7)


class TestRules:
    def test_unsafe_rule_rejected(self):
        with pytest.raises(DatalogError):
            Rule(Atom("p", (var("x"),)), [Atom("q", (var("y"),))])

    def test_guard_detection(self):
        rule = parse_rule("p(x) :- r(x, y), q(y).")
        assert rule.guard() == Atom("r", (var("x"), var("y")))

    def test_no_guard(self):
        rule = parse_rule("p(x) :- q(x), s(y).")
        assert rule.guard() is None

    def test_rule_equality_and_hash(self):
        a = parse_rule("p(x) :- q(x).")
        b = parse_rule("p(x) :- q(x).")
        assert a == b and hash(a) == hash(b)


class TestProgram:
    def test_intensional_extensional(self):
        program = parse_program("p(x) :- q(x). q(x) :- e(x).")
        assert program.intensional_predicates() == {"p", "q"}
        assert program.extensional_predicates() == {"e"}

    def test_is_monadic(self):
        assert parse_program("p(x) :- e(x, y).").is_monadic()
        assert not parse_program("p(x, y) :- e(x, y).").is_monadic()

    def test_query_must_be_intensional(self):
        with pytest.raises(DatalogError):
            parse_program("p(x) :- e(x).", query="e")

    def test_declared_predicates(self):
        program = Program(
            [parse_rule("p(x) :- ghost(x).")], declared={"ghost", "p"}
        )
        assert "ghost" in program.intensional_predicates()

    def test_size_counts_atoms(self):
        program = parse_program("p(x) :- q(x), r(x).")
        assert program.size() == 3

    def test_fresh_predicate(self):
        program = parse_program("p(x) :- q(x).")
        assert program.fresh_predicate("p") == "p_1"


class TestParser:
    def test_variables_vs_predicates(self):
        rule = parse_rule("p(x0) :- label_a(x0).")
        assert rule.head.args[0] == var("x0")

    def test_constants(self):
        rule = parse_rule("p(x) :- e(x, 3).")
        assert rule.body[0].args[1] == Constant(3)

    def test_comments(self):
        program = parse_program("% comment\np(x) :- q(x). % more\n")
        assert len(program.rules) == 1

    def test_both_arrows(self):
        assert parse_rule("p(x) <- q(x).") == parse_rule("p(x) :- q(x).")

    def test_facts(self):
        rule = parse_rule("p(1).")
        assert rule.body == ()

    def test_error_on_bad_term(self):
        with pytest.raises(ParseError):
            parse_rule("p(Q) :- q(Q).")

    def test_error_on_missing_dot(self):
        with pytest.raises(ParseError):
            parse_program("p(x) :- q(x)")

    def test_zero_ary_atom_ends_a_body(self):
        (rule,) = parse_program("item(x) :- label_li(x), seen.").rules
        assert [atom.pred for atom in rule.body] == ["label_li", "seen"]
        assert rule.body[1].arity == 0
        # The same atoms as the order that always parsed.
        assert set(rule.body) == set(parse_rule("item(x) :- seen, label_li(x).").body)

    def test_zero_ary_atom_ends_the_last_rule_of_a_program(self):
        program = parse_program(
            "seen :- label_b(x).\n"
            "item(x) :- label_li(x),\n"
            "    seen.\t% the last rule\n"
            "done."
        )
        assert [str(rule.head) for rule in program.rules] == ["seen", "item(x)", "done"]
        assert [atom.pred for atom in program.rules[1].body] == ["label_li", "seen"]
        assert program.rules[2].body == ()

    def test_dots_inside_a_name_stay_in_the_name(self):
        (rule,) = parse_program("p(x) :- before[a.b](x).").rules
        assert rule.body[0].pred == "before[a.b]"


class TestAnalysis:
    def test_query_graph_edges(self):
        rule = parse_rule("p(x) :- r(x, y), s(y, z).")
        assert len(query_graph_edges(rule)) == 2

    def test_connectedness(self):
        assert is_connected(parse_rule("p(x) :- r(x, y), q(y)."))
        assert not is_connected(parse_rule("p(x) :- q(x), q(y)."))

    def test_single_variable_rule_connected(self):
        assert is_connected(parse_rule("p(x) :- q(x), s(x)."))

    def test_acyclicity(self):
        assert is_acyclic(parse_rule("p(x) :- r(x, y), r(y, z)."))
        assert not is_acyclic(parse_rule("p(x) :- r(x, y), s(y, x)."))

    def test_parallel_edges_are_cyclic(self):
        # Footnote 10 of the paper.
        assert not is_acyclic(parse_rule("p(x) :- r(x, y), s(x, y)."))

    def test_self_loop_is_cyclic(self):
        assert not is_acyclic(parse_rule("p(x) :- r(x, x)."))

    def test_ears(self):
        rule = parse_rule("p(x) :- r(x, y), s(y, z).")
        assert set(ears(rule)) == {var("x"), var("z")}

    def test_variable_components(self):
        rule = parse_rule("p(x) :- q(x), r(y, z).")
        components = variable_components(rule)
        assert len(components) == 2

    def test_split_disconnected(self):
        program = parse_program("p(x) :- p1(x), p2(y).")
        split = split_disconnected(program)
        assert len(split.rules) == 2
        helper = [r for r in split.rules if r.head.arity == 0][0]
        assert helper.body == (Atom("p2", (var("y"),)),)

    def test_split_preserves_connected(self):
        program = parse_program("p(x) :- r(x, y), q(y).")
        assert split_disconnected(program).rules == program.rules

    def test_dependency_graph_and_recursion(self):
        program = parse_program("p(x) :- q(x). q(x) :- p(x).")
        graph = dependency_graph(program)
        assert graph["p"] == {"q"}
        assert is_recursive(program)
        assert not is_recursive(parse_program("p(x) :- q(x). q(x) :- e(x)."))


class TestHornSat:
    def test_interner(self):
        interner = AtomInterner()
        a = interner.intern(("p", (1,)))
        assert interner.intern(("p", (1,))) == a
        assert interner.key_of(a) == ("p", (1,))
        assert interner.lookup(("q", ())) == -1

    def test_simple_propagation(self):
        # 0 <- 1, 2;  1 <- ;  2 <- 1.
        true = solve_horn(3, [(0, [1, 2]), (1, []), (2, [1])], [])
        assert true == {0, 1, 2}

    def test_facts_parameter(self):
        true = solve_horn(2, [(1, [0])], [0])
        assert true == {0, 1}

    def test_no_spurious_derivation(self):
        true = solve_horn(3, [(0, [1, 2]), (1, [])], [])
        assert true == {1}

    def test_duplicate_body_atoms(self):
        true = solve_horn(2, [(1, [0, 0])], [0])
        assert true == {0, 1}

    def test_cycle_not_self_supporting(self):
        # p <- q; q <- p: minimal model is empty.
        assert solve_horn(2, [(0, [1]), (1, [0])], []) == set()

    def test_chain_scales(self):
        n = 3000
        rules = [(i + 1, [i]) for i in range(n)]
        true = solve_horn(n + 1, rules, [0])
        assert len(true) == n + 1
