"""Compile-once query plans and the shared indexed-document runtime.

Covers the compiled engine of :mod:`repro.datalog.plan` (cross-checked
against every interpreted strategy on randomized programs), the
:class:`repro.structures.IndexedStructure` runtime, and the batch wrapping
APIs of :class:`repro.wrap.Wrapper`.
"""

import random

import pytest

from repro.datalog.engine import compile_program, evaluate
from repro.datalog.grounding import grounding_applicable
from repro.datalog.parser import parse_program
from repro.datalog.program import Program
from repro.datalog.seminaive import evaluate_seminaive
from repro.errors import DatalogError
from repro.structures import GenericStructure, IndexedStructure, as_indexed
from repro.trees import parse_sexpr
from repro.trees.generate import random_tree
from repro.trees.unranked import UnrankedStructure
from repro.wrap import extraction
from repro.wrap.extraction import Wrapper

from tests.helpers_shared import random_structures


class TestIndexedStructure:
    def test_idempotent_wrapping(self):
        base = GenericStructure(2, {"u": [0]})
        indexed = as_indexed(base)
        assert as_indexed(indexed) is indexed
        assert IndexedStructure(indexed).base is base

    def test_caches_relations_and_functional(self):
        structure = UnrankedStructure(parse_sexpr("a(b, c)"))
        indexed = as_indexed(structure)
        assert indexed.relation("leaf") is indexed.relation("leaf")
        assert indexed.functional("firstchild") == structure.functional("firstchild")
        assert indexed.size == 3

    def test_multi_position_index(self):
        base = GenericStructure(
            4, {"t": [(0, 1, 2), (0, 1, 3), (1, 1, 2)]}
        )
        indexed = as_indexed(base)
        assert sorted(indexed.index("t", (0, 1))[(0, 1)]) == [(0, 1, 2), (0, 1, 3)]
        assert indexed.index("t", (2,))[(2,)] == [(0, 1, 2)] or sorted(
            indexed.index("t", (2,))[(2,)]
        ) == [(0, 1, 2), (1, 1, 2)]

    def test_delegates_tree_capabilities(self):
        structure = UnrankedStructure(parse_sexpr("a(b)"))
        indexed = as_indexed(structure)
        assert indexed.root_node is structure.root_node
        assert indexed.node(1).label == "b"
        assert indexed.label_of(0) == "a"


class TestGenericStructureArity:
    """Regression: documented behavior of ``arity`` on edge cases."""

    def test_empty_relation_defaults_to_arity_one(self):
        structure = GenericStructure(3, {"empty": []})
        assert structure.has_relation("empty")
        assert structure.relation("empty") == frozenset()
        assert structure.arity("empty") == 1

    def test_unknown_relation_raises(self):
        structure = GenericStructure(3, {})
        with pytest.raises(DatalogError):
            structure.arity("nothere")
        with pytest.raises(DatalogError):
            structure.relation("nothere")


class TestCompiledStratification:
    def test_strata_in_dependency_order(self):
        compiled = compile_program(
            parse_program(
                """
                p1(x) :- label_a(x).
                p2(x) :- p1(x).
                p2(y) :- p2(x), firstchild(x, y).
                p3(x) :- p2(x), leaf(x).
                """
            )
        )
        strata = compiled.strata
        assert strata.index({"p1"}) < strata.index({"p2"}) < strata.index({"p3"})

    def test_mutual_recursion_shares_a_stratum(self):
        compiled = compile_program(
            parse_program(
                """
                a(x) :- label_a(x).
                a(y) :- b(x), firstchild(x, y).
                b(y) :- a(x), nextsibling(x, y).
                """
            )
        )
        assert {"a", "b"} in compiled.strata

    def test_compiled_plan_reusable_across_documents(self):
        program = parse_program(
            """
            d(x) :- root(x).
            d(y) :- d(x), firstchild(x, y).
            d(y) :- d(x), nextsibling(x, y).
            """,
            query="d",
        )
        compiled = compile_program(program)
        for _, structure in random_structures(seed=7, count=5):
            expected = evaluate_seminaive(program, structure)["d"]
            got = compiled.run(structure, method="seminaive").relations["d"]
            assert got == expected

    def test_run_many(self):
        program = parse_program("p(x) :- leaf(x).", query="p")
        compiled = compile_program(program)
        structures = [s for _, s in random_structures(seed=11, count=3)]
        results = compiled.run_many(structures, method="seminaive")
        assert [r.query_result() for r in results] == [
            {v for (v,) in s.relation("leaf")} for s in structures
        ]

    def test_program_compile_method(self):
        program = parse_program("p(x) :- leaf(x).", query="p")
        compiled = program.compile()
        structure = UnrankedStructure(parse_sexpr("a(b, c)"))
        assert compiled.run(structure).query_result() == {1, 2}


class TestCompiledEdgeCases:
    def test_zero_ary_and_constants(self):
        program = parse_program(
            """
            seen :- label_b(x).
            p(x) :- seen, firstchild(0, x).
            """,
            query="p",
        )
        structure = UnrankedStructure(parse_sexpr("a(b, c)"))
        result = compile_program(program).run(structure, method="seminaive")
        assert result.query_result() == {1}
        assert result.holds("seen")

    def test_repeated_variables_and_ternary_index(self):
        structure = GenericStructure(
            5,
            {
                "t": [(0, 1, 0), (1, 2, 3), (2, 2, 2), (3, 1, 3)],
                "u": [1, 2],
            },
        )
        program = parse_program(
            """
            p(x) :- u(x).
            r(x) :- t(x, y, x), p(y).
            q(z) :- p(y), t(x, y, z).
            """
        )
        compiled = compile_program(program).run(structure, method="seminaive")
        interpreted = evaluate_seminaive(program, structure)
        assert compiled.relations == interpreted
        assert compiled.relations["r"] == {(0,), (2,), (3,)}

    def test_binary_intensional_transitive_closure(self):
        structure = GenericStructure(5, {"edge": [(0, 1), (1, 2), (2, 3)]})
        program = parse_program(
            """
            tc(x, y) :- edge(x, y).
            tc(x, z) :- tc(x, y), edge(y, z).
            """
        )
        result = compile_program(program).run(structure, method="seminaive")
        assert result.relations["tc"] == {
            (0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)
        }

    def test_missing_extensional_relation_raises(self):
        program = parse_program("p(x) :- nothere(x).")
        structure = GenericStructure(2, {})
        with pytest.raises(DatalogError):
            compile_program(program).run(structure, method="seminaive")

    def test_declared_predicates_appear_empty(self):
        base = parse_program("p(x) :- leaf(x).")
        program = Program(base.rules, declared=("ghost",))
        structure = UnrankedStructure(parse_sexpr("a(b)"))
        result = compile_program(program).run(structure, method="seminaive")
        assert result.relations["ghost"] == set()


def _random_tree_program(rng):
    """A random monadic program over the tree signature, with recursion."""
    rules = ["p0(x) :- label_a(x)."]
    preds = ["p0"]
    for i in range(1, rng.randint(2, 7)):
        source = rng.choice(preds)
        other = rng.choice(preds)
        kind = rng.randrange(6)
        if kind == 0:
            rules.append(f"p{i}(x) :- {source}(x), label_b(x).")
        elif kind == 1:
            rules.append(f"p{i}(y) :- {source}(x), firstchild(x, y).")
        elif kind == 2:
            rules.append(f"p{i}(y) :- {source}(x), nextsibling(x, y).")
        elif kind == 3:
            rules.append(f"p{i}(x) :- {source}(y), nextsibling(x, y).")
        elif kind == 4:
            rules.append(f"p{i}(x) :- {source}(x), {other}(x).")
        else:
            rules.append(f"p{i}(x) :- leaf(x), {source}(y).")
        preds.append(f"p{i}")
    # Close a recursive loop back into p0.
    rules.append(f"p0(y) :- {preds[-1]}(x), firstchild(x, y).")
    return parse_program("\n".join(rules), query=preds[-1])


def _random_generic_program(rng):
    """A random program (not necessarily monadic) over a generic signature."""
    rules = [
        "p(x) :- u(x).",
        "p(y) :- p(x), e(x, y).",
        "tc(x, y) :- e(x, y).",
    ]
    if rng.random() < 0.7:
        rules.append("tc(x, z) :- tc(x, y), e(y, z).")
    if rng.random() < 0.7:
        rules.append("r(x) :- t(x, y, z), p(y), p(z).")
        rules.append("mark :- r(x).")
        rules.append("s(x) :- mark, u(x).")
    if rng.random() < 0.5:
        rules.append("q(x) :- tc(x, y), tc(y, x).")
    return parse_program("\n".join(rules))


class TestCrossStrategyEquivalence:
    """Randomized property test: ``compiled == seminaive == naive`` always,
    and ``== ground`` whenever the Theorem 4.2 strategy applies."""

    def test_tree_programs_all_strategies_agree(self):
        rng = random.Random(2026)
        for _ in range(25):
            program = _random_tree_program(rng)
            tree = random_tree(rng, rng.randint(1, 14), labels=("a", "b"))
            structure = as_indexed(UnrankedStructure(tree))
            compiled = compile_program(program)
            reference = evaluate_seminaive(program, structure)
            assert compiled.run(structure, method="seminaive").relations == reference
            assert evaluate(program, structure, method="naive").relations == reference
            if compiled.grounding_applicable(structure):
                ground = compiled.run(structure, method="ground").relations
                for pred, tuples in reference.items():
                    assert ground.get(pred, set()) == tuples, (
                        f"{pred} differs on {tree}\n{program}"
                    )

    def test_generic_programs_strategies_agree(self):
        rng = random.Random(4096)
        for _ in range(25):
            size = rng.randint(1, 9)
            structure = GenericStructure(
                size,
                {
                    "e": {
                        (rng.randrange(size), rng.randrange(size))
                        for _ in range(2 * size)
                    },
                    "u": {(rng.randrange(size),) for _ in range(size)},
                    "t": {
                        (
                            rng.randrange(size),
                            rng.randrange(size),
                            rng.randrange(size),
                        )
                        for _ in range(size)
                    },
                },
            )
            program = _random_generic_program(rng)
            reference = evaluate_seminaive(program, structure)
            compiled = compile_program(program).run(structure, method="seminaive")
            naive = evaluate(program, structure, method="naive")
            assert compiled.relations == reference
            assert naive.relations == reference

    def test_auto_method_matches_explicit(self):
        program = parse_program(
            "p(x) :- label_a(x).\np(y) :- p(x), firstchild(x, y).", query="p"
        )
        for _, structure in random_structures(seed=13, count=8):
            auto = evaluate(program, structure)
            assert auto.method == "kernel"
            assert grounding_applicable(program, structure)
            for explicit_method in ("kernel", "ground", "seminaive"):
                explicit = evaluate(program, structure, method=explicit_method)
                assert auto.query_result() == explicit.query_result()


class TestWrapperBatching:
    def _wrapper(self):
        wrapper = Wrapper()
        wrapper.add_datalog(
            "item", parse_program("item(x) :- label_li(x).", query="item")
        )
        wrapper.add_datalog(
            "bold", parse_program("bold(x) :- label_b(x).", query="bold")
        )
        wrapper.add_datalog(
            "root", parse_program("top(x) :- root(x).", query="top")
        )
        return wrapper

    def test_wrap_builds_structure_once(self, monkeypatch):
        built = []
        real = extraction.UnrankedStructure

        def counting(tree):
            built.append(tree)
            return real(tree)

        monkeypatch.setattr(extraction, "UnrankedStructure", counting)
        wrapper = self._wrapper()
        tree = parse_sexpr("ul(li(b), li)")
        out = wrapper.wrap(tree)
        assert out.to_sexpr() == "result(root(item(bold), item))"
        assert len(built) == 1

    def test_extract_many_one_indexed_structure_per_document(self, monkeypatch):
        wrapped = []
        real = extraction.as_indexed

        def counting(structure):
            indexed = real(structure)
            wrapped.append(indexed)
            return indexed

        monkeypatch.setattr(extraction, "as_indexed", counting)
        wrapper = self._wrapper()
        trees = [parse_sexpr("ul(li)"), parse_sexpr("ul(li, li)"), parse_sexpr("ul(b)")]
        results = wrapper.extract_many(trees)
        # Exactly one IndexedStructure per document, shared by all three
        # extraction functions.
        assert len(wrapped) == len(trees)
        assert len({id(s) for s in wrapped}) == len(trees)
        assert results[0]["item"] == {1}
        assert results[1]["item"] == {1, 2}
        assert results[2]["bold"] == {1}

    def test_programs_compiled_once_across_batch(self, monkeypatch):
        compilations = []
        real = extraction.compile_program

        def counting(program):
            compilations.append(program)
            return real(program)

        monkeypatch.setattr(extraction, "compile_program", counting)
        wrapper = self._wrapper()
        trees = [parse_sexpr("ul(li)"), parse_sexpr("ul(li, li)")]
        wrapper.extract_many(trees)
        wrapper.extract_many(trees)
        wrapper.wrap_many(trees)
        # Three datalog extraction functions -> exactly three
        # compilations, ever.
        assert len(compilations) == 3

    def test_wrap_many_matches_wrap(self):
        wrapper = self._wrapper()
        trees = [parse_sexpr("ul(li(b), li)"), parse_sexpr("ul(b)")]
        assert [o.to_sexpr() for o in wrapper.wrap_many(trees)] == [
            wrapper.wrap(t).to_sexpr() for t in trees
        ]

    def test_extract_accepts_prebuilt_structure(self):
        wrapper = self._wrapper()
        tree = parse_sexpr("ul(li, b)")
        structure = as_indexed(UnrankedStructure(tree))
        assert wrapper.extract(tree, structure) == wrapper.extract(tree)
