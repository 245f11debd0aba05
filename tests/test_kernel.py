"""The linear-time propagation kernel and its columnar tree snapshots.

Covers :mod:`repro.datalog.kernel` (cross-checked against the semi-naive,
naive, grounding and compiled-plan engines on randomized programs and
trees), :mod:`repro.trees.snapshot`, the kernel routing of
``evaluate(method="auto")``, batch wrapping through the kernel, and the
caching/arity satellites on :mod:`repro.structures`.
"""

import random

import pytest

from repro.datalog.engine import compile_program, evaluate
from repro.datalog.kernel import compile_kernel
from repro.datalog.parser import parse_program
from repro.datalog.program import Program
from repro.datalog.seminaive import evaluate_seminaive
from repro.errors import DatalogError
from repro.structures import GenericStructure, IndexedStructure, as_indexed
from repro.trees import parse_sexpr
from repro.trees.generate import random_binary_tree, random_tree
from repro.trees.ranked import RankedStructure
from repro.trees.unranked import UnrankedStructure

from tests.helpers_shared import random_structures


class TestTreeSnapshot:
    def test_columns_match_relations(self):
        structure = UnrankedStructure(parse_sexpr("a(b(c, d), e)"))
        snap = structure.snapshot()
        assert snap.size == structure.size
        assert list(snap.parent) == [-1, 0, 1, 1, 0]
        assert list(snap.firstchild) == [1, 2, -1, -1, -1]
        assert list(snap.nextsibling) == [-1, 4, 3, -1, -1]
        assert list(snap.prevsibling) == [-1, -1, -1, 2, 1]
        assert list(snap.lastchild) == [4, 3, -1, -1, -1]
        for name in ("firstchild", "nextsibling", "lastchild"):
            forward = snap.forward_map(name)
            expected = dict(structure.relation(name))
            assert {
                i: v for i, v in enumerate(forward) if v >= 0
            } == expected, name

    def test_unary_masks_match_relations(self):
        structure = UnrankedStructure(parse_sexpr("a(b(a), a, c)"))
        snap = structure.snapshot()
        for name in (
            "dom", "root", "leaf", "lastsibling", "firstsibling",
            "label_a", "label_b", "label_zzz", "notlabel_a",
        ):
            mask = snap.unary_mask(name)
            expected = {v for (v,) in structure.relation(name)}
            assert {i for i in range(snap.size) if mask[i]} == expected, name
            assert set(snap.unary_nodes(name)) == expected, name

    def test_child_backward_is_parent(self):
        structure = UnrankedStructure(parse_sexpr("a(b(c), d)"))
        snap = structure.snapshot()
        assert snap.backward_map("child") == snap.parent
        assert snap.forward_map("child") is None
        assert snap.branches_forward("child")

    def test_snapshot_cached_on_structure_and_index(self):
        structure = UnrankedStructure(parse_sexpr("a(b)"))
        assert structure.snapshot() is structure.snapshot()
        indexed = as_indexed(structure)
        assert indexed.snapshot() is structure.snapshot()
        assert indexed.snapshot() is indexed.snapshot()

    def test_generic_structures_have_no_snapshot(self):
        indexed = as_indexed(GenericStructure(2, {"u": [0]}))
        assert indexed.snapshot() is None

    def test_ranked_schema_gating(self):
        tree = parse_sexpr("f(c, f(c, c))")
        snap = RankedStructure(tree, max_rank=2).snapshot()
        assert snap.schema == "ranked"
        forward = snap.forward_map("child2")
        assert {i: v for i, v in enumerate(forward) if v >= 0} == {0: 2, 2: 4}
        backward = snap.backward_map("child1")
        assert {i: v for i, v in enumerate(backward) if v >= 0} == {1: 0, 3: 2}
        # Out-of-schema names resolve to nothing; generic ``child`` is the
        # union of the child_k bijections (backward = parent, forward by
        # enumeration) on every schema.
        assert snap.forward_map("child3") is None
        assert snap.backward_map("child") == snap.parent
        assert snap.unary_mask("lastsibling") is None
        assert snap.branches_forward("child")


def _random_kernel_program(rng, labels=("a", "b")):
    """A random monadic program over the tree signature with recursion,
    ``child`` traversals, intersections and disconnected rules.

    ``labels`` supplies the two label names mentioned by the rules, so the
    same generator works over s-expression trees (``a``/``b``) and HTML
    tag soup (``li``/``b``/...).
    """
    la, lb = labels[0], labels[1]
    shapes = [
        "p{i}(x) :- {s}(x), label_%s(x)." % lb,
        "p{i}(y) :- {s}(x), firstchild(x, y).",
        "p{i}(y) :- {s}(x), nextsibling(x, y).",
        "p{i}(x) :- {s}(y), nextsibling(x, y).",
        "p{i}(x) :- {s}(x), {o}(x).",
        "p{i}(x) :- leaf(x), {s}(y).",
        "p{i}(x) :- child(x, y), {s}(y).",
        "p{i}(y) :- {s}(x), child(x, y).",
        "p{i}(x) :- lastchild(x, y), {s}(y), label_%s(x)." % la,
        "p{i}(x) :- child(x, y), child(x, z), nextsibling(y, z), {s}(z).",
        "p{i}(x) :- firstsibling(x), {s}(x).",
        "p{i}(x) :- notlabel_%s(x), {s}(x)." % lb,
    ]
    rules = ["p0(x) :- label_%s(x)." % la]
    preds = ["p0"]
    for i in range(1, rng.randint(2, 8)):
        shape = rng.choice(shapes)
        rules.append(
            shape.format(i=i, s=rng.choice(preds), o=rng.choice(preds))
        )
        preds.append(f"p{i}")
    rules.append(f"p0(y) :- {preds[-1]}(x), firstchild(x, y).")
    return parse_program("\n".join(rules), query=preds[-1])


class TestKernelEquivalence:
    """Randomized property tests: kernel == seminaive == ground ==
    compiled-plan on random trees x random monadic programs."""

    def test_unranked_programs_all_strategies_agree(self):
        rng = random.Random(20260729)
        kernel_hits = 0
        for _ in range(40):
            program = _random_kernel_program(rng)
            tree = random_tree(rng, rng.randint(1, 16), labels=("a", "b"))
            structure = as_indexed(UnrankedStructure(tree))
            compiled = compile_program(program)
            reference = evaluate_seminaive(program, structure)
            auto = compiled.run(structure)
            if auto.method == "kernel":
                kernel_hits += 1
            assert auto.relations == reference, f"auto on {tree}\n{program}"
            assert (
                compiled.run(structure, method="seminaive").relations == reference
            )
            if compiled.grounding_applicable(structure):
                ground = compiled.run(structure, method="ground").relations
                for pred, tuples in reference.items():
                    assert ground.get(pred, set()) == tuples
        # The generator stays inside the kernel fragment.
        assert kernel_hits == 40

    def test_tmnf_shaped_programs_agree(self):
        # Rules already in the three TMNF shapes of Definition 5.1.
        program = parse_program(
            """
            p0(x) :- label_a(x).
            p1(x) :- p0(x0), firstchild(x0, x).
            p2(x) :- p1(x0), nextsibling(x0, x).
            p2(x) :- p1(x).
            p3(x) :- p2(x), p0(x).
            p0(x) :- p3(x0), firstchild(x, x0).
            """,
            query="p3",
        )
        kernel = compile_kernel(program)
        assert kernel is not None and kernel.lowering.route == "direct"
        for _, structure in random_structures(seed=97, count=10):
            reference = evaluate_seminaive(program, structure)
            assert kernel.run(structure) == reference

    def test_ranked_programs_agree(self):
        rng = random.Random(55)
        program = parse_program(
            """
            q(x) :- label_f(x).
            q(y) :- q(x), child1(x, y).
            r(x) :- q(x), child2(x, y), leaf(y).
            r(x) :- r(y), child1(x, y), root(x).
            """,
            query="r",
        )
        for _ in range(15):
            structure = RankedStructure(
                random_binary_tree(rng, rng.randint(1, 14)), max_rank=2
            )
            reference = evaluate_seminaive(program, structure)
            auto = evaluate(program, structure)
            assert auto.method == "kernel"
            assert auto.relations == reference

    def test_branchy_rules_take_tmnf_route_and_agree(self):
        rng = random.Random(7)
        program = parse_program(
            """
            q(x) :- label_b(x).
            p(x) :- q(x), child(x, y), child(y, z), label_a(z).
            """,
            query="p",
        )
        kernel = compile_kernel(program)
        assert kernel is not None and kernel.lowering.route == "tmnf"
        assert kernel.lowering.max_branches == 0
        for _ in range(25):
            tree = random_tree(rng, rng.randint(1, 14), labels=("a", "b"))
            structure = UnrankedStructure(tree)
            assert kernel.run(structure) == evaluate_seminaive(program, structure)

    def test_sibling_branch_through_parent_takes_tmnf_route(self):
        # Regression: a branch reached through the many-to-one ``parent``
        # map enumerates a shared parent's children once per anchored
        # sibling -- quadratic on star trees.  Such lowerings must be
        # rejected as superlinear and re-lowered through TMNF.
        rng = random.Random(13)
        program = parse_program(
            "p(x) :- child(x, y), child(x, z), label_a(y), label_b(z).",
            query="p",
        )
        kernel = compile_kernel(program)
        assert kernel is not None
        assert kernel.lowering.route == "tmnf"
        assert not kernel.lowering.superlinear
        for _ in range(25):
            tree = random_tree(rng, rng.randint(1, 14), labels=("a", "b"))
            structure = UnrankedStructure(tree)
            assert kernel.run(structure) == evaluate_seminaive(program, structure)

    def test_generic_child_over_ranked_trees_stays_in_kernel(self):
        # Satellite (PR 5): one-branch generic-``child`` programs bind
        # directly over ranked snapshots (backward = parent, forward by
        # enumeration), with the union-of-child_k semantics.
        rng = random.Random(91)
        program = parse_program(
            """
            q(x) :- label_f(x).
            p(y) :- q(x), child(x, y).
            p(x) :- p(y), child(x, y), label_f(x).
            """,
            query="p",
        )
        for _ in range(15):
            structure = RankedStructure(
                random_binary_tree(rng, rng.randint(1, 14), "f", "c"),
                max_rank=2,
            )
            reference = evaluate_seminaive(program, structure)
            auto = evaluate(program, structure)
            assert auto.method == "kernel"
            assert auto.relations == reference

    def test_branchy_ranked_programs_take_ranked_tmnf_route(self):
        # Satellite (PR 5): a branching-heavy program over ranked trees
        # re-lowers through the *ranked* TMNF normalization (generic
        # ``child`` expanded into child1|child2 per Lemma 5.4) instead of
        # falling back to the general engine.
        rng = random.Random(23)
        program = parse_program(
            """
            q(x) :- label_f(x).
            p(x) :- q(x), child(x, y), child(y, z), label_c(z).
            """,
            query="p",
        )
        kernel = compile_kernel(program)
        assert kernel is not None
        ranked_variant = kernel._ranked_variant(2)
        assert ranked_variant is not None
        assert ranked_variant.route == "tmnf-ranked"
        assert ranked_variant.max_branches == 0
        for _ in range(20):
            structure = RankedStructure(
                random_binary_tree(rng, rng.randint(1, 14), "f", "c"),
                max_rank=2,
            )
            assert kernel._bind(structure)[0] is ranked_variant
            reference = evaluate_seminaive(program, structure)
            auto = evaluate(program, structure)
            assert auto.method == "kernel"
            assert auto.relations == reference
        # The same compiled kernel still rides the unranked TMNF variant
        # over unranked documents.
        tree = random_tree(rng, 12, labels=("f", "c"))
        structure = UnrankedStructure(tree)
        assert kernel.run(structure) == evaluate_seminaive(program, structure)

    def test_ranked_variant_is_rank_gated(self):
        # A child1|child2 expansion compiled for rank 2 must never bind a
        # rank-3 snapshot (third children would be invisible).
        program = parse_program(
            """
            q(x) :- label_f(x).
            p(x) :- q(x), child(x, y), child(y, z), label_c(z).
            """,
            query="p",
        )
        kernel = compile_kernel(program)
        variant = kernel._ranked_variant(2)
        assert variant is not None
        tree = parse_sexpr("f(c, c, f(c, c, c))")
        structure = RankedStructure(tree, max_rank=3)
        reference = evaluate_seminaive(program, structure)
        result = evaluate(program, structure)
        assert result.relations == reference
        assert kernel._ranked_variant(3) is not None
        assert kernel._bind(structure)[0] is kernel._ranked_variant(3)

    def test_zero_ary_heads_and_declared_predicates(self):
        base = parse_program(
            """
            seen :- label_b(x).
            p(x) :- seen, leaf(x).
            q(x) :- p(x), label_a(y).
            """,
            query="q",
        )
        program = Program(base.rules, query="q", declared=("ghost",))
        for _, structure in random_structures(seed=3, count=10):
            reference = evaluate_seminaive(program, structure)
            auto = evaluate(program, structure)
            assert auto.method == "kernel"
            assert auto.relations == reference
            assert auto.relations["ghost"] == set()


class TestKernelRunsOnlyLinearLowerings:
    """Every lowering the kernel binds is linear; a program or document
    with none runs on seminaive, with the same relations."""

    def test_two_branch_constant_rule_lowers_via_tmnf(self):
        # Two ``child`` enumerations from one node make the direct lowering
        # superlinear; the body constant is the unary relation
        # ``@const:0``, which TMNF accepts like a label.
        program = parse_program(
            "p(x) :- child(0, x), child(x, y), child(x, z), "
            "label_a(y), label_b(z).",
            query="p",
        )
        lowering = compile_kernel(program).lowering
        assert lowering.route == "tmnf"
        assert not lowering.superlinear
        for _, structure in random_structures(seed=31, count=15):
            result = evaluate(program, structure)
            assert result.method == "kernel"
            assert result.relations == evaluate_seminaive(program, structure)

    def test_constants_and_zero_ary_predicates_always_lower_linearly(self):
        # Every monadic program over ``tau_ur`` without head constants has
        # a linear lowering: here body constants (in range, out of range
        # and negative), ground atoms and 0-ary predicates meet rules that
        # need two ``child`` enumerations, which only TMNF lowers.
        shapes = [
            "q{i}(x) :- {s}(x), child(x, y), child(x, z), label_a(y), label_b(z).",
            "q{i}(x) :- child({c}, x), child(x, y), child(x, z), {s}(y), label_b(z).",
            "q{i}(x) :- child(y, x), child(y, z), {s}(z), child({c}, y).",
            "q{i}(x) :- {s}(x), child(x, y), nextsibling(y, {c}).",
            "q{i}(x) :- {s}({c}), label_b(x).",
            "q{i}(x) :- {g}, child(x, y), child(x, z), {s}(y), {s}(z).",
            "g{i} :- {s}(x), child(x, y), child(x, z), label_a(y), label_b(z).",
            "g{i} :- {s}({c}).",
            "q{i}(x) :- {g}, {s}(x).",
        ]
        rng = random.Random(34)
        routes = set()
        for _ in range(40):
            rules = ["q0(x) :- label_a(x).", "g0 :- label_b(x)."]
            preds = {"q": ["q0"], "g": ["g0"]}
            for i in range(1, rng.randint(2, 5)):
                rules.append(
                    rng.choice(shapes).format(
                        i=i, s=rng.choice(preds["q"]), g=rng.choice(preds["g"]),
                        c=rng.choice((0, 1, 3, 9, -1)),
                    )
                )
                preds[rules[-1][0]].append(f"{rules[-1][0]}{i}")
            program = parse_program("\n".join(rules))
            kernel = compile_kernel(program)
            assert kernel is not None, program
            assert not kernel.lowering.superlinear, program
            routes.add(kernel.lowering.route)
            for _, structure in random_structures(seed=rng.randrange(99), count=4):
                assert kernel.run(structure) == evaluate_seminaive(
                    program, structure
                ), program
        assert routes == {"direct", "tmnf"}

    def test_ranked_expansion_past_the_copy_cap_leaves_the_kernel(self):
        # Rank 9 expands the two generic ``child`` atoms into 9 * 9 = 81
        # rule copies, past the 64-copy cap: no ranked-TMNF lowering, and
        # the static TMNF lowering reads ``tau_ur`` relations a ranked
        # snapshot does not supply.
        program = parse_program(
            "p(x) :- child(x, y), child(x, z), label_a(y), label_b(z).",
            query="p",
        )
        plan = compile_program(program)
        rng = random.Random(5)
        for _ in range(10):
            tree = random_tree(rng, rng.randint(1, 14), labels=("a", "b"))
            structure = RankedStructure(tree, max_rank=9)
            assert not plan.kernel_applicable(structure)
            reference = evaluate_seminaive(program, structure)
            assert plan.run(structure).relations == reference
            assert evaluate(program, structure).relations == reference
        assert plan._kernel._ranked_variant(9) is None

    def test_ranked_child_programs_keep_the_ranked_route(self):
        # ``child1`` binds only ranked documents, so a program that reads it
        # and whose direct lowering is superlinear compiles with no static
        # lowering and runs the ranked-TMNF lowering of each rank.
        program = parse_program(
            "p(x) :- child1(x, x1), child(x1, y), child(x1, z), "
            "label_a(y), label_b(z).",
            query="p",
        )
        kernel = compile_kernel(program)
        assert kernel is not None and kernel.lowering is None
        rng = random.Random(17)
        for rank in (2, 3):
            for _ in range(8):
                tree = random_tree(
                    rng, rng.randint(1, 14), labels=("a", "b"), max_children=rank
                )
                structure = RankedStructure(tree, max_rank=rank)
                bound = kernel._bind(structure)
                assert bound is not None
                assert bound[0].route == "tmnf-ranked"
                assert kernel.run(structure) == evaluate_seminaive(
                    program, structure
                )
        assert not compile_program(program).kernel_applicable(
            UnrankedStructure(parse_sexpr("a(a(a, b))"))
        )

    def test_every_bound_lowering_is_linear(self):
        # ``_random_kernel_program`` reads ``tau_ur`` relations, so over
        # ranked trees it mostly binds nothing; the ranked programs below
        # read only what a ranked snapshot supplies, two-branch rules
        # included, so ranked trees bind both the direct and the
        # ranked-TMNF route.
        ranked_shapes = [
            "p{i}(y) :- {s}(x), child(x, y).",
            "p{i}(x) :- child(x, y), {s}(y), label_a(x).",
            "p{i}(y) :- {s}(x), child1(x, y).",
            "p{i}(x) :- {s}(x), child2(x, y), leaf(y).",
            "p{i}(x) :- {s}(x), child(x, y), child(y, z), label_b(z).",
            "p{i}(x) :- child(x, y), child(x, z), {s}(y), label_b(z).",
            "p{i}(x) :- notlabel_b(x), {s}(x), {o}(x).",
        ]
        rng = random.Random(1234)
        routes = {"unranked": set(), "ranked": set()}
        for _ in range(30):
            programs = [_random_kernel_program(rng)]
            rules, preds = ["p0(x) :- label_a(x)."], ["p0"]
            for i in range(1, rng.randint(2, 5)):
                rules.append(
                    rng.choice(ranked_shapes).format(
                        i=i, s=rng.choice(preds), o=rng.choice(preds)
                    )
                )
                preds.append(f"p{i}")
            programs.append(parse_program("\n".join(rules), query=preds[-1]))
            for program in programs:
                kernel = compile_kernel(program)
                assert kernel is not None, program
                structures = [
                    UnrankedStructure(
                        random_tree(rng, rng.randint(1, 14), labels=("a", "b"))
                    )
                ]
                for rank in (1, 2, 3):
                    tree = random_tree(
                        rng,
                        rng.randint(1, 14),
                        labels=("a", "b"),
                        max_children=rank,
                    )
                    structures.append(RankedStructure(tree, max_rank=rank))
                for structure in structures:
                    bound = kernel._bind(structure)
                    if bound is None:
                        continue
                    assert not bound[0].superlinear, program
                    routes[bound[1].schema].add(bound[0].route)
        assert routes == {
            "unranked": {"direct", "tmnf"},
            "ranked": {"direct", "tmnf-ranked"},
        }


class TestKernelRoutingAndFallback:
    def test_applicability_checks(self):
        program = parse_program("p(x) :- label_a(x).", query="p")
        tree_structure = UnrankedStructure(parse_sexpr("a(b)"))
        generic = GenericStructure(2, {"label_a": [0]})
        assert compile_program(program).kernel_applicable(tree_structure)
        assert not compile_program(program).kernel_applicable(generic)
        non_monadic = parse_program("t(x, y) :- firstchild(x, y).")
        assert compile_kernel(non_monadic) is None
        assert not compile_program(non_monadic).kernel_applicable(tree_structure)

    def test_auto_falls_back_cleanly_same_results(self):
        # Same program, tree vs generic structure: auto picks the kernel on
        # the tree and silently falls back elsewhere, with equal answers.
        program = parse_program(
            "p(x) :- label_a(x).\np(y) :- p(x), firstchild(x, y).", query="p"
        )
        tree = UnrankedStructure(parse_sexpr("a(b, a(b))"))
        generic = GenericStructure(
            4,
            {
                "label_a": [0, 2],
                "firstchild": [(0, 1), (2, 3)],
            },
        )
        on_tree = evaluate(program, tree)
        on_generic = evaluate(program, generic)
        assert on_tree.method == "kernel"
        assert on_generic.method != "kernel"
        assert on_tree.query_result() == on_generic.query_result() == {0, 1, 2, 3}

    def test_body_constants_anchor_instead_of_falling_back(self):
        # Satellite (PR 3): body constants pin a slot to one node and the
        # rule is anchored there, staying inside the kernel fragment.
        program = parse_program("p(x) :- firstchild(0, x).", query="p")
        structure = UnrankedStructure(parse_sexpr("a(b, c)"))
        kernel = compile_kernel(program)
        assert kernel is not None
        result = evaluate(program, structure)
        assert result.method == "kernel"
        assert result.query_result() == {1}

    def test_head_constants_still_fall_back(self):
        program = parse_program("p(0) :- label_a(x).", query="p")
        structure = UnrankedStructure(parse_sexpr("a(b, c)"))
        assert compile_kernel(program) is None
        result = evaluate(program, structure)
        assert result.method != "kernel"
        assert result.relations["p"] == {(0,)}

    def test_out_of_domain_constants_never_fire(self):
        structure = UnrankedStructure(parse_sexpr("a(b, c)"))
        sources = [
            # On an anchor: the constant's node list is empty.
            "p(x) :- firstchild(9, x).",
            "p(x) :- firstchild(-1, x).",
            # On a trigger block's entry slot: the mask holds no node.
            "s(x) :- label_b(x).\np(x) :- s(9), child(9, x).",
            "s(x) :- label_b(x).\np(x) :- s(-1), child(-1, x).",
            # Bound off the entry slot: ``cbind`` binds no node outside
            # ``range(n)``.  Unguarded, -1 would pass as the root's
            # parent and derive p(0).
            "s(x) :- label_a(x).\np(x) :- s(x), child(-1, x).",
            "s(x) :- label_a(x).\np(x) :- s(x), child(9, x).",
        ]
        for source in sources:
            program = parse_program(source, query="p")
            result = evaluate(program, structure)
            assert result.method == "kernel"
            assert result.query_result() == set(), source
            assert evaluate_seminaive(program, structure)["p"] == set()

    def test_constant_programs_match_seminaive(self):
        rng = random.Random(42)
        shapes = [
            "q{i}(x) :- {s}(x), firstchild({c}, x).",
            "q{i}(x) :- {s}({c}), child({c}, x).",
            "q{i}(x) :- {s}({c}), label_b(x).",
            "q{i}(x) :- {s}(x), {o}({c}).",
            "q{i}(x) :- {s}(x), child(x, y), nextsibling(y, {c}).",
            "q{i}(x) :- label_a({c}), {s}(x).",
            "q{i}(y) :- {s}(x), child(x, y).",
        ]
        hits = 0
        for _ in range(60):
            rules = ["q0(x) :- label_a(x)."]
            preds = ["q0"]
            for i in range(1, rng.randint(2, 6)):
                rules.append(
                    rng.choice(shapes).format(
                        i=i,
                        s=rng.choice(preds),
                        o=rng.choice(preds),
                        c=rng.randint(0, 8),
                    )
                )
                preds.append(f"q{i}")
            program = parse_program("\n".join(rules), query=preds[-1])
            tree = random_tree(rng, rng.randint(1, 14), labels=("a", "b"))
            structure = UnrankedStructure(tree)
            reference = evaluate_seminaive(program, structure)
            kernel = compile_kernel(program)
            assert kernel is not None, program
            result = kernel.evaluate(structure)
            assert result is not None
            hits += 1
            assert result.relations == reference, f"{program}\non {tree}"
        assert hits == 60

    def test_constant_in_an_intensional_atom(self):
        # ``seen(1)`` in a body is its own component: a 0-ary helper that
        # holds when ``seen`` fires at node 1, and replays the rest of the
        # rule from its anchor once, not on every ``seen`` fact.
        program = parse_program(
            """
            seen(x) :- label_b(x).
            p(x) :- seen(1), firstchild(x, y), label_b(y).
            """,
            query="p",
        )
        kernel = compile_kernel(program)
        assert kernel is not None
        rng = random.Random(7)
        for _ in range(25):
            tree = random_tree(rng, rng.randint(1, 12), labels=("a", "b"))
            structure = UnrankedStructure(tree)
            assert kernel.run(structure) == evaluate_seminaive(program, structure)

    def test_explicit_kernel_method_raises_when_inapplicable(self):
        program = parse_program("p(x) :- label_a(x).", query="p")
        generic = GenericStructure(2, {"label_a": [0]})
        with pytest.raises(DatalogError):
            compile_program(program).run(generic, method="kernel")
        with pytest.raises(DatalogError):
            compile_program(
                parse_program("t(x, y) :- firstchild(x, y).")
            ).run(generic, method="kernel")

    def test_single_node_and_empty_label_edge_cases(self):
        program = parse_program(
            "p(x) :- root(x), leaf(x), notlabel_b(x).", query="p"
        )
        result = evaluate(program, UnrankedStructure(parse_sexpr("a")))
        assert result.method == "kernel"
        assert result.query_result() == {0}
        missing = parse_program("p(x) :- label_nothere(x).", query="p")
        result = evaluate(missing, UnrankedStructure(parse_sexpr("a(b)")))
        assert result.method == "kernel"
        assert result.query_result() == set()


class TestKernelBatchParity:
    """Batch wrapping APIs route through the kernel with identical output."""

    from repro.workloads import CATALOG_WRAPPER as _ELOG

    def _trees(self):
        from repro.html import parse_html
        from repro.workloads import catalog_page

        return [
            parse_html(catalog_page(seed=seed, items=items))
            for seed, items in ((1, 3), (2, 6), (3, 1))
        ]

    def test_wrapper_uses_kernel_and_matches_seminaive(self):
        from repro.elog.parser import parse_elog
        from repro.elog.translate import compile_elog

        program = parse_elog(self._ELOG, query="price")
        compiled, run_method = compile_elog(program)
        assert run_method == "auto"
        for tree in self._trees():
            structure = as_indexed(UnrankedStructure(tree))
            auto = compiled.run(structure, method=run_method)
            assert auto.method == "kernel"
            explicit = compiled.run(structure, method="seminaive")
            assert auto.relations == explicit.relations

    def test_wrap_many_parity_through_kernel(self):
        from repro.elog.parser import parse_elog
        from repro.wrap.extraction import Wrapper

        program = parse_elog(self._ELOG, query="price")
        wrapper = (
            Wrapper()
            .add_elog("price", program)
            .add_elog("name", program, pattern="name")
        )
        trees = self._trees()
        batch = wrapper.wrap_many(trees)
        singles = [wrapper.wrap(tree) for tree in trees]
        assert [out.to_sexpr() for out in batch] == [
            out.to_sexpr() for out in singles
        ]
        extracted = wrapper.extract_many(trees)
        for tree, row in zip(trees, extracted):
            # The kernel-backed batch extraction matches a direct
            # interpreted evaluation of the same translation.
            from repro.elog.translate import elog_to_datalog

            datalog = elog_to_datalog(program)
            structure = UnrankedStructure(tree)
            reference = evaluate_seminaive(datalog, structure)
            assert row["price"] == {v for (v,) in reference["price"]}
            assert row["name"] == {v for (v,) in reference["name"]}


class TestPureUnarySweeps:
    """Pure unary seed rules -- an anchor relation and byte-mask checks on
    the anchored node alone -- run in the generated worklist like every
    other sweep, and derive exactly seminaive's facts."""

    def test_seed_rules_run_in_the_worklist(self):
        program = parse_program(
            "p(x) :- label_a(x), leaf(x), notlabel_b(x).", query="p"
        )
        kernel = compile_kernel(program)
        structure = UnrankedStructure(parse_sexpr("a(a, b(a), c)"))
        bound = kernel._bind(structure)
        assert bound is not None
        (sweep,) = bound[0].sweeps
        assert sweep.head_slot == sweep.start
        assert [op[0] for op in sweep.ops] == ["ubit", "ubit"]
        out = kernel.evaluate(structure)
        assert out.stats["engine"] == "worklist"
        assert out.relations == evaluate_seminaive(program, structure)

    def test_worklist_and_seminaive_agree(self):
        rng = random.Random(77)
        for _ in range(25):
            program = _random_kernel_program(rng)
            tree = random_tree(rng, rng.randint(1, 20), labels=("a", "b"))
            structure = UnrankedStructure(tree)
            kernel = compile_kernel(program)
            assert kernel is not None
            reference = evaluate_seminaive(program, structure)
            assert kernel.run(structure) == reference, f"{program}\non {tree}"

    def test_empty_conjunction_short_circuits(self):
        # label_nothere has no nodes: the sweep's anchor list is empty and
        # the run derives nothing.
        program = parse_program(
            "p(x) :- label_nothere(x), leaf(x).", query="p"
        )
        result = evaluate(program, UnrankedStructure(parse_sexpr("a(b)")))
        assert result.method == "kernel"
        assert result.query_result() == set()


class TestStructureSatellites:
    """Caching and arity-declaration satellites on repro.structures."""

    def test_indexed_structure_caches_facts_and_total_size(self):
        calls = {"relation": 0}

        class Counting(GenericStructure):
            def relation(self, name):
                calls["relation"] += 1
                return super().relation(name)

        base = Counting(3, {"edge": [(0, 1)], "u": [0, 2]})
        indexed = as_indexed(base)
        first = indexed.facts()
        assert indexed.facts() is first
        assert first == {("edge", (0, 1)), ("u", (0,)), ("u", (2,))}
        size = indexed.total_size()
        calls_after_first = calls["relation"]
        assert indexed.total_size() == size == 3 + 3
        assert calls["relation"] == calls_after_first

    def test_generic_structure_declared_arities(self):
        structure = GenericStructure(
            3, {"edge": [], "u": [0]}, arities={"edge": 2}
        )
        assert structure.arity("edge") == 2
        assert structure.arity("u") == 1
        # Undeclared empty relations keep the documented default.
        assert GenericStructure(3, {"empty": []}).arity("empty") == 1

    def test_generic_structure_arity_mismatch_raises(self):
        with pytest.raises(DatalogError):
            GenericStructure(3, {"edge": [(0, 1)]}, arities={"edge": 1})
        with pytest.raises(DatalogError):
            GenericStructure(3, {}, arities={"ghost": 1})
        with pytest.raises(DatalogError):
            GenericStructure(3, {"edge": []}, arities={"edge": -1})


class TestFrontierParity:
    """Fuzz suite for the kernel's one cold engine, the generated worklist
    (worklist == seminaive == ground), across the direct, TMNF and
    ranked-TMNF routes, tag-soup documents, and the deep-chain shapes
    that punish per-round propagation hardest.  The class keeps the name
    and the generators and seeds it had when it cross-checked the
    frontier-at-a-time engine against the worklist; that engine is gone.
    """

    def _worklist(self, kernel, structure):
        """The kernel's relations, after checking the run was cold."""
        out = kernel.evaluate(structure)
        assert out.stats["engine"] == "worklist"
        return out

    def test_random_programs_random_trees_all_engines_agree(self):
        rng = random.Random(20260807)
        for _ in range(60):
            program = _random_kernel_program(rng)
            kernel = compile_kernel(program)
            assert kernel is not None
            tree = random_tree(rng, rng.randint(1, 24), labels=("a", "b"))
            structure = as_indexed(UnrankedStructure(tree))
            out = self._worklist(kernel, structure)
            reference = evaluate_seminaive(program, structure)
            assert out.relations == reference, f"{program}\non {tree}"
            compiled = compile_program(program)
            if compiled.grounding_applicable(structure):
                ground = compiled.run(structure, method="ground").relations
                for pred, tuples in reference.items():
                    assert ground.get(pred, set()) == tuples

    def test_tag_soup_documents_agree(self):
        from repro.html import parse_html
        from tests.test_stream import soup

        rng = random.Random(404)
        nonempty = 0
        for _ in range(40):
            program = _random_kernel_program(rng, labels=("li", "b"))
            kernel = compile_kernel(program)
            assert kernel is not None
            structure = UnrankedStructure(parse_html(soup(rng, pieces=40)))
            out = self._worklist(kernel, structure)
            reference = evaluate_seminaive(program, structure)
            assert out.relations == reference
            if any(reference.values()):
                nonempty += 1
        assert nonempty >= 10  # the fuzz actually derived facts

    def test_deep_chain_trees_agree(self):
        from repro.trees.generate import chain_tree

        rng = random.Random(11)
        for _ in range(20):
            program = _random_kernel_program(rng)
            kernel = compile_kernel(program)
            assert kernel is not None
            # All-"a" chains: label_a holds everywhere, so recursion walks
            # the full depth (the string-successor worst case).
            structure = UnrankedStructure(chain_tree(rng.randint(1, 120), "a"))
            out = self._worklist(kernel, structure)
            assert out.relations == evaluate_seminaive(program, structure)

    def test_tmnf_route_agrees(self):
        rng = random.Random(77)
        program = parse_program(
            """
            q(x) :- label_b(x).
            p(x) :- q(x), child(x, y), child(y, z), label_a(z).
            p(x) :- p(y), child(x, y).
            """,
            query="p",
        )
        kernel = compile_kernel(program)
        assert kernel is not None and kernel.lowering.route == "tmnf"
        for _ in range(30):
            tree = random_tree(rng, rng.randint(1, 20), labels=("a", "b"))
            structure = UnrankedStructure(tree)
            out = self._worklist(kernel, structure)
            assert out.relations == evaluate_seminaive(program, structure)

    def test_ranked_tmnf_route_agrees(self):
        rng = random.Random(23)
        program = parse_program(
            """
            q(x) :- label_f(x).
            p(x) :- q(x), child(x, y), child(y, z), label_c(z).
            """,
            query="p",
        )
        kernel = compile_kernel(program)
        assert kernel is not None
        assert kernel._ranked_variant(2).route == "tmnf-ranked"
        for _ in range(20):
            structure = RankedStructure(
                random_binary_tree(rng, rng.randint(1, 14), "f", "c"),
                max_rank=2,
            )
            out = self._worklist(kernel, structure)
            assert out.relations == evaluate_seminaive(program, structure)

    def test_constant_and_zero_ary_programs_reuse_state(self):
        programs = [
            "p(x) :- firstchild(0, x).",
            "q :- label_c(x).\np(x) :- q, label_b(x).",
        ]
        for source in programs:
            program = parse_program(source, query="p")
            compiled = compile_program(program)
            state = None
            # The same tree twice reuses; an added leaf runs cold.
            for tree, engine in (
                ("a(b, c)", "worklist"),
                ("a(b, c)", "incremental"),
                ("a(b, c, d)", "worklist"),
            ):
                structure = as_indexed(UnrankedStructure(parse_sexpr(tree)))
                result, state, info = compiled.run_incremental(structure, state)
                assert state is not None and result.engine == engine
                assert (info is not None) == (engine == "incremental")
                assert result.relations == evaluate_seminaive(program, structure)
                assert result.relations["p"] == {(1,)}

    def test_engine_is_reported_through_the_plan_layer(self):
        program = parse_program("p(y) :- label_a(x), firstchild(x, y).", query="p")
        structure = UnrankedStructure(parse_sexpr("a(b, c)"))
        result = compile_program(program).run(structure)
        assert result.method == "kernel"
        assert result.engine == "worklist"
        seminaive = compile_program(program).run(structure, method="seminaive")
        assert seminaive.engine is None


_CONSTANT_SHAPES = [
    "q{i}(x) :- {s}(x), firstchild({c}, x).",
    "q{i}(x) :- {s}({c}), child({c}, x).",
    "q{i}(x) :- {s}({c}), label_b(x).",
    "q{i}(x) :- {s}(x), {o}({c}).",
    "q{i}(x) :- {s}(x), child(x, y), nextsibling(y, {c}).",
    "q{i}(x) :- label_a({c}), {s}(x).",
    "q{i}(y) :- {s}(x), child(x, y).",
]

_FIXED_PROGRAMS = [
    # 0-ary heads, and a 0-ary atom beside a unary trigger (gbit).
    """
    seen :- label_b(x).
    p(x) :- seen, leaf(x).
    q(x) :- p(x), label_a(y).
    r(x) :- seen, q(x).
    """,
    # A constant in an intensional atom: its own component, whose 0-ary
    # helper fires the rest of the rule from its anchor once.
    """
    seen(x) :- label_b(x).
    p(x) :- seen(1), firstchild(x, y), label_b(y).
    """,
    # A cycle edge checked through a forward map (bcheck lastchild).
    """
    s(x) :- label_a(x).
    p(x) :- s(x), firstchild(x, y), nextsibling(y, z), lastchild(x, z).
    """,
    # A constant-anchored sweep (the singleton ``@const:0`` as anchor).
    """
    p(x) :- firstchild(0, x).
    p(y) :- p(x), nextsibling(x, y).
    """,
    # TMNF route.
    """
    q(x) :- label_b(x).
    p(x) :- q(x), child(x, y), child(y, z), label_a(z).
    p(x) :- p(y), child(x, y).
    """,
]

_RANKED_PROGRAM = """
q(x) :- label_f(x).
p(x) :- q(x), child(x, y), child(y, z), label_c(z).
"""


def _codegen_corpus():
    """Fixed ``(program, structure)`` fuzz cases for the generated worklist:
    random recursive programs, random constant programs, and programs
    that pin 0-ary heads, ground intensional atoms, cycle checks,
    constant anchors and the TMNF / ranked-TMNF routes."""
    rng = random.Random(1818)
    cases = []
    for _ in range(24):
        program = _random_kernel_program(rng)
        tree = random_tree(rng, rng.randint(1, 24), labels=("a", "b"))
        cases.append((program, UnrankedStructure(tree)))
    for _ in range(16):
        rules = ["q0(x) :- label_a(x)."]
        preds = ["q0"]
        for i in range(1, rng.randint(2, 6)):
            rules.append(
                rng.choice(_CONSTANT_SHAPES).format(
                    i=i, s=rng.choice(preds), o=rng.choice(preds), c=rng.randint(0, 8)
                )
            )
            preds.append(f"q{i}")
        program = parse_program("\n".join(rules), query=preds[-1])
        tree = random_tree(rng, rng.randint(1, 14), labels=("a", "b"))
        cases.append((program, UnrankedStructure(tree)))
    for text in _FIXED_PROGRAMS:
        program = parse_program(text)
        for _ in range(4):
            tree = random_tree(rng, rng.randint(1, 16), labels=("a", "b"))
            cases.append((program, UnrankedStructure(tree)))
    ranked = parse_program(_RANKED_PROGRAM, query="p")
    for _ in range(4):
        tree = random_binary_tree(rng, rng.randint(1, 14), "f", "c")
        cases.append((ranked, RankedStructure(tree, max_rank=2)))
    return cases


#: ``facts`` per corpus case as counted by the interpreted worklist that
#: the generated code replaced (every derived fact, helpers and 0-ary
#: facts included).  A ground body atom such as ``label_a(5)`` is its own
#: connected component since constants became unary relations, so it
#: adds one 0-ary ``__cc_*`` helper fact when it holds: entries 25, 29,
#: 35, 37, 38, 44, 46 and 47 count 1 or 2 such facts on top of the
#: interpreter's figure.
_INTERPRETER_FACTS = [
    22, 21, 7, 20, 14, 12, 34, 18, 14, 26, 9, 1, 27, 11, 63, 6, 28, 6, 3, 4,
    38, 15, 11, 58, 2, 5, 1, 1, 3, 13, 3, 12, 1, 0, 7, 4, 2, 3, 9, 8, 4, 11,
    11, 23, 4, 7, 8, 16, 2, 3, 9, 2, 1, 2, 2, 2, 67, 1, 94, 76, 5, 67, 60, 29,
]


class TestGeneratedWorklist:
    """The scalar worklist is Python source generated per lowering."""

    def _bound_variants(self):
        for program, structure in _codegen_corpus():
            kernel = compile_kernel(program)
            assert kernel is not None, program
            bound = kernel._bind(structure)
            assert bound is not None, program
            yield kernel, bound[0], program, structure

    def test_sources_hold_only_numeric_constants(self):
        import ast

        for _, variant, _, _ in self._bound_variants():
            variant.worklist()
            source, _ = variant._worklists
            tree = ast.parse(source)
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant):
                    assert node.value is None or type(node.value) in (
                        int,
                        bool,
                    ), ast.dump(node)

    def test_corpus_covers_op_kinds_constant_entries_zero_ary_heads(self):
        kinds, constant_entries, zero_ary_heads = set(), 0, 0
        for _, variant, _, _ in self._bound_variants():
            for block in variant.sweeps + [b for g in variant.triggers for b in g]:
                kinds.update(op[0] for op in block.ops)
                # A trigger block entered at a constant's slot: the fired
                # node meets the constant's singleton as a mask check.
                constant_entries += block.anchor is None and any(
                    op[0] == "ubit" and op[1].startswith("@const:")
                    and op[2] == block.start
                    for op in block.ops
                )
                zero_ary_heads += block.head_slot < 0
        assert kinds == {"step", "branch", "bcheck", "ubit", "ibit", "gbit", "cbind"}
        assert constant_entries and zero_ary_heads

    def test_facts_match_the_interpreted_worklist(self):
        facts = []
        for kernel, _, program, structure in self._bound_variants():
            out = kernel.evaluate(structure)
            assert out.relations == evaluate_seminaive(program, structure)
            assert out.stats["engine"] == "worklist"
            facts.append(out.stats["facts"])
        assert facts == _INTERPRETER_FACTS

    def test_wrapper_pickles_after_a_worklist_run(self):
        import pickle

        from repro.workloads import FORUM_WRAPPER, forum_page
        from repro.elog import parse_elog
        from repro.wrap import Wrapper

        elog = parse_elog(FORUM_WRAPPER)
        wrapper = Wrapper()
        for pattern in ("thread", "comment", "body"):
            wrapper.add_elog(pattern, elog, pattern=pattern)
        pages = [forum_page(seed=s, threads=2, depth=30) for s in (1, 2, 3)]
        wrapper.compile()
        size = len(pickle.dumps(wrapper))
        _, _, stats = wrapper.wrap_html_stateful(pages[0])
        assert stats["runs"][0]["engine"].endswith("worklist")
        expected = [out.to_dict() for out in wrapper.wrap_html_many(pages)]
        # A run leaves nothing on the compiled program to pickle.
        assert len(pickle.dumps(wrapper)) == size
        restored = pickle.loads(pickle.dumps(wrapper))
        for plan in restored._compiled.values():
            assert plan._kernel.lowering._worklists is None
        assert [out.to_dict() for out in restored.wrap_html_many(pages)] == expected

    def test_wrapper_keeps_no_snapshot_after_a_batch(self):
        import gc
        import types

        from repro.elog import parse_elog
        from repro.trees.snapshot import TreeSnapshot
        from repro.workloads import FORUM_WRAPPER, forum_page
        from repro.wrap import Wrapper

        elog = parse_elog(FORUM_WRAPPER)
        wrapper = Wrapper()
        for pattern in ("thread", "comment", "body"):
            wrapper.add_elog(pattern, elog, pattern=pattern)
        wrapper.wrap_html_many(
            [forum_page(seed=s, threads=4, depth=20) for s in (1, 2, 3)]
        )
        # Everything the wrapper reaches, short of classes, modules and
        # functions (whose globals reach the whole process).
        reached, seen, stack = [], set(), [wrapper]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(
                obj, (type, types.ModuleType, types.FunctionType)
            ):
                continue
            seen.add(id(obj))
            if isinstance(obj, TreeSnapshot):
                reached.append(obj)
            stack.extend(gc.get_referents(obj))
        assert reached == []
