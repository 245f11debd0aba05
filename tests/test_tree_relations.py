"""The relational view of a tree, checked against its definitions.

:class:`UnrankedStructure`, :class:`RankedStructure` and :class:`Document`
read every relation from snapshot columns through one base class.  The
oracle here writes each relation of Section 2 (``tau_ur``, ``tau_rk`` and
the derived relations) straight from its definition over
``Node.children`` and ``Node.label``, so a fault in the column code shows
as a disagreement on some tree, whichever view it reaches.
"""

import pytest

from repro.errors import DatalogError
from repro.html import parse_html
from repro.trees import Node, parse_sexpr
from repro.trees.generate import random_tree
from repro.trees.ranked import RankedStructure
from repro.trees.stream import html_snapshot, tree_snapshot
from repro.trees.unranked import _CLOSURE_LIMIT, UnrankedStructure
from repro.workloads import noisy_table_page
from repro.wrap import Document

LABELS = ("a", "b", "c")

#: Relations only the unranked schema supplies.
UNRANKED_ONLY = (
    "lastsibling", "firstsibling", "firstchild", "nextsibling", "lastchild",
    "nextsibling_star", "nextsibling_plus", "child_star", "child_plus",
    "docorder", "total",
)

#: The unranked binary relations that are partial bijections (Prop 4.1).
FUNCTIONAL_UNRANKED = ("firstchild", "nextsibling", "lastchild")


def oracle(root):
    """Every relation of ``root`` by definition, plus its rank ``K``:
    ``(relations, K)`` with node ids in document order."""
    nodes = list(root.iter_subtree())
    ids = {id(node): i for i, node in enumerate(nodes)}
    kids = [[ids[id(c)] for c in node.children] for node in nodes]
    dom = range(len(nodes))

    def descendants(v):
        out = []
        for c in kids[v]:
            out.append(c)
            out.extend(descendants(c))
        return out

    relations = {
        "dom": {(v,) for v in dom},
        "root": {(0,)},
        "leaf": {(v,) for v in dom if not kids[v]},
        "firstsibling": {(row[0],) for row in kids if row},
        "lastsibling": {(row[-1],) for row in kids if row},
        "firstchild": {(v, kids[v][0]) for v in dom if kids[v]},
        "lastchild": {(v, kids[v][-1]) for v in dom if kids[v]},
        "nextsibling": {(a, b) for row in kids for a, b in zip(row, row[1:])},
        "child": {(v, c) for v in dom for c in kids[v]},
        "nextsibling_plus": {
            (a, b) for row in kids for i, a in enumerate(row) for b in row[i + 1 :]
        },
        "child_plus": {(v, d) for v in dom for d in descendants(v)},
        "docorder": {(u, v) for u in dom for v in dom if u < v},
        "total": {(u, v) for u in dom for v in dom},
    }
    reflexive = {(v, v) for v in dom}
    relations["nextsibling_star"] = relations["nextsibling_plus"] | reflexive
    relations["child_star"] = relations["child_plus"] | reflexive
    for label in {node.label for node in nodes} | {"zzz"}:
        relations[f"label_{label}"] = {(v,) for v in dom if nodes[v].label == label}
        relations[f"notlabel_{label}"] = {(v,) for v in dom if nodes[v].label != label}
    rank = max(len(row) for row in kids)
    for k in range(1, rank + 1):
        relations[f"child{k}"] = {
            (v, row[k - 1]) for v, row in enumerate(kids) if len(row) >= k
        }
    return relations, rank


def label_names(relations):
    """The ``label_a`` names of the labels occurring in the tree, sorted."""
    return sorted(n for n in relations if n.startswith("label_") and n != "label_zzz")


def maps(relation):
    return {a: b for a, b in relation}, {b: a for a, b in relation}


def check_unranked(view, root):
    relations, rank = oracle(root)
    for name, expected in relations.items():
        if name.startswith("child") and name[len("child") :].isdigit():
            with pytest.raises(DatalogError):
                view.relation(name)
            continue
        assert view.relation(name) == expected, name
        expected_maps = maps(expected) if name in FUNCTIONAL_UNRANKED else None
        assert view.functional(name) == expected_maps, name
    for name in ("child", "child1", f"child{rank + 1}", "nonsense"):
        assert view.functional(name) is None, name
    with pytest.raises(DatalogError):
        view.relation("nonsense")
    core = ["dom", "root", "leaf", "lastsibling", "firstchild", "nextsibling"]
    assert list(view.relation_names()) == core + label_names(relations)


def check_ranked(view, root):
    relations, rank = oracle(root)
    for name, expected in relations.items():
        if name in UNRANKED_ONLY:
            with pytest.raises(DatalogError):
                view.relation(name)
            assert view.functional(name) is None, name
            continue
        assert view.relation(name) == expected, name
        is_child_k = name.startswith("child") and name[len("child") :].isdigit()
        assert view.functional(name) == (maps(expected) if is_child_k else None), name
    for name in ("child0", f"child{max(rank, 1) + 1}", "nonsense"):
        with pytest.raises(DatalogError):
            view.relation(name)
        assert view.functional(name) is None, name
    core = ["dom", "root", "leaf"] + [f"child{k}" for k in range(1, max(rank, 1) + 1)]
    assert list(view.relation_names()) == core + label_names(relations)


class TestNodeOracle:
    @pytest.mark.parametrize("seed", range(200))
    def test_every_view_matches_the_definitions(self, seed):
        root = random_tree(seed, 1 + seed % 45, labels=LABELS)
        check_unranked(UnrankedStructure(root), root)
        check_unranked(Document(tree_snapshot(root)), root)
        check_ranked(RankedStructure(root), root)

    def test_html_document_matches_the_definitions(self):
        page = noisy_table_page(seed=9, rows=12)
        root = parse_html(page)
        check_unranked(Document(html_snapshot(page)), root)
        check_unranked(UnrankedStructure(root), root)
        check_ranked(RankedStructure(root), root)


VIEWS = {
    "unranked": UnrankedStructure,
    "ranked": RankedStructure,
    "document": lambda root: Document(tree_snapshot(root)),
}


@pytest.mark.parametrize("view", sorted(VIEWS))
def test_every_supplied_relation_has_its_arity(view):
    for root in [parse_sexpr("a(b, c(d), b)")] + [
        random_tree(seed, 12, labels=LABELS) for seed in range(10)
    ]:
        structure = VIEWS[view](root)
        relations, _ = oracle(root)
        for name in list(relations) + ["child0", "child9", "nonsense"]:
            if structure.has_relation(name):
                arity = structure.arity(name)
                assert all(len(fact) == arity for fact in structure.relation(name)), name


def test_quadratic_relations_refuse_trees_over_the_closure_limit():
    root = Node("r")
    for _ in range(_CLOSURE_LIMIT):
        root.new_child("a")
    structures = [UnrankedStructure(root), Document(tree_snapshot(root))]
    for name in ("child_star", "child_plus", "docorder", "total"):
        messages = set()
        for structure in structures:
            assert structure.size == _CLOSURE_LIMIT + 1
            with pytest.raises(DatalogError) as caught:
                structure.relation(name)
            messages.add(str(caught.value))
        assert messages == {
            f"refusing to materialize quadratic relation {name!r} on a tree "
            f"with {_CLOSURE_LIMIT + 1} nodes (limit {_CLOSURE_LIMIT})"
        }
