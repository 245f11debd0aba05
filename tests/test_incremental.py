"""Incremental re-extraction: subtree signatures, diffs, warm fixpoints.

A warm run reuses the previous version's fixpoint when the tree -- its
parent edges and labels -- is unchanged, and runs cold on any other
version.  Covered bottom up:

* signature stability -- the streaming snapshot sources
  (:func:`tree_snapshot`, :func:`html_snapshot`) and the Node-tree path
  must build identical signature tables for identical documents
  (including randomized tag-soup HTML, where implied closes reshape the
  tree the same way on both paths), and an edit must change the table;
* snapshot diffing -- the structural invariants every diff must satisfy,
  on targeted fast-path shapes (payload-only edits, deep unary spines)
  and randomized edit scripts;
* warm re-evaluation -- payload-only edits (text, attributes) reuse the
  previous fixpoint and equal cold and seminaive runs; every structural
  edit kind (a relabel, an inserted leaf, a deleted subtree, a same-size
  move) runs cold and equals them too; a caller mutating a returned set
  never reaches the next version's answer;
* output reuse -- a version whose tree is unchanged rebuilds the
  previous output's shape with fresh nodes and refreshed leaf texts,
  equal to a cold wrap, for plans outside the kernel fragment too; a
  changed tree assembles cold and keeps no shape, and a caller changing
  a returned output never reaches the next version's;
* ownership -- a state reuses only for the wrapper (or plan) that made
  it: another wrapper, an unpickled copy, a wrapper that gained a
  function and another plan all run cold and equal a cold run;
* the serving warm path -- ``doc_id`` requests against a live server
  must reuse per-document state, agree with cold extraction, and surface
  a nonzero ``incremental_reuse_fraction`` in ``/metrics``.
"""

import gc
import json
import pickle
import random

import pytest

from repro.datalog.engine import compile_program, evaluate
from repro.datalog.parser import parse_program
from repro.serve import ExtractionServer, ServerThread, WrapperRegistry
from repro.structures import as_indexed
from repro.trees.diff import diff_snapshots
from repro.trees.generate import random_tree, thread_tree
from repro.trees.merkle import signature_table
from repro.trees.node import to_sexpr
from repro.trees.stream import html_snapshot, tree_snapshot
from repro.trees.unranked import UnrankedStructure
from repro.html import parse_html
from repro.workloads import FORUM_WRAPPER, forum_page
from tests.test_stream import scramble

DESCENT = """
mark(x) :- root(x).
mark(y) :- mark(x), child(x, y).
deep(x) :- mark(x), label_leafc(x).
"""


def descent_program():
    return compile_program(parse_program(DESCENT, query="deep"))


def all_nodes(root):
    out = [root]
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.children:
            out.append(child)
            stack.append(child)
    return out


def soup_page(rng: random.Random) -> str:
    """Randomized tag-soup HTML: unclosed <li>/<p>/<td>, stray text."""
    parts = ["<html><body>"]
    for _ in range(rng.randint(1, 12)):
        kind = rng.randrange(4)
        if kind == 0:
            items = "".join(
                f"<li>item {rng.randrange(100)}" for _ in range(rng.randint(1, 4))
            )
            parts.append(f"<ul>{items}</ul>")
        elif kind == 1:
            cells = "".join(
                f"<td>c{rng.randrange(10)}" for _ in range(rng.randint(1, 3))
            )
            parts.append(f"<table><tr>{cells}</table>")
        elif kind == 2:
            parts.append(f"<p>para {rng.randrange(100)}<p>another")
        else:
            parts.append(f"text {rng.randrange(100)} <b>bold")
    parts.append("</body></html>")
    return "".join(parts)


class TestMerkleStability:
    def test_builder_and_tree_paths_hash_identically(self):
        rng = random.Random(11)
        for _ in range(40):
            tree = random_tree(rng, rng.randint(1, 40), labels=("a", "b", "c"))
            for node in rng.sample(all_nodes(tree), rng.randint(0, 3)):
                node.text = f"t{rng.randrange(100)}"
                node.attrs = {"k": str(rng.randrange(10))}
            streamed = tree_snapshot(tree)
            reference = UnrankedStructure(tree).snapshot()
            assert signature_table(streamed) == signature_table(reference)

    def test_tag_soup_html_paths_hash_identically(self):
        rng = random.Random(23)
        for _ in range(25):
            page = soup_page(rng)
            streamed = html_snapshot(page)
            reference = UnrankedStructure(parse_html(page)).snapshot()
            assert signature_table(streamed) == signature_table(reference)

    def test_hash_is_sensitive_to_payload_and_shape(self):
        base = UnrankedStructure(thread_tree(2, 3)).snapshot()
        edited = thread_tree(2, 3)
        edited.children[0].text = "different"
        reshaped = thread_tree(3, 3)
        assert signature_table(base) != signature_table(
            UnrankedStructure(edited).snapshot()
        )
        assert signature_table(base) != signature_table(
            UnrankedStructure(reshaped).snapshot()
        )


def assert_diff_invariants(old, new, d):
    """The contract every diff must satisfy: ``new_from_old`` is an
    injective partial mapping old id -> new id whose pairs agree on
    label, text, and attributes, and a new node is dirty exactly when no
    old node maps onto it."""
    image = set()
    for old_id in range(old.size):
        new_id = d.new_from_old[old_id]
        if new_id < 0:
            continue
        assert new_id not in image
        image.add(new_id)
        assert (
            old.labels[old.label_ids[old_id]]
            == new.labels[new.label_ids[new_id]]
        )
        assert (old.texts or {}).get(old_id) == (new.texts or {}).get(new_id)
        assert (old.attrs or {}).get(old_id) == (new.attrs or {}).get(new_id)
    for new_id in range(new.size):
        assert (d.dirty_new_int >> (8 * new_id) & 1) == (new_id not in image)


class TestSnapshotDiff:
    def test_payload_only_edit_takes_identity_mapping(self):
        t1 = thread_tree(6, 8)
        t2 = thread_tree(6, 8)
        targets = [n for n in all_nodes(t2) if n.text][3:6]
        for node in targets:
            node.text += " edited"
        old = UnrankedStructure(t1).snapshot()
        new = UnrankedStructure(t2).snapshot()
        d = diff_snapshots(old, new)
        assert_diff_invariants(old, new, d)
        dirty = {v for v in range(new.size) if d.dirty_new_int >> (8 * v) & 1}
        assert d.dirty_count == len(targets)
        # identity everywhere except the edited nodes
        for v in range(old.size):
            assert d.new_from_old[v] == (-1 if v in dirty else v)

    def test_attr_only_edit_is_detected(self):
        t1 = thread_tree(3, 4)
        t2 = thread_tree(3, 4)
        all_nodes(t2)[5].attrs = {"class": "edited"}
        old = UnrankedStructure(t1).snapshot()
        new = UnrankedStructure(t2).snapshot()
        d = diff_snapshots(old, new)
        assert d.dirty_count == 1
        assert_diff_invariants(old, new, d)

    def test_deep_spine_edit_stays_narrow(self):
        t1 = thread_tree(1, 200)
        t2 = thread_tree(1, 200)
        spine = [n for n in all_nodes(t2) if n.text]
        spine[len(spine) // 2].text += " mid-edit"
        old = UnrankedStructure(t1).snapshot()
        new = UnrankedStructure(t2).snapshot()
        d = diff_snapshots(old, new)
        assert_diff_invariants(old, new, d)
        assert d.dirty_count == 1

    def test_randomized_edit_scripts_keep_invariants(self):
        rng = random.Random(31)
        for _ in range(60):
            t1 = random_tree(rng, rng.randint(2, 30), labels=("a", "b"))
            t2 = random_tree(rng, rng.randint(2, 30), labels=("a", "b"))
            old = UnrankedStructure(t1).snapshot()
            new = UnrankedStructure(t2).snapshot()
            assert_diff_invariants(old, new, diff_snapshots(old, new))

    def test_diff_memo_is_reused(self):
        old = UnrankedStructure(thread_tree(2, 4)).snapshot()
        new = UnrankedStructure(thread_tree(2, 4)).snapshot()
        assert diff_snapshots(old, new) is diff_snapshots(old, new)


class TestIncrementalKernelParity:
    def edit(self, rng, tree, edits):
        pool = [n for n in all_nodes(tree) if n.text]
        for node in rng.sample(pool, min(edits, len(pool))):
            node.text += " X"

    def test_randomized_text_edits_match_cold_across_engines(self):
        rng = random.Random(47)
        program = descent_program()
        raw = parse_program(DESCENT, query="deep")
        applied = 0
        for _ in range(40):
            threads = rng.randint(2, 12)
            depth = rng.randint(6, 25)
            v1 = thread_tree(threads, depth)
            _, state, _ = program.run_incremental(
                as_indexed(UnrankedStructure(v1)), None
            )
            v2 = thread_tree(threads, depth)
            # Text edits leave the tree unchanged: every version reuses.
            self.edit(rng, v2, rng.randint(1, 4))
            doc = as_indexed(UnrankedStructure(v2))
            warm, _, info = program.run_incremental(doc, state)
            cold = program.run(doc, method="kernel")
            assert warm.unary("deep") == cold.unary("deep")
            assert warm.unary("mark") == cold.unary("mark")
            if info is not None:
                applied += 1
                assert warm.engine.startswith("incremental")
                # spot-check one interpreted engine agrees too
                interp = evaluate(raw, UnrankedStructure(v2), method="seminaive")
                assert warm.unary("deep") == interp.unary("deep")
        assert applied == 40

    def test_cold_worklist_run_packs_reusable_state(self):
        # A cold run is one generated worklist call; its answer sets go
        # into a KernelState, so the next version runs warm.
        program = descent_program()
        v1 = thread_tree(2, 40)
        cold, state, _ = program.run_incremental(
            as_indexed(UnrankedStructure(v1)), None
        )
        assert cold.engine == "worklist"
        assert state is not None
        v2 = thread_tree(2, 40)
        self.edit(random.Random(3), v2, 2)
        doc = as_indexed(UnrankedStructure(v2))
        warm, next_state, info = program.run_incremental(doc, state)
        assert info is not None and warm.engine.startswith("incremental")
        assert warm.unary("deep") == program.run(doc, method="kernel").unary(
            "deep"
        )
        assert next_state is not None

    def test_large_dirty_fraction_falls_back_cold(self):
        program = descent_program()
        v1 = thread_tree(4, 10)
        _, state, _ = program.run_incremental(
            as_indexed(UnrankedStructure(v1)), None
        )
        v2 = thread_tree(10, 16)  # a mostly different document
        doc = as_indexed(UnrankedStructure(v2))
        result, _, info = program.run_incremental(doc, state)
        assert info is None and result.engine == "worklist"
        assert result.unary("deep") == program.run(doc).unary("deep")

    def test_structure_change_parity(self):
        # Edits that add and remove whole subtrees, not just payloads.
        program = descent_program()
        rng = random.Random(59)
        for _ in range(15):
            v1 = thread_tree(rng.randint(3, 8), rng.randint(4, 12))
            _, state, _ = program.run_incremental(
                as_indexed(UnrankedStructure(v1)), None
            )
            v2 = thread_tree(rng.randint(3, 8), rng.randint(4, 12))
            interior = [n for n in all_nodes(v2) if n.children]
            rng.choice(interior).new_child("extra", text="new node")
            doc = as_indexed(UnrankedStructure(v2))
            warm, _, _ = program.run_incremental(doc, state)
            assert warm.engine == "worklist"
            cold = program.run(doc, method="kernel")
            assert warm.unary("deep") == cold.unary("deep")
            assert warm.unary("mark") == cold.unary("mark")



def forum_wrapper():
    from repro.elog import parse_elog
    from repro.wrap import Wrapper

    program = parse_elog(FORUM_WRAPPER)
    wrapper = Wrapper()
    for pattern in ("thread", "comment", "body"):
        wrapper.add_elog(pattern, program, pattern=pattern)
    return wrapper.compile()


def edit_comments(page, spots, tag):
    for thread, depth in spots:
        marker = f"Comment {thread}.{depth} by"
        assert marker in page
        page = page.replace(marker, f"Comment {thread}.{depth} {tag} by", 1)
    return page


class TestDeepConeRoute:
    """Comment edits reuse the fixpoint wherever they sit in a chain.

    An edit high up in a reply chain sits above every fact of the chain
    below it, an edit at the bottom above none; both change text only, so
    both versions reuse the previous fixpoint.
    """

    THREADS, DEPTH = 8, 80

    def versions(self):
        base = forum_page(seed=11, threads=self.THREADS, depth=self.DEPTH)
        spots = [
            (t, d) for d in range(self.DEPTH - 1) for t in range(self.THREADS)
        ]
        scattered = edit_comments(base, spots[:: len(spots) // 64][:64], "(moved)")
        deepest = [(t, self.DEPTH - 1) for t in range(self.THREADS)]
        return base, scattered, edit_comments(scattered, deepest, "(new)")

    def test_scattered_edits_run_warm(self):
        wrapper = forum_wrapper()
        base, scattered, follow_up = self.versions()
        _, state, _ = wrapper.wrap_html_stateful(base)
        out, state, stats = wrapper.wrap_html_stateful(scattered, state)
        (run,) = stats["runs"]
        assert stats["warm"] and run["engine"] == "incremental"
        cold = wrapper.wrap_html_many([scattered])[0]
        assert out.to_dict() == cold.to_dict()
        # The worklist's captured state feeds the next version warm.
        out, _, stats = wrapper.wrap_html_stateful(follow_up, state)
        (run,) = stats["runs"]
        assert stats["warm"] and run["engine"] == "incremental"
        assert out.to_dict() == wrapper.wrap_html_many([follow_up])[0].to_dict()

    def test_chained_versions_leave_no_cyclic_garbage(self):
        # A replaced version's state must not point back at its run, or
        # every replaced version becomes cyclic garbage that only the
        # collector frees.
        wrapper = forum_wrapper()
        base, scattered, follow_up = self.versions()
        _, state, _ = wrapper.wrap_html_stateful(base)
        wrapper.wrap_html_stateful(scattered, state)
        gc.collect()
        gc.disable()
        try:
            _, state, _ = wrapper.wrap_html_stateful(base)
            _, state, first = wrapper.wrap_html_stateful(scattered, state)
            _, state, second = wrapper.wrap_html_stateful(follow_up, state)
            assert first["warm"] and second["warm"]
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_deepest_comment_edit_runs_warm(self):
        wrapper = forum_wrapper()
        base = forum_page(seed=12, threads=self.THREADS, depth=self.DEPTH)
        edited = edit_comments(
            base, [(t, self.DEPTH - 1) for t in range(self.THREADS)], "(new)"
        )
        _, state, _ = wrapper.wrap_html_stateful(base)
        out, _, stats = wrapper.wrap_html_stateful(edited, state)
        (run,) = stats["runs"]
        assert stats["warm"] and run["engine"] == "incremental"
        assert out.to_dict() == wrapper.wrap_html_many([edited])[0].to_dict()

    def test_deep_cone_parity_across_engines(self):
        # An edit near the top of a chain sits above the whole chain below
        # it: the warm run must agree with cold kernel and seminaive runs.
        rng = random.Random(83)
        program = descent_program()
        raw = parse_program(DESCENT, query="deep")
        for _ in range(12):
            threads = rng.randint(2, 6)
            depth = rng.randint(20, 40)
            v1 = thread_tree(threads, depth)
            _, state, _ = program.run_incremental(
                as_indexed(UnrankedStructure(v1)), None
            )
            v2 = thread_tree(threads, depth)
            spine = v2.children[rng.randrange(threads)]
            for _ in range(rng.randint(0, 3)):
                spine = spine.children[0]
            spine.text = (spine.text or "") + " X"
            doc = as_indexed(UnrankedStructure(v2))
            warm, state, info = program.run_incremental(doc, state)
            assert info is not None and state is not None
            assert warm.engine == "incremental" and info["dirty"] == 0
            cold = program.run(doc, method="kernel")
            interp = evaluate(raw, UnrankedStructure(v2), method="seminaive")
            assert warm.unary("mark") == cold.unary("mark")
            assert warm.unary("deep") == cold.unary("deep") == interp.unary("deep")


GATED_DESCENT = """
mark(x) :- root(x).
mark(y) :- mark(x), child(x, y), label_c(y).
deep(x) :- mark(x0), child(x0, x), label_leafc(x).
"""


class TestDeepConeDeletions:
    """A relabel near the top of a chain *removes* every fact below it:
    the tree changed, so the version runs cold, and no fact of the
    previous version survives into it."""

    def test_relabel_cones_match_cold(self):
        rng = random.Random(2718)
        raw = parse_program(GATED_DESCENT, query="deep")
        program = compile_program(raw)
        for trial in range(12):
            threads, depth = rng.randint(2, 5), rng.randint(20, 40)
            trees = [thread_tree(threads, depth) for _ in range(2)]
            # Odd trials cut a chain (facts go), even ones restore it.
            cut = trees[trial % 2].children[rng.randrange(threads)]
            for _ in range(rng.randint(0, 3)):
                cut = cut.children[0]
            cut.label = "x"
            _, state, _ = program.run_incremental(
                as_indexed(UnrankedStructure(trees[0])), None
            )
            doc = as_indexed(UnrankedStructure(trees[1]))
            warm, _, info = program.run_incremental(doc, state)
            assert info is None and warm.engine == "worklist"
            cold = evaluate(raw, UnrankedStructure(trees[1]), method="seminaive")
            assert warm.unary("mark") == cold.unary("mark")
            assert warm.unary("deep") == cold.unary("deep")


CLIMB = """
near(x) :- label_leafc(x), child(y, x), label_c(y), child(z, y), label_c(z).
"""


class TestTraversingSweepWarm:
    """The catalog wrapper's ``record`` sweep climbs from each ``tr`` to
    the body.  Edits in and around the rows, and a relabelled ``table``
    that drops or restores every record, must leave warm == cold ==
    seminaive, and a version runs warm exactly when its tree is the
    previous version's."""

    ROW = '<tr><td class="name">added {}</td><td class="price">$1.00</td></tr>'
    TABLE = ('<table id="products">', '</table><div id="footer">')
    DIV = ('<div id="products">', '</div><div id="footer">')

    def edit(self, rng, page):
        kind = rng.choice(("text", "add", "remove", "relabel"))
        if kind == "relabel":
            old, new = (self.TABLE, self.DIV)
            if old[0] not in page:
                old, new = new, old
            for before, after in zip(old, new):
                page = page.replace(before, after, 1)
            return page
        rows = [i for i in range(len(page)) if page.startswith("<tr>", i)]
        if not rows or kind == "add":
            start = page.index('id="products">') + len('id="products">')
            at = rng.choice(rows) if rows else start
            return page[:at] + self.ROW.format(rng.randrange(100)) + page[at:]
        at = rng.choice(rows)
        if kind == "text":
            at = page.index("</td>", at)
            return page[:at] + " edited" + page[at:]
        return page[:at] + page[page.index("</tr>", at) + len("</tr>") :]

    def test_randomized_row_edits_match_cold_and_seminaive(self):
        from repro.elog import elog_to_datalog, parse_elog
        from repro.wrap import Document
        from repro.workloads import CATALOG_WRAPPER, catalog_page
        from tests.test_stream import catalog_wrapper

        wrapper = catalog_wrapper().compile()
        reference = compile_program(
            elog_to_datalog(parse_elog(CATALOG_WRAPPER, query="record"))
        )
        rng = random.Random(4242)
        runs = {True: 0, False: 0}
        for trial in range(12):
            page = catalog_page(seed=trial, items=rng.randint(6, 24))
            _, state, _ = wrapper.wrap_html_stateful(page, root_label=None)
            for _ in range(4):
                shape = to_sexpr(parse_html(page))
                for _ in range(rng.randint(1, 3)):
                    page = self.edit(rng, page)
                ids, state, stats = wrapper.wrap_html_stateful(
                    page, state, root_label=None
                )
                cold = wrapper.extract_html_many([page])[0]
                interp = reference.run(
                    as_indexed(Document.from_html(page)), method="seminaive"
                )
                assert ids == cold
                for name in ("record", "name", "price"):
                    assert ids[name] == interp.unary(name)
                # The Node-path parser is the oracle of "unchanged tree".
                unchanged = to_sexpr(parse_html(page)) == shape
                (run,) = stats["runs"]
                assert stats["warm"] == unchanged
                assert run["engine"] == ("incremental" if unchanged else "worklist")
                runs[unchanged] += 1
        assert runs[True] >= 5 and runs[False] >= 30


    def test_relabel_above_a_climbing_sweep_matches_seminaive(self):
        # Relabelling a leaf's grandparent changes ``near(leaf)`` two hops
        # away from the edit: the version runs cold.
        raw = parse_program(CLIMB, query="near")
        program = compile_program(raw)
        rng = random.Random(1618)
        for trial in range(12):
            threads, depth = rng.randint(2, 5), rng.randint(4, 12)
            trees = [thread_tree(threads, depth) for _ in range(2)]
            grandparent = trees[trial % 2].children[rng.randrange(threads)]
            for _ in range(depth - 2):
                grandparent = grandparent.children[0]
            grandparent.label = "x"
            _, state, _ = program.run_incremental(
                as_indexed(UnrankedStructure(trees[0])), None
            )
            doc = as_indexed(UnrankedStructure(trees[1]))
            warm, _, info = program.run_incremental(doc, state)
            assert info is None and warm.engine == "worklist"
            cold = evaluate(raw, UnrankedStructure(trees[1]), method="seminaive")
            assert warm.unary("near") == cold.unary("near")


def edit_payloads(rng, tree, edits):
    """Change the text and attributes of ``edits`` random nodes in place."""
    for node in rng.sample(all_nodes(tree), min(edits, tree.subtree_size())):
        node.text = f"edited {rng.randrange(1000)}"
        node.attrs = {"class": f"c{rng.randrange(10)}"}


def edit_structure(rng, tree, kind):
    """Apply one structural edit of ``kind`` to ``tree`` in place."""
    nodes = all_nodes(tree)
    if kind == "relabel":
        node = rng.choice(nodes)
        node.label = "b" if node.label == "a" else "a"
    elif kind == "insert_leaf":
        rng.choice(nodes).new_child(rng.choice(("a", "b")))
    elif kind == "delete_subtree":
        node = rng.choice(nodes[1:])
        node.parent.children.remove(node)
        node.parent = None
    else:
        # A same-size move: the last child of a non-root node becomes the
        # next sibling of its parent.  Document order, so every label id,
        # is unchanged; only the parent edges differ.
        node = rng.choice([
            n for n in nodes
            if n.parent is not None and n.parent.parent is not None
            and n.parent.children[-1] is n
        ])
        parent = node.parent
        parent.children.remove(node)
        grand = parent.parent
        grand.children.insert(grand.children.index(parent) + 1, node)
        node.parent = grand


class TestStructureReuse:
    """A warm run reuses the previous fixpoint exactly when the tree --
    parent edges and labels -- is unchanged, and equals the cold kernel
    and seminaive runs either way."""

    def check(self, raw, compiled, tree, state, engine):
        structure = UnrankedStructure(tree)
        result, state, info = compiled.run_incremental(as_indexed(structure), state)
        assert result.engine == engine
        assert (info is not None) == (engine == "incremental")
        cold = compiled.run(as_indexed(UnrankedStructure(tree)), method="kernel")
        assert cold.engine == "worklist"
        assert result.relations == cold.relations
        assert result.relations == evaluate(raw, structure, method="seminaive").relations
        return state

    def test_payload_only_edits_reuse_on_random_trees(self):
        from tests.test_kernel import _random_kernel_program

        rng = random.Random(3141)
        for _ in range(40):
            raw = _random_kernel_program(rng)
            compiled = compile_program(raw)
            seed, size = rng.randrange(10**6), rng.randint(1, 40)
            state = self.check(raw, compiled, random_tree(seed, size), None, "worklist")
            for _ in range(2):
                tree = random_tree(seed, size)
                edit_payloads(rng, tree, rng.randint(1, 5))
                state = self.check(raw, compiled, tree, state, "incremental")

    def test_payload_only_edits_reuse_on_forum_versions(self):
        from repro.elog import elog_to_datalog, parse_elog
        from repro.wrap import Document

        wrapper = forum_wrapper()
        reference = compile_program(elog_to_datalog(parse_elog(FORUM_WRAPPER)))
        page = forum_page(seed=21, threads=4, depth=12)
        versions = [
            page,
            edit_comments(page, [(1, 3), (2, 11)], "(edited)"),
            page.replace('<li class="comment">', '<li class="comment" data-x="1">', 3),
            page.replace('class="replies"', 'class="replies open"'),
        ]
        _, state, _ = wrapper.wrap_html_stateful(versions[0])
        for version in versions[1:]:
            out, state, stats = wrapper.wrap_html_stateful(version, state)
            (run,) = stats["runs"]
            assert run["engine"] == "incremental" and stats["warm"]
            assert out.to_dict() == wrapper.wrap_html_many([version])[0].to_dict()
            ids = wrapper.extract_html_many([version])[0]
            interp = reference.run(
                as_indexed(Document.from_html(version)), method="seminaive"
            )
            for name in ("thread", "comment", "body"):
                assert ids[name] == interp.unary(name)

    @pytest.mark.parametrize(
        "kind", ["relabel", "insert_leaf", "delete_subtree", "same_size_move"]
    )
    def test_each_structural_edit_kind_runs_cold(self, kind):
        from tests.test_kernel import _random_kernel_program

        rng = random.Random(sum(map(ord, kind)))
        for _ in range(30):
            raw = _random_kernel_program(rng)
            compiled = compile_program(raw)
            seed, size = rng.randrange(10**6), rng.randint(3, 40)
            while kind == "same_size_move" and not any(
                n.parent is not None and n.parent.parent is not None
                for n in all_nodes(random_tree(seed, size))
            ):
                seed += 1
            old = random_tree(seed, size)
            state = self.check(raw, compiled, old, None, "worklist")
            tree = random_tree(seed, size)
            edit_structure(rng, tree, kind)
            before = UnrankedStructure(old).snapshot()
            after = UnrankedStructure(tree).snapshot()
            if kind == "same_size_move":
                assert after.label_ids == before.label_ids
                assert after.parent != before.parent
            self.check(raw, compiled, tree, state, "worklist")

    def test_mutating_a_returned_set_does_not_reach_the_next_version(self):
        compiled = descent_program()
        rng = random.Random(5)
        result, state, _ = compiled.run_incremental(
            as_indexed(UnrankedStructure(thread_tree(3, 9))), None
        )
        for _ in range(3):
            result.unary("mark").clear()
            result.unary("deep").add(10**6)
            tree = thread_tree(3, 9)
            edit_payloads(rng, tree, 2)
            doc = as_indexed(UnrankedStructure(tree))
            result, state, info = compiled.run_incremental(doc, state)
            cold = compiled.run(doc, method="kernel")
            assert result.engine == "incremental"
            assert result.unary("mark") == cold.unary("mark")
            assert result.unary("deep") == cold.unary("deep")
        # The same through a wrapper's answer sets.
        wrapper = forum_wrapper()
        page = forum_page(seed=3, threads=3, depth=6)
        ids, state, _ = wrapper.wrap_html_stateful(page, root_label=None)
        expected = wrapper.extract_html_many([page])[0]
        ids["comment"].clear()
        ids["body"].add(10**6)
        again, _, stats = wrapper.wrap_html_stateful(page, state, root_label=None)
        assert stats["warm"] and again == expected

    def test_a_tree_above_the_id_cap_leaves_no_id_tuple_behind(self, monkeypatch):
        from repro.datalog import kernel

        monkeypatch.setattr(kernel, "_NODE_IDS_CAP", 40)
        monkeypatch.setattr(kernel, "_NODE_IDS", ())
        compiled = descent_program()
        # 31 nodes, then 79 (above the cap), then 31 again.
        for shape in ((3, 9), (6, 12), (3, 9)):
            doc = as_indexed(UnrankedStructure(thread_tree(*shape)))
            result = compiled.run(doc, method="kernel")
            slow = compiled.run(doc, method="seminaive")
            assert result.unary("mark") == slow.unary("mark")
            assert result.unary("deep") == slow.unary("deep")
            # The held tuple stays at the largest tree under the cap.
            assert len(kernel._NODE_IDS) == 31

    def test_constant_and_zero_ary_program_reuses(self):
        raw = parse_program(
            "seen :- label_b(x), leaf(x).\n"
            "top(x) :- child(0, x), label_a(x), seen.\n"
            "below(y) :- top(x), child(x, y).",
            query="top",
        )
        compiled = compile_program(raw)
        rng = random.Random(77)
        reused = 0
        for _ in range(30):
            seed, size = rng.randrange(10**6), rng.randint(1, 30)
            state = self.check(raw, compiled, random_tree(seed, size), None, "worklist")
            tree = random_tree(seed, size)
            edit_payloads(rng, tree, 3)
            self.check(raw, compiled, tree, state, "incremental")
            reused += bool(evaluate(raw, UnrankedStructure(tree)).relations["seen"])
        assert reused >= 10  # the 0-ary predicate held on many of the trees


def item_wrapper():
    from repro.wrap import Wrapper

    return Wrapper().add_datalog(
        "item", parse_program("item(x) :- label_li(x).", query="item")
    )


class TestOutputReuse:
    """When every plan reuses its fixpoint, the output is rebuilt from the
    previous output's shape: the second such version reads the shape, and
    the next ones reuse it with only the leaf texts read again."""

    @staticmethod
    def chain(wrapper, pages):
        """Wrap ``pages`` as successive versions of one document; each
        output must equal a cold wrap.  Yields ``(output, state, stats)``."""
        state = None
        for page in pages:
            out, state, stats = wrapper.wrap_html_stateful(page, state)
            assert out.to_dict() == wrapper.wrap_html_many([page])[0].to_dict()
            yield out, state, stats

    def test_leaf_texts_are_read_again(self):
        pages = [
            "<ul><li>a<b>x</b>c<li>solo<li>&#32;<li>keep</ul>",
            "<ul><li>a<b>y</b>c<li>solo<li>&#32;<li>keep</ul>",
            # A multi-run leaf's last run changes, and a leaf's only run
            # goes blank once decoded: the raw runs stay non-blank, so
            # the structure is reused.
            "<ul><li>a<b>y</b>z<li>&nbsp;<li>&#32;<li>keep</ul>",
            # And back: a blank leaf gets its text again.
            "<ul><li>q<b>y</b>z<li>back<li>now<li>keep</ul>",
        ]
        texts = [
            ["a x c", "solo", None, "keep"],
            ["a y c", "solo", None, "keep"],
            ["a y z", None, None, "keep"],
            ["q y z", "back", "now", "keep"],
        ]
        versions = list(self.chain(item_wrapper(), pages))
        assert [stats["output_reused"] for _, _, stats in versions] == [
            False, False, True, True,
        ]
        assert all(stats["snapshot_reused"] for _, _, stats in versions[1:])
        assert [[c.text for c in out.children] for out, _, _ in versions] == texts

    def test_a_general_step_page_with_an_unchanged_tree_reuses_the_shape(self):
        # The comment sends every build through the general scanner step,
        # so no version reuses the snapshot; the tree never changes.
        pages = [
            f"<ul><!-- {k} --><li>v{k}<li>b{k % 2}</ul>" for k in range(4)
        ]
        versions = list(self.chain(item_wrapper(), pages))
        assert [
            (stats["snapshot_reused"], stats["warm"], stats["output_reused"])
            for _, _, stats in versions
        ] == [(False, False, False), (False, True, False)] + [(False, True, True)] * 2
        assert [c.text for c in versions[-1][0].children] == ["v3", "b1"]

    @pytest.mark.parametrize("edit", ["appended_reply", "relabel"])
    def test_a_changed_tree_assembles_cold_and_drops_the_shape(self, edit):
        import re

        base = forum_page(seed=4, threads=3, depth=8)
        text = edit_comments(base, [(2, 7)], "(edited)")
        if edit == "appended_reply":
            changed = text.replace(
                "</ul></div>",
                '<li class="comment"><p>A new reply.</p></li></ul></div>', 1,
            )
        else:
            changed = re.sub(
                r"<p>(Comment 1\.2 [^<]*)</p>", r"<h4>\1</h4>", text, count=1
            )
        assert changed != text
        pages = [
            base, text, edit_comments(text, [(0, 3)], "(again)"), changed,
            edit_comments(changed, [(1, 5)], "(later)"),
            edit_comments(changed, [(1, 5)], "(latest)"),
        ]
        versions = list(self.chain(forum_wrapper(), pages))
        assert [
            (stats["warm"], stats["output_reused"], state.shape is not None)
            for _, state, stats in versions
        ] == [
            (False, False, False), (True, False, True), (True, True, True),
            (False, False, False), (True, False, True), (True, True, True),
        ]

    def test_a_plan_outside_the_kernel_fragment_reuses_on_an_unchanged_tree(self):
        # A binary intensional predicate: the plan has no kernel, and its
        # answers are a function of the tree all the same, so a version
        # with an unchanged tree reuses them, and the output's shape.
        reach = parse_program(
            "anc(x, y) :- child(x, y).\n"
            "anc(x, z) :- anc(x, y), child(y, z).\n"
            "deep(y) :- anc(x, y), label_ul(x), label_b(y).",
            query="deep",
        )
        wrapper = item_wrapper().add_datalog("deep", reach)
        pages = [f"<ul><li>a<b>x{k}</b><li>c{k}</ul>" for k in range(4)]
        versions = list(self.chain(wrapper, pages))
        assert [run["engine"] for run in versions[0][2]["runs"]] == [
            "worklist", "seminaive",
        ]
        for _, state, stats in versions[1:]:
            assert [run["engine"] for run in stats["runs"]] == ["incremental"] * 2
            assert stats["warm"] and stats["snapshot_reused"]
            assert state.shape is not None
        assert [stats["output_reused"] for _, _, stats in versions] == [
            False, False, True, True,
        ]
        assert versions[-1][0].to_sexpr() == "result(item(deep), item)"

    def test_changing_a_returned_output_never_reaches_the_next_version(self):
        page = forum_page(seed=3, threads=3, depth=6)
        pages = [page] + [
            edit_comments(page, [(k % 3, 5)], f"(edit {k})") for k in range(5)
        ]
        kept = []
        for out, _, stats in self.chain(forum_wrapper(), pages):
            # Checked against a cold wrap before it is changed.
            scramble(out)
            kept.append((out, stats["output_reused"]))
        assert [reused for _, reused in kept] == [False, False] + [True] * 4
        # No two versions share a node or a child list.
        nodes = [node for out, _ in kept for node in out.iter_subtree()]
        assert len({id(node) for node in nodes}) == len(nodes)
        lists = [node.children for node in nodes if node.children]
        assert len({id(children) for children in lists}) == len(lists)


class TestReuseOwnership:
    """A state reuses only for the wrapper, or the plan, that made it;
    handed to any other, the version runs cold and equals a cold run."""

    def test_a_state_passed_to_another_wrapper_runs_cold(self):
        from repro.wrap import Wrapper

        owner = forum_wrapper()
        page = forum_page(seed=9, threads=3, depth=6)
        edited = edit_comments(page, [(1, 4)], "(edited)")
        paragraphs = Wrapper().add_datalog(
            "para", parse_program("para(x) :- label_p(x).", query="para")
        )
        # Another program, whose answers differ from the state's, and an
        # unpickled copy of the wrapper that made the state.
        for other in (paragraphs, pickle.loads(pickle.dumps(owner))):
            _, state, _ = owner.wrap_html_stateful(page)
            out, state, stats = other.wrap_html_stateful(edited, state)
            # The page comparison still holds: only the answers are cold.
            assert stats["snapshot_reused"] and not stats["warm"]
            assert all(run["engine"] != "incremental" for run in stats["runs"])
            assert state.wrapper is other and state.shape is None
            assert out.to_dict() == other.wrap_html_many([edited])[0].to_dict()
            # The state ``other`` left reuses for ``other``.
            out, _, stats = other.wrap_html_stateful(page, state)
            assert stats["warm"]
            assert out.to_dict() == other.wrap_html_many([page])[0].to_dict()

    def test_a_wrapper_that_gains_a_function_runs_cold(self):
        wrapper = item_wrapper()
        _, state, _ = wrapper.wrap_html_stateful("<ul><li>a<li>b</ul>")
        wrapper.add_datalog(
            "list", parse_program("list(x) :- label_ul(x).", query="list")
        )
        out, _, stats = wrapper.wrap_html_stateful("<ul><li>a<li>c</ul>", state)
        assert not stats["warm"] and len(stats["runs"]) == 2
        assert out.to_sexpr() == "result(list(item, item))"

    def test_a_plan_state_passed_to_another_plan_runs_cold(self):
        def doc():
            return as_indexed(UnrankedStructure(thread_tree(3, 8)))

        owner = descent_program()
        gated = parse_program(GATED_DESCENT, query="deep")
        # The same program compiled again, and a program whose answers
        # differ from the state's: neither made the state.
        for other in (descent_program(), compile_program(gated)):
            _, state, _ = owner.run_incremental(doc(), None)
            result, state, info = other.run_incremental(doc(), state)
            assert info is None and result.engine == "worklist"
            assert state.plan is other
            assert result.relations == other.run(doc(), method="seminaive").relations
            result, _, info = other.run_incremental(doc(), state)
            assert info is not None and result.engine == "incremental"


def request(host, port, method, path, body=None, timeout=60):
    import http.client

    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, payload)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestServeWarmPath:
    @pytest.fixture
    def forum_server(self):
        registry = WrapperRegistry()
        registry.register(
            "forum", FORUM_WRAPPER, kind="elog",
            patterns=["thread", "comment", "body"],
        )
        server = ExtractionServer(registry, port=0, shards=0, cache_size=0)
        thread = ServerThread(server)
        host, port = thread.start()
        yield host, port
        thread.stop()

    def test_doc_id_reuses_state_and_matches_cold(self, forum_server):
        host, port = forum_server
        v1 = forum_page(seed=5, threads=3, depth=12)
        v2 = v1.replace("Comment 1.11 ", "Comment 1.11 (edited) ")

        status, first = request(
            host, port, "POST", "/extract/forum",
            {"html": v1, "doc_id": "doc-a"},
        )
        assert status == 200
        status, warm = request(
            host, port, "POST", "/extract/forum",
            {"html": v2, "doc_id": "doc-a"},
        )
        assert status == 200
        status, cold = request(
            host, port, "POST", "/extract/forum", {"html": v2}
        )
        assert status == 200
        assert warm["result"] == cold["result"]

        status, metrics = request(host, port, "GET", "/metrics")
        assert status == 200
        assert metrics["counters"].get("incremental_hits", 0) >= 1
        assert metrics["gauges"].get("incremental_reuse_fraction", 0) > 0

    def test_text_only_third_version_reuses_the_snapshot(self):
        import http.client

        registry = WrapperRegistry()
        registry.register(
            "forum", FORUM_WRAPPER, kind="elog",
            patterns=["thread", "comment", "body"],
        )
        # No tracing: a response then carries no trace id, so a warm and a
        # cold reply to one page are comparable byte for byte.
        server = ExtractionServer(
            registry, port=0, shards=0, cache_size=0, tracing=False
        )
        thread = ServerThread(server)
        host, port = thread.start()

        def body_of(payload):
            conn = http.client.HTTPConnection(host, port, timeout=60)
            try:
                conn.request("POST", "/extract/forum", json.dumps(payload))
                response = conn.getresponse()
                assert response.status == 200
                return response.read()
            finally:
                conn.close()

        try:
            v1 = forum_page(seed=8, threads=3, depth=10)
            v2 = v1.replace("Comment 2.9 ", "Comment 2.9 (edited) ")
            v3 = v2.replace("Comment 0.3 ", "Comment 0.3 &amp; more ")
            body_of({"html": v1, "doc_id": "doc-r"})
            status, metrics = request(host, port, "GET", "/metrics")
            assert metrics["counters"].get("snapshot_reuses", 0) == 0
            # The second version already reuses, and so does the third.
            for reuses, version in enumerate((v2, v3), 1):
                warm = body_of({"html": version, "doc_id": "doc-r"})
                status, metrics = request(host, port, "GET", "/metrics")
                assert metrics["counters"]["snapshot_reuses"] == reuses
                assert warm == body_of({"html": version})
            assert b"Comment 0.3 & more" in warm
        finally:
            thread.stop()

    def test_distinct_doc_ids_do_not_share_state(self, forum_server):
        host, port = forum_server
        page_a = forum_page(seed=6, threads=2, depth=8)
        page_b = forum_page(seed=7, threads=4, depth=5)
        for doc_id, page in (("a", page_a), ("b", page_b)):
            status, out = request(
                host, port, "POST", "/extract/forum",
                {"html": page, "doc_id": doc_id},
            )
            assert status == 200
        # re-crawl of b against its own state must match cold extraction
        edited = page_b.replace("Comment 0.4 ", "Comment 0.4 (new) ")
        status, warm = request(
            host, port, "POST", "/extract/forum",
            {"html": edited, "doc_id": "b"},
        )
        status, cold = request(
            host, port, "POST", "/extract/forum", {"html": edited}
        )
        assert warm["result"] == cold["result"]

    def test_bad_doc_id_type_is_rejected(self, forum_server):
        host, port = forum_server
        status, body = request(
            host, port, "POST", "/extract/forum",
            {"html": "<ul><li>x</ul>", "doc_id": 7},
        )
        assert status == 400
        assert "doc_id" in body["error"]
