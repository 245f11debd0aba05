"""The streaming ingestion pipeline: HTML bytes -> columns, no Nodes.

Covers :mod:`repro.trees.stream` (its HTML, s-expression and tree
snapshot sources), :mod:`repro.html.policy` (shared
tag-soup rules), :class:`repro.wrap.document.Document`,
:func:`repro.wrap.output.build_output_from_snapshot`, and the batch
entry points of :class:`repro.wrap.extraction.Wrapper`.

The core guarantee is *column parity*: for any document -- including
randomized tag soup with implicit closers, void elements, rawtext and
stray end tags -- the streaming scanner produces a snapshot identical,
column by column, to flattening the Node tree built by ``parse_html``,
and wrapped outputs agree across every path (Node, Document).
"""

import gc
import pickle
import random
import re

import pytest

from repro.datalog.parser import parse_program
from repro.errors import WrapError
from repro.html import parse_html
from repro.html.entities import decode_entities
from repro.html.policy import (
    IMPLICIT_CLOSERS,
    SCOPE_BARRIERS,
    VOID_ELEMENTS,
    OpenElements,
)
from repro.html.tokenizer import _scan_attributes, parse_tag, scan_list
from repro.structures import as_indexed
from repro.trees import parse_sexpr
from repro.trees.generate import random_tree
from repro.trees.ranked import RankedStructure
from repro.trees.snapshot import TreeSnapshot
from repro.trees.stream import html_snapshot, sexpr_snapshot, tree_snapshot
from repro.trees.unranked import UnrankedStructure
from repro.workloads import (
    CATALOG_WRAPPER,
    catalog_page,
    catalog_pages,
    forum_page,
    news_page,
    noisy_table_page,
)
from repro.wrap import Document, Wrapper, build_output_from_snapshot
from repro.wrap.output import LEAF, OutputNode, build_output_tree, node_text
from repro.wrap.serialize import to_xml

#: Tag-soup fragments exercising every policy rule: implicit closers,
#: scope barriers, void elements, self-closing syntax, rawtext, stray
#: and unmatched end tags, comments, doctypes, entities, broken markup.
SOUP_PIECES = [
    "<p>", "</p>", "<li>x", "<ul>", "</ul>", "<td a=1>", "<table>", "<tr>",
    "<td>", "<th>c", "</table>", "text & stuff", "<br/>", "<br>", "</br>",
    "<script>if(a<b)x();</script>", "<SCRIPT>X</SCRIPT>", "<style>p{}</style>",
    "</x>", "<", "<3>", "<!-- c -->", "<!DOCTYPE html>", "<img src=x>",
    "<i a='q'>", '<b a="un', "</ p>", "<dt>d", "<dd>e", "<option>o",
    "<tbody>", "<thead>", "<html>", "<body>", "</body>", "<div>", "</div>",
    "<p>par<p>par2", "<select>", "</select>", "x &amp; y", "<a href='/x?a=1&amp;b=2'>y</a>",
    # Straddling the scanner's tag-cache fast path and its general step.
    '<a x="1" y="2">', "<a x='1'>", "<a x=1>", '<img src="a"/>', "</a junk>",
    '<a x="1', "<A HREF=\"/Y\">", "</A>", "<DiV Class=\"c\">", '<a t="x &amp; y">',
    "a &lt; b", "< b", "<=", "<a >", '<a x="1" />', '<a\nx="1">', "</>", "<li/>",
    "</a", "<script/>", '<span x="1"/>', " ", "\n\t", "<table></table>", "<ul></ul>",
    "<document>", "</document>",
    # Straddling the split on '<' and the first '>' after it: a '>' or a
    # '<' inside a quoted value, tags inside comments and rawtext, and
    # one tag text in two cases (two tag-cache entries, one name).
    '<a t="x>y">', '<a t="x<y">', '</a t="x>y">', "<!-- <b>c</b> -->",
    "<style>a>b{}</style>", "<TD>", "<td>",
]

#: Appended at the end of some random documents: a trailing end tag
#: with no ``>`` (only the end of input can leave it open).
SOUP_TAILS = ["</a", "</TD", "</", "<!-- open", "tail &amp; text"]


#: Deep runs of hostile tag soup, by run length: each tag of the run
#: makes the policy look far down the open-element stack.
DEEP_RUNS = [
    lambda k: "<div>" * k + "</span>" * k,
    lambda k: "".join(f"<p>r{i}" for i in range(k)),
    lambda k: "<table><tr><td>" * k + "<div>" * k + "<td>c" * k,
    lambda k: "<ul><li>" * k + "<div>" * k + "<li>i" * k + "</ul>" * k,
]


def soup(rng: random.Random, pieces: int = 14) -> str:
    parts = []
    for _ in range(rng.randint(0, pieces)):
        if rng.random() < 0.1:
            parts.append(rng.choice(DEEP_RUNS)(rng.randint(1, 40)))
        else:
            parts.append(rng.choice(SOUP_PIECES))
    if rng.random() < 0.1:
        parts.append(rng.choice(SOUP_TAILS))
    return "".join(parts)


def implied_close_cut(labels, names) -> int:
    """Reference oracle: the linear-scan implicit-close rule.

    Stack length after closing the innermost frame whose label is in
    ``names``, repeatedly, without crossing a scope barrier; index 0 is
    the document root, which never closes.
    """
    cut = len(labels)
    for index in range(len(labels) - 1, 0, -1):
        label = labels[index]
        if label in names:
            cut = index
        elif label in SCOPE_BARRIERS:
            break
    return cut


def end_tag_cut(labels, name) -> int:
    """Reference oracle: stack length after ``</name>`` (linear scan)."""
    for index in range(len(labels) - 1, 0, -1):
        if labels[index] == name:
            return index
    return len(labels)


_REFERENCE_NAME = re.compile(r"[\w:-]+")
_REFERENCE_ONE_ATTR = re.compile(r'\s([\w:-]+)="([^"]*)"(/?)>')


def reference_scan_list(html: str) -> list:
    """Reference oracle: the scanner loop as it was before the one-match
    token regex, emitting :func:`scan_list` events.

    One find/slice/match step per token, the document lowercased once
    for the rawtext close-tag searches (so it is only an oracle on
    documents whose lowercasing keeps every offset, e.g. ASCII ones).
    The attribute scanner is shared with the code under test.
    """
    out = []
    i = 0
    n = len(html)
    lower = None
    find = html.find
    while i < n:
        if html[i] == "<":
            lt = i
        else:
            lt = find("<", i)
            end = n if lt == -1 else lt
            text = html[i:end]
            if not text.isspace():
                out.append(("text", decode_entities(text) if "&" in text else text))
            if lt == -1:
                return out
            i = lt
        nxt = html[i + 1] if i + 1 < n else ""
        if nxt == "!":
            if html.startswith("<!--", i):
                end = find("-->", i + 4)
                if end == -1:
                    end = n - 3
                out.append(("comment", html[i + 4 : end]))
                i = end + 3
            else:
                end = find(">", i + 2)
                if end == -1:
                    end = n - 1
                out.append(("doctype", html[i + 2 : end].strip()))
                i = end + 1
            continue
        if nxt == "/":
            m = _REFERENCE_NAME.match(html, i + 2)
            if m is None:
                end = find(">", i + 2)
            else:
                end = find(">", m.end())
                out.append(("end", m.group().lower()))
            i = (end + 1) if end != -1 else n
            continue
        m = _REFERENCE_NAME.match(html, i + 1)
        if m is None:
            out.append(("text", "<"))
            i += 1
            continue
        name = m.group().lower()
        j = m.end()
        if j < n and html[j] == ">":
            attrs, self_closing, i = {}, False, j + 1
        else:
            m = _REFERENCE_ONE_ATTR.match(html, j)
            if m is not None:
                value = m.group(2)
                if value and "&" in value:
                    value = decode_entities(value)
                attrs = {m.group(1).lower(): value}
                self_closing = m.group(3) == "/"
                i = m.end()
            else:
                attrs, self_closing, i = _scan_attributes(html, j)
        out.append(("start", name, attrs, self_closing))
        if name in ("script", "style") and not self_closing:
            if lower is None:
                lower = html.lower()
            close = lower.find(f"</{name}", i)
            if close == -1:
                close = n
            raw = html[i:close]
            if raw and not raw.isspace():
                out.append(("text", raw))
            gt = find(">", close)
            if close < n:
                out.append(("end", name))
            i = (gt + 1) if gt != -1 else n
    return out


def columns(snapshot: TreeSnapshot) -> dict:
    return {
        "size": snapshot.size,
        "parent": snapshot.parent,
        "firstchild": snapshot.firstchild,
        "nextsibling": snapshot.nextsibling,
        "prevsibling": snapshot.prevsibling,
        "lastchild": snapshot.lastchild,
        "label_ids": snapshot.label_ids,
        "labels": snapshot.labels,
        "label_index": snapshot.label_index,
        "texts": snapshot.texts,
        "attrs": snapshot.attrs,
    }


def catalog_wrapper() -> Wrapper:
    from repro.elog.parser import parse_elog

    program = parse_elog(CATALOG_WRAPPER, query="record")
    wrapper = Wrapper()
    for pattern in ("record", "name", "price"):
        wrapper.add_elog(pattern, program, pattern=pattern)
    return wrapper


def catalog_plan():
    """The catalog wrapper's program, compiled once (the one plan that
    :func:`catalog_wrapper`'s three patterns share)."""
    from repro.datalog.plan import compile_program
    from repro.elog import elog_to_datalog, parse_elog

    program = parse_elog(CATALOG_WRAPPER, query="record")
    return compile_program(elog_to_datalog(program)).prepare()


class TestScanner:
    """The split scanner emits exactly the reference scanner's events."""

    def test_randomized_events_match_reference(self):
        rng = random.Random(20261017)
        for _ in range(2000):
            doc = soup(rng, pieces=20)
            assert scan_list(doc) == reference_scan_list(doc), repr(doc)

    def test_workload_events_match_reference(self):
        for page in (
            catalog_page(seed=1, items=120),
            news_page(seed=2, articles=25),
            noisy_table_page(seed=3, rows=60),
        ):
            assert scan_list(page) == reference_scan_list(page)

    def test_fast_and_general_steps(self):
        assert scan_list('t<a x="1">u</a>') == [
            ("text", "t"), ("start", "a", {"x": "1"}, False),
            ("text", "u"), ("end", "a"),
        ]
        # Two attributes, single quotes, unquoted values, ``<br/>``: the
        # general step; the events do not depend on which step ran.
        assert scan_list("<a x='1' y=2><br/>") == [
            ("start", "a", {"x": "1", "y": "2"}, False),
            ("start", "br", {}, True),
        ]
        assert scan_list("</B junk>x</a") == [("end", "b"), ("text", "x"), ("end", "a")]
        # A '>' or '<' in a quoted value: the general step, then the split
        # on '<' resumes after the tag.
        assert scan_list('<a t="x>y">u</a><b t="x<y">v') == [
            ("start", "a", {"t": "x>y"}, False), ("text", "u"), ("end", "a"),
            ("start", "b", {"t": "x<y"}, False), ("text", "v"),
        ]

    def test_identical_tags_get_distinct_attrs_dicts(self):
        # One tag-cache entry serves both tags; each event still gets its
        # own dict, and so does each node of the snapshot.
        doc = '<p><a href="/x">1</a><a href="/x">2</a></p>'
        first, second = [e[2] for e in scan_list(doc) if e[0] == "start" and e[1] == "a"]
        assert first == second == {"href": "/x"}
        assert first is not second
        snapshot = html_snapshot(doc)
        a1, a2 = (attrs for nid, attrs in sorted(snapshot.attrs.items()))
        assert a1 == a2 == {"href": "/x"}
        assert a1 is not a2
        a1["href"] = "/changed"
        assert html_snapshot(doc).attrs[1] == {"href": "/x"}

    def test_rawtext_close_after_case_changing_text(self):
        # Lowercasing "İ" makes it two characters long; the rawtext close
        # tag is still found at its offset in the document itself.
        assert [e[1] for e in scan_list("İ<script>x</script>y") if e[0] == "text"] == [
            "İ", "x", "y",
        ]


class TestSnapshotParity:
    """Streaming snapshots are column-identical to the Node path."""

    def test_randomized_tag_soup_parity(self):
        rng = random.Random(20260729)
        for _ in range(500):
            doc = soup(rng)
            via_nodes = UnrankedStructure(parse_html(doc)).snapshot()
            streamed = html_snapshot(doc)
            assert columns(via_nodes) == columns(streamed), repr(doc)

    def test_workload_page_parity(self):
        for page in (
            catalog_page(seed=1, items=120),
            news_page(seed=2, articles=25),
            noisy_table_page(seed=3, rows=60),
        ):
            via_nodes = UnrankedStructure(parse_html(page)).snapshot()
            assert columns(via_nodes) == columns(html_snapshot(page))

    def test_root_unwrapping_matches_parse_html(self):
        # Single element root unwraps; top-level text or siblings keep the
        # synthetic document node -- exactly as parse_html decides.
        for doc in ("<html><p>x</p></html>", "a<p>b</p>", "<p>a</p><p>b</p>", "", "plain"):
            tree = parse_html(doc)
            streamed = html_snapshot(doc)
            assert streamed.labels[streamed.label_ids[0]] == tree.label, repr(doc)
            assert columns(UnrankedStructure(tree).snapshot()) == columns(streamed)

    def test_sexpr_and_tree_replays(self):
        rng = random.Random(5)
        for _ in range(50):
            tree = random_tree(rng, rng.randint(1, 20), labels=("a", "b", "c"))
            reference = UnrankedStructure(tree).snapshot()
            for snapshot in (tree_snapshot(tree), sexpr_snapshot(str(tree))):
                assert snapshot.parent == reference.parent
                assert snapshot.labels == reference.labels
                assert snapshot.label_ids == reference.label_ids

    def test_tree_replay_keeps_interior_text_and_attrs(self):
        # Regression: interior (non-leaf) nodes may carry text/attrs on
        # hand-built trees; the replay must not drop them.
        from repro.trees import Node

        root = Node("div", attrs={"id": "r"}, text="interior")
        root.add_child(Node("b", text="child"))
        reference = UnrankedStructure(root).snapshot()
        snapshot = tree_snapshot(root)
        assert snapshot.texts == reference.texts == {0: "interior", 1: "child"}
        assert snapshot.attrs == reference.attrs
        assert snapshot.node_text(0) == "interior child"


class TestColumnForm:
    """Every producer's tree columns and functional maps are tuples, and
    the collector untracks them: a snapshot leaves no GC-tracked column.

    Readers index the columns one element at a time, which CPython
    specializes on tuples; a tuple holding only ints is untracked by the
    first collection that sees it, so long-lived snapshots add nothing
    to later collections."""

    TREE_COLUMNS = ("parent", "firstchild", "nextsibling", "prevsibling", "lastchild")

    @staticmethod
    def producers():
        tree = random_tree(random.Random(11), 400, labels=("a", "b", "c"))
        ranked = random_tree(random.Random(12), 400, labels=("f", "g"), max_children=3)
        yield "html_snapshot", html_snapshot(catalog_page(seed=7, items=40))
        yield "sexpr_snapshot", sexpr_snapshot(str(tree))
        yield "tree_snapshot", tree_snapshot(tree)
        yield "UnrankedStructure", UnrankedStructure(tree).snapshot()
        yield "RankedStructure", RankedStructure(ranked).snapshot()

    @classmethod
    def columns_of(cls, snapshot):
        """The tree columns plus every functional map the schema serves."""
        out = [getattr(snapshot, name) for name in cls.TREE_COLUMNS]
        names = ["child", "firstchild", "nextsibling", "lastchild"]
        names += [f"child{k}" for k in range(1, snapshot.max_rank + 1)]
        for name in names:
            for column in (snapshot.forward_map(name), snapshot.backward_map(name)):
                if column is not None:
                    out.append(column)
        return out

    def test_columns_and_maps_are_untracked_tuples(self):
        held = []
        for producer, snapshot in self.producers():
            found = self.columns_of(snapshot)
            assert len(found) > len(self.TREE_COLUMNS), producer
            for column in found:
                assert type(column) is tuple, (producer, type(column))
                assert len(column) == snapshot.size, producer
            held.append((producer, found))
        gc.collect()
        for producer, found in held:
            assert not any(gc.is_tracked(column) for column in found), producer


class TestOpenElements:
    """The O(1)-amortized stack cuts exactly where the linear scans do."""

    ALPHABET = sorted(
        SCOPE_BARRIERS
        | set(IMPLICIT_CLOSERS)
        | set().union(*IMPLICIT_CLOSERS.values())
        | {"div", "span", "b", "br"}
    )

    @staticmethod
    def assert_indexes_consistent(stack):
        positions = {}
        for index, label in enumerate(stack.labels):
            positions.setdefault(label, []).append(index)
        assert {k: v for k, v in stack.positions.items() if v} == positions
        barriers = [i for i, label in enumerate(stack.labels) if label in SCOPE_BARRIERS]
        assert stack.barriers == barriers

    def test_random_sequences_match_linear_scans(self):
        rng = random.Random(20261016)
        alphabet = self.ALPHABET
        for _ in range(300):
            root = rng.choice(("document", "li", "div"))
            stack = OpenElements()
            stack.push(root, 0)
            reference = [root]
            items = [0]
            for step in range(rng.randint(1, 120)):
                op = rng.random()
                if op < 0.2:
                    label = rng.choice(alphabet)
                    stack.push(label, step + 1)
                    reference.append(label)
                    items.append(step + 1)
                elif op < 0.3:
                    if len(reference) > 1:
                        stack.pop()
                        reference.pop()
                        items.pop()
                elif op < 0.75:
                    name = rng.choice(alphabet)
                    self_closing = rng.random() < 0.1
                    closed = IMPLICIT_CLOSERS.get(name, ())
                    cut = implied_close_cut(reference, closed)
                    del reference[cut:], items[cut:]
                    assert stack.start_tag(name, step + 1, self_closing) == items[-1]
                    if name not in VOID_ELEMENTS and not self_closing:
                        reference.append(name)
                        items.append(step + 1)
                else:
                    name = rng.choice(alphabet + [root])
                    cut = end_tag_cut(reference, name)
                    stack.end_tag(name)
                    del reference[cut:], items[cut:]
                assert stack.labels == reference
                assert stack.items == items
                self.assert_indexes_consistent(stack)
            stack.truncate(0)
            assert not stack and stack.barriers == []
            self.assert_indexes_consistent(stack)


class TestImplicitCloserFastPath:
    """An implicit closer that closes nothing is a plain push in
    ``html_snapshot``; every other start tag still goes through
    :meth:`OpenElements.start_tag`, and the columns never differ."""

    #: Document -> the start tags that must take the general path: the
    #: closers that cut, and self-closing closers.  A closer with a scope
    #: barrier between it and the label it closes cuts nothing.
    GENERAL_CALLS = {
        "<table><tr><td>a<td>b<tr><td>c</table>": ["td", "tr"],
        "<dl><dt>a<dd>b<dt>c</dl>": ["dd", "dt"],
        "<p>a<p>b": ["p"],
        "<ul><li>a<ul><li>b</ul><li>c</ul>": ["li"],
        "<table><tr><td><table><tr><td>x</table>y": [],
        "<td/>": ["td"],
        "<li/>": ["li"],
        '<table><tr><td x="1"/><td>a</table>': ["td"],
        # One tag text (one cached build step) that pushes in one place
        # and cuts in another, and <br/> next to the plain <br>.
        '<table><tr><td class="c">a</td><td class="c">b<td class="c">c'
        '<table><tr><td class="c">d</table><td class="c">e</table>': ["td", "td"],
        "<ul><li>a</li><li>b<li>c<ul><li>d</ul></li><li>e</ul>": ["li"],
        "<p>a<br/>b<br/>c<br>d<i>e<br/></i></p>": ["br", "br", "br", "br"],
        "<dl><dt>a<dd>b</dd><dt>c</dt><dt>d<dt>e</dl>": ["dd", "dt"],
    }

    @staticmethod
    def count_start_tags(monkeypatch):
        calls = []
        start_tag = OpenElements.start_tag

        def counting(self, name, *args):
            calls.append(name)
            return start_tag(self, name, *args)

        monkeypatch.setattr(OpenElements, "start_tag", counting)
        return calls

    def test_column_parity(self):
        for doc in self.GENERAL_CALLS:
            via_nodes = UnrankedStructure(parse_html(doc)).snapshot()
            assert columns(via_nodes) == columns(html_snapshot(doc)), repr(doc)

    def test_general_path_taken_exactly_when_needed(self, monkeypatch):
        calls = self.count_start_tags(monkeypatch)
        for doc, expected in self.GENERAL_CALLS.items():
            del calls[:]
            html_snapshot(doc)
            assert calls == expected, repr(doc)

    def test_well_formed_pages_never_call_start_tag(self, monkeypatch):
        pages = [catalog_page(seed=7, items=640), forum_page(seed=7, threads=8, depth=80)]
        calls = self.count_start_tags(monkeypatch)
        for page in pages:
            html_snapshot(page)
        assert calls == []


class TestCachedBuildSteps:
    """``html_snapshot`` compiles one build step per distinct tag text
    and reuses it wherever the text recurs, on whichever path the stack
    then takes (``TestImplicitCloserFastPath`` pins the paths)."""

    DOCS = list(TestImplicitCloserFastPath.GENERAL_CALLS)

    def test_each_distinct_tag_text_is_parsed_once(self, monkeypatch):
        import repro.trees.stream as stream

        parsed = []

        def counting(tag):
            parsed.append(tag)
            return parse_tag(tag)

        monkeypatch.setattr(stream, "parse_tag", counting)
        for doc in self.DOCS:
            del parsed[:]
            html_snapshot(doc)
            assert len(parsed) == len(set(parsed)), repr(doc)

    def test_label_ids_keep_first_occurrence_order(self):
        rng = random.Random(31)
        docs = list(self.DOCS)
        # An end tag before its start tag, and a label first seen through
        # the general step (two attributes), must not take an early id.
        docs += ["</b></i>x<i>y</i><b>z", '<u a="1" b="2">x</u><u>y<em/>', "<br/>t<br>"]
        docs += [soup(rng, pieces=20) for _ in range(100)]
        for doc in docs:
            snapshot = html_snapshot(doc)
            first_seen = list(dict.fromkeys(snapshot.label_ids))
            assert first_seen == sorted(first_seen), repr(doc)
            via_nodes = UnrankedStructure(parse_html(doc)).snapshot()
            assert snapshot.labels == via_nodes.labels, repr(doc)


class TestLabelIdLanes:
    """``label_ids`` is ``bytes`` under 256 labels, a tuple above,
    and everything built on it agrees with the Node path either way."""

    @staticmethod
    def page(tags: int) -> str:
        return "".join(f"<t{i}><td>x<td>y</t{i}>" for i in range(tags))

    @staticmethod
    def wrapper() -> Wrapper:
        wrapper = Wrapper()
        wrapper.add_datalog("cell", parse_program("cell(x) :- label_td(x).", query="cell"))
        wrapper.add_datalog(
            "first", parse_program("first(x) :- notlabel_td(x), firstsibling(x).", query="first")
        )
        return wrapper

    def test_lane_form_follows_label_count(self):
        assert isinstance(html_snapshot(self.page(200)).label_ids, bytes)
        wide = html_snapshot(self.page(300))
        assert isinstance(wide.label_ids, tuple)
        gc.collect()
        assert not gc.is_tracked(wide.label_ids)

    @pytest.mark.parametrize("tags", [200, 300])
    def test_masks_and_wrap_match_node_path(self, tags):
        page = self.page(tags)
        streamed = html_snapshot(page)
        via_nodes = UnrankedStructure(parse_html(page)).snapshot()
        assert columns(streamed) == columns(via_nodes)
        td = streamed.label_index["td"]
        expected = bytearray(lid == td for lid in streamed.label_ids)
        for snapshot in (streamed, via_nodes):
            assert bytes(snapshot.unary_mask("label_td")) == expected
            assert snapshot.unary_nodes("notlabel_td") == [
                v for v in range(snapshot.size) if not expected[v]
            ]
        wrapper = self.wrapper()
        (streamed_out,) = wrapper.wrap_html_many([page])
        (via_tree_out,) = wrapper.wrap_many([parse_html(page)])
        assert [(n.label, n.text) for n in streamed_out.iter_subtree()] == [
            (n.label, n.text) for n in via_tree_out.iter_subtree()
        ]
        assert streamed_out.to_sexpr() == via_tree_out.to_sexpr()

    def test_both_forms_pickle(self):
        for tags in (200, 300):
            snapshot = html_snapshot(self.page(tags))
            clone = pickle.loads(pickle.dumps(snapshot))
            assert type(clone.label_ids) is type(snapshot.label_ids)
            assert columns(clone) == columns(snapshot)
            assert clone.unary_nodes("label_td") == snapshot.unary_nodes("label_td")


#: A page as a token list: tags (one or two attributes, entity-coded
#: values) and text runs; :meth:`TestWarmSnapshot.edit` rewrites it.
WARM_BASE = [
    '<div class="page">', "Title &amp; more", "<ul>",
    '<li class="a">', "one", "<li>", " ", '<li class="b">', "AT&T",
    "</ul>", "<p>", "x &lt; y", "<br>", "\n", "<table>", "<tr>", "<td>",
    "cell", '<td title="q&amp;a">', "", "</table>", "<p>", "last", "</div>",
]

#: Text runs to swap in: non-blank, blank (unusual whitespace too) and
#: entity-coded ones.
WARM_TEXTS = [
    "alpha", "beta gamma", " ", "\n\t", "", "a &amp; b", "&lt;tag&gt;",
    "caf&eacute;", "AT&T", "1 &lt; 2", "&#32;", "x", "\x85", "\u3000",
]

#: Text runs holding '>': the piece's first '>' still ends its tag.
WARM_GT_TEXTS = ["a > b", "1 &gt; 2", ">", " > ", "x>y>z"]

#: Tags to swap in for another one at the same piece count; "</a" has no
#: '>', so its piece takes the general step.
WARM_SWAPS = ["<p>", "<b>", "<h4>", "</li>", "<li>", "<td>", "</a"]

#: Tokens the general scanner step reads: comments, raw text, two
#: attributes, a '>' inside a quoted value.
WARM_GENERAL = [
    "<!-- note -->", "<script>if(a<b)x();</script>", "<style>p>q{}</style>",
    '<a x="1" y="2">', '<a t="x>y">', "<!DOCTYPE html>",
]


class TestWarmSnapshot:
    """``html_snapshot_warm`` equals a cold ``html_snapshot`` column by
    column on every version of randomized edit sequences, and the wrapped
    output equals ``wrap_html_many``."""

    @staticmethod
    def edit(rng, tokens):
        """One random edit of the token list, in place; mostly text."""
        texts = [i for i, tok in enumerate(tokens) if not tok.startswith("<")]
        kind = rng.choice(
            ["text"] * 8
            + ["attr", "general", "ungeneral", "trailing", "top_text", "tag",
               "swap", "gt_text"]
        )
        if kind == "text" and texts:
            tokens[rng.choice(texts)] = rng.choice(WARM_TEXTS)
        elif kind == "gt_text" and texts:
            tokens[rng.choice(texts)] = rng.choice(WARM_GT_TEXTS)
        elif kind == "swap":
            # One tag for another: the page keeps its piece count.
            tags = [
                i for i, tok in enumerate(tokens)
                if tok.startswith("<") and tok not in WARM_GENERAL
            ]
            if tags:
                tokens[rng.choice(tags)] = rng.choice(WARM_SWAPS)
        elif kind == "attr":
            tags = [i for i, tok in enumerate(tokens) if tok.startswith("<li")]
            if tags:
                tokens[rng.choice(tags)] = rng.choice(
                    ['<li class="a">', '<li class="z">', "<li>", "<li id=q>",
                     '<li class="a&amp;b">', '<li class="a" id="two">']
                )
        elif kind == "general":
            tokens.insert(rng.randrange(1, len(tokens)), rng.choice(WARM_GENERAL))
        elif kind == "ungeneral":
            found = [i for i, tok in enumerate(tokens) if tok in WARM_GENERAL]
            if found:
                del tokens[rng.choice(found)]
        elif kind == "trailing":
            if tokens[-1] in ("</a", "<b", "<"):
                tokens.pop()
            else:
                tokens.append(rng.choice(["</a", "<b", "<"]))
        elif kind == "top_text":
            # Text before the root element: non-blank text keeps the
            # synthetic root, blank text unwraps it.
            if tokens[0].startswith("<"):
                tokens.insert(0, rng.choice(["lead", " ", "&amp;"]))
            else:
                del tokens[0]
        else:
            tokens.insert(rng.randrange(1, len(tokens)), rng.choice(["<p>", "</li>", "<b>"]))

    def test_randomized_edit_sequences_match_cold(self):
        from repro.trees.stream import html_snapshot_warm

        rng = random.Random(20261020)
        wrapper = Wrapper()
        wrapper.add_datalog("item", parse_program("item(x) :- label_li(x).", query="item"))
        wrapper.add_datalog("cell", parse_program("cell(x) :- label_td(x).", query="cell"))
        counts = {True: 0, False: 0}
        for _ in range(40):
            tokens = list(WARM_BASE)
            # The first version builds cold with no comparison, as a
            # wrapper's prior-less first version does.
            snapshot, page, ranks, reused = html_snapshot_warm("".join(tokens))
            _, state, _ = wrapper.wrap_html_stateful("".join(tokens))
            for _ in range(12):
                self.edit(rng, tokens)
                html = "".join(tokens)
                cold = html_snapshot(html)
                snapshot, page, ranks, reused = html_snapshot_warm(
                    html, page, snapshot, ranks
                )
                counts[reused] += 1
                assert columns(snapshot) == columns(cold), repr(html)
                if reused:
                    assert snapshot.parent is not cold.parent
                out, state, stats = wrapper.wrap_html_stateful(html, state)
                assert stats["snapshot_reused"] == reused, repr(html)
                assert out.to_dict() == wrapper.wrap_html_many([html])[0].to_dict()
                assert columns(state.snapshot) == columns(cold), repr(html)
                # Mutating this version's attribute dicts and texts must
                # not reach the next version's snapshot.
                for attrs in (snapshot.attrs or {}).values():
                    attrs["mutated"] = "yes"
                for attrs in (state.snapshot.attrs or {}).values():
                    attrs["mutated"] = "yes"
        assert counts[True] > 80 and counts[False] > 80, counts

    def test_a_general_step_page_builds_the_next_version_without_comparing(
        self, monkeypatch
    ):
        from repro.trees import stream
        from repro.trees.stream import GENERAL, html_snapshot_warm

        compared = []
        new_texts = stream._new_texts
        monkeypatch.setattr(
            stream, "_new_texts",
            lambda *args: compared.append(1) or new_texts(*args),
        )
        # A first version keeps its page at no cost, unless its build
        # took the general step.
        snapshot, kept, ranks, reused = html_snapshot_warm("<p>a<p>b")
        assert kept == "<p>a<p>b" and ranks is None and not reused
        for html in ("<p>a<!-- c --><p>b", "<p>a<script>x</script>", "<p>a<b"):
            first, page, _, reused = html_snapshot_warm(html)
            assert page == GENERAL and not reused
            # Its next version builds cold without a comparison, and keeps
            # GENERAL again or, with no general step, its own page.
            for again, expected in ((html, GENERAL), ("<p>c<p>d", "<p>c<p>d")):
                snap, page, ranks, reused = html_snapshot_warm(again, GENERAL, first)
                assert page == expected and ranks is None and not reused
                assert columns(snap) == columns(html_snapshot(again))
        assert not compared
        # A comparison that meets the general step keeps GENERAL.
        snap, page, _, reused = html_snapshot_warm("<p>a<!-- c -->", kept, snapshot)
        assert page == GENERAL and not reused and compared == [1]
        # A text-only second version reuses: one comparison.
        snapshot, kept, ranks, reused = html_snapshot_warm(
            "<p>e<p>f", kept, snapshot
        )
        assert reused and snapshot.texts == {2: "e", 4: "f"}  # two roots
        assert kept == "<p>e<p>f" and len(ranks) == 3 and compared == [1, 1]

    def test_a_new_piece_count_neither_splits_nor_compares(self, monkeypatch):
        from repro.trees import stream
        from repro.trees.stream import html_snapshot_warm

        class Page(str):
            def split(self, *args):
                raise AssertionError("the previous page was split")

        compared = []
        monkeypatch.setattr(stream, "_new_texts", lambda *args: compared.append(1))
        snapshot = html_snapshot("<ul><li>a<li>b</ul>")
        for html in ("<ul><li>a<li>b<li>c</ul>", "<ul><li>a</ul>", "<ul>"):
            snap, page, ranks, reused = html_snapshot_warm(
                html, Page("<ul><li>a<li>b</ul>"), snapshot
            )
            assert not reused and page == html and ranks is None
            assert columns(snap) == columns(html_snapshot(html))
        assert not compared

    #: ``(previous, new)`` at one piece count whose structures differ.
    EQUAL_COUNT_CHANGES = [
        ("<ul><li>a<li>b</ul>", "<ul><li>a<p>b</ul>"),  # a swapped tag
        ("<ul><li>a<li>b</ul>", "<ul><li>a<li class=x>b</ul>"),
        ("<ul><li>a<li> </ul>", "<ul><li>a<li>b</ul>"),  # blank to non-blank
        ("<ul><li>a<li>b</ul>", "<ul><li>a<li>\n</ul>"),  # and back
        ("<ul><li>a<li></ul>", "<ul><li>a<li</ul>"),  # a piece with no '>'
        ("x<p>a", "y<p>a"),  # the head text (root-level)
        ("x<p>a", " <p>a"),  # which unwraps the root when blank
        ("a", "z"),  # one piece
    ]

    def test_structure_changes_at_an_equal_piece_count_build_cold(self):
        from repro.trees.stream import GENERAL, _ranks, html_snapshot_warm

        for before, after in self.EQUAL_COUNT_CHANGES:
            assert before.count("<") == after.count("<")
            previous, page, _, _ = html_snapshot_warm(before)
            # With and without a rank table from an earlier reuse.
            for ranks in (None, _ranks(before.split("<"))):
                snap, kept, kept_ranks, reused = html_snapshot_warm(
                    after, page, previous, ranks
                )
                assert not reused, (before, after)
                assert columns(snap) == columns(html_snapshot(after)), after
                assert kept_ranks is None and kept in (after, GENERAL)

    def test_runs_with_gt_or_odd_whitespace_reuse_in_place(self):
        from repro.trees.stream import html_snapshot_warm

        # Blank runs of unusual whitespace hold no text node, so each
        # non-blank run after them keeps its own text id.
        base = "<div><p>\x1c<p>one<p>\x85<b>two</b>\u3000<p> <i>three</i>end</div>"
        edits = [
            ("one", "a > b"), ("two", "1 &gt; 2"), ("three", ">"),
            ("\x85", "\u3000\x1c"), ("end", "x>y"), ("\u3000", "\x85"),
            ("a > b", "one"),
        ]
        snapshot, page, ranks, _ = html_snapshot_warm(base)
        html = base
        for old, new in edits:
            html = html.replace(old, new, 1)
            cold = html_snapshot(html)
            snapshot, page, ranks, reused = html_snapshot_warm(
                html, page, snapshot, ranks
            )
            assert reused, html
            assert snapshot.texts == cold.texts, html
            assert columns(snapshot) == columns(cold), html
        assert list(snapshot.texts.values()) == ["one", "1 > 2", ">", "x>y"]


class TestDocument:
    def test_text_and_attrs(self):
        document = Document.from_html(
            '<div id="main"><p>hello <b>world</b></p><p>bye</p></div>'
        )
        assert document.attrs_of(0) == {"id": "main"}
        assert document.text(0) == "hello world bye"
        assert document.label_of(0) == "div"

    def test_compiled_programs_run_on_documents(self):
        from repro.datalog.engine import compile_program

        program = parse_program(
            "item(x) :- label_li(x).\nitem(y) :- item(x), firstchild(x, y).",
            query="item",
        )
        compiled = compile_program(program)
        document = Document.from_html("<ul><li>a<li><b>c</b></ul>")
        tree_result = compiled.run(UnrankedStructure(parse_html("<ul><li>a<li><b>c</b></ul>")))
        doc_result = compiled.run(as_indexed(document))
        assert doc_result.method == "kernel"
        assert doc_result.relations == tree_result.relations
        # The general engine works off Document's column-computed relations.
        assert (
            compiled.run(as_indexed(document), method="seminaive").relations
            == tree_result.relations
        )

    def test_document_pickles(self):
        document = Document.from_html(catalog_page(seed=1, items=5))
        clone = pickle.loads(pickle.dumps(document))
        assert columns(clone.snapshot()) == columns(document.snapshot())


class TestOutputFromSnapshot:
    def test_matches_tree_output_on_random_soup(self):
        rng = random.Random(99)
        wrapper = catalog_wrapper()
        for _ in range(120):
            doc = soup(rng, pieces=20)
            via_tree = wrapper.wrap(parse_html(doc))
            via_stream = wrapper.wrap(Document.from_html(doc))
            assert via_tree.to_sexpr() == via_stream.to_sexpr(), repr(doc)
            assert [
                (n.label, n.text) for n in via_tree.iter_subtree()
            ] == [(n.label, n.text) for n in via_stream.iter_subtree()], repr(doc)

    def test_text_capture_from_text_column(self):
        snapshot = html_snapshot("<ul><li>a <b>b</b></li><li>c</li></ul>")
        out = build_output_from_snapshot(snapshot, {1: "item", 5: "item"})
        assert out.to_sexpr() == "result(item, item)"
        assert [c.text for c in out.children] == ["a b", "c"]
        assert [c.source_id for c in out.children] == [1, 5]

    def test_add_gives_a_leaf_its_own_list(self):
        root = OutputNode("result")
        other = OutputNode("result")
        assert root.children is LEAF and other.children is LEAF
        first = root.add(OutputNode("item"))
        assert type(root.children) is list and root.children == [first]
        second = root.add(OutputNode("item"))
        assert root.children == [first, second]
        assert other.children is LEAF and first.children is LEAF

    def test_snapshot_built_leaves_share_one_empty_tuple(self):
        out = catalog_wrapper().wrap_html_many([catalog_page(seed=7, items=40)])[0]
        leaves = [node for node in out.iter_subtree() if not node.children]
        assert len(leaves) > 40
        assert all(node.children is LEAF for node in leaves)
        assert all(
            type(node.children) is list for node in out.iter_subtree() if node.children
        )

    def test_renderings_match_the_list_per_leaf_form(self):
        # The same tree with a fresh empty list on every leaf (the form
        # before leaves shared LEAF) renders identically.
        wrapper = catalog_wrapper()
        rng = random.Random(7)
        pages = [catalog_page(seed=3, items=30), news_page(seed=4, articles=6)]
        pages += [soup(rng, pieces=20) for _ in range(20)]
        for page in pages:
            out = wrapper.wrap_html_many([page])[0]
            listed = wrapper.wrap_html_many([page])[0]
            for node in listed.iter_subtree():
                if node.children is LEAF:
                    node.children = []
            assert out.to_dict() == listed.to_dict(), repr(page)
            assert out.to_sexpr() == listed.to_sexpr(), repr(page)
            assert to_xml(out) == to_xml(listed), repr(page)
            assert [(n.label, n.source_id, n.text) for n in out.iter_subtree()] == [
                (n.label, n.source_id, n.text) for n in listed.iter_subtree()
            ], repr(page)

    def test_node_text_equivalence(self):
        page = news_page(seed=4, articles=6)
        tree = parse_html(page)
        snapshot = html_snapshot(page)
        structure = UnrankedStructure(tree)
        for ident in range(0, structure.size, 7):
            assert snapshot.node_text(ident) == node_text(structure.node(ident))


class TestBatchAndWorkers:
    def test_wrap_html_many_matches_node_path(self):
        wrapper = catalog_wrapper()
        pages = catalog_pages(4, items=18)
        streamed = wrapper.wrap_html_many(pages)
        via_trees = wrapper.wrap_many([parse_html(p) for p in pages])
        assert [o.to_sexpr() for o in streamed] == [o.to_sexpr() for o in via_trees]
        # Per node, not just the shape (``source_id`` is None on the Node path).
        assert [
            [(n.label, n.text) for n in o.iter_subtree()] for o in streamed
        ] == [[(n.label, n.text) for n in o.iter_subtree()] for o in via_trees]

    def test_wrap_many_accepts_documents_and_trees(self):
        wrapper = catalog_wrapper()
        pages = catalog_pages(3, items=9)
        mixed = [Document.from_html(pages[0]), parse_html(pages[1]), Document.from_html(pages[2])]
        outs = wrapper.wrap_many(mixed)
        assert [o.to_sexpr() for o in outs] == [
            wrapper.wrap(parse_html(p)).to_sexpr() for p in pages
        ]

    def test_elog_translation_cache_survives_id_reuse(self):
        # Regression: the translation cache is keyed by ``id(program)``;
        # registering programs in a loop without holding references used
        # to let a recycled object id alias a freed program's translation.
        import gc

        from repro.elog.parser import parse_elog

        wrapper = Wrapper()
        for i in range(30):
            text = f"p{i}(x) <- root(x0), subelem(x0, 'body', x)."
            wrapper.add_elog(f"p{i}", parse_elog(text, query=f"p{i}"))
            gc.collect()
        results = wrapper.extract(parse_html("<html><body>x</body></html>"))
        assert all(results[f"p{i}"] for i in range(30))

    def test_mso_wrapper_streaming_equals_node_path_and_select_ids(self):
        from repro.mso import compile_query, parse_mso

        page = catalog_page(seed=2, items=3)
        labels = html_snapshot(page).labels
        formula = parse_mso("exists y (child(y, x) & label_tr(y))")
        wrapper = Wrapper().add_mso("cell", formula, "x", labels)
        tree = parse_html(page)
        expected = compile_query(formula, "x", labels).select_ids(
            UnrankedStructure(tree)
        )
        assert expected
        assert wrapper.extract(tree)["cell"] == expected
        assert wrapper.extract(Document.from_html(page))["cell"] == expected
        assert wrapper.extract_html_many([page])[0]["cell"] == expected
        (streamed,) = wrapper.wrap_html_many([page])
        assert streamed.to_sexpr() == wrapper.wrap(tree).to_sexpr()
        assert streamed.to_sexpr().count("cell") == len(expected)

    def test_streaming_path_allocates_zero_nodes(self, monkeypatch):
        import repro.trees.node as node_module

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("Node allocated on the streaming path")

        wrapper = catalog_wrapper()
        wrapper.compile()
        pages = catalog_pages(2, items=10)
        monkeypatch.setattr(node_module.Node, "__init__", forbidden)
        outs = wrapper.wrap_html_many(pages)
        extracted = wrapper.extract_html_many(pages)
        assert len(outs) == 2 and len(extracted) == 2
        assert all(out.children for out in outs)


def gc_allocations(call):
    """``(allocations, result)``: the GC-counted objects that ``call()``
    leaves alive, counted by CPython's young-generation counter with the
    collector off, and the call's result (kept alive while counting)."""
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        result = call()
        return gc.get_count()[0] - before, result
    finally:
        gc.enable()


def gc_survivors(call):
    """``(survivors, result)``: the GC-tracked objects that ``call()``
    leaves alive after a full collection, and the call's result (kept
    alive while counting)."""
    gc.collect()
    before = len(gc.get_objects())
    result = call()
    gc.collect()
    return len(gc.get_objects()) - before, result


class TestAllocations:
    """The page path allocates only what its caller reads.

    A snapshot stores single-attribute tags' shared tag-cache entries
    instead of one dict per node, and a kernel run returns its unary
    outputs as id sets instead of one 1-tuple per fact, so neither count
    grows with the page.  Each dict or 1-tuple is built on first read of
    ``TreeSnapshot.attrs`` or ``EvaluationResult.relations``.
    """

    #: GC-counted allocations allowed per page, at every page size.
    BOUND = 100

    #: Single-attribute tags (the tag cache), repeated and entity-coded,
    #: next to multi-attribute and odd-shaped ones (the general step).
    MIXED = (
        '<div id="top"><a href="/x">1</a><a href="/x">2</a>'
        '<a x="1" y="2">3</a><a x="1" y="2">4</a><img src=i.png>'
        "<p class='c'>5</p><a href=\"/q?a=1&amp;b=2\">6</a><br/></div>"
    )

    @pytest.mark.parametrize("items", [160, 640])
    def test_snapshot_allocations_do_not_grow_with_the_page(self, items):
        page = catalog_page(seed=7, items=items)
        html_snapshot(page)
        allocated, snapshot = gc_allocations(lambda: html_snapshot(page))
        assert allocated < self.BOUND, allocated
        assert len(snapshot.attrs) >= items

    @pytest.mark.parametrize("items", [160, 640])
    def test_kernel_run_allocations_do_not_grow_with_the_page(self, items):
        plan = catalog_plan()
        page = catalog_page(seed=7, items=items)
        plan.run(Document(html_snapshot(page)))
        document = Document(html_snapshot(page))
        allocated, result = gc_allocations(lambda: plan.run(document))
        assert allocated < self.BOUND, allocated
        assert result.method == "kernel"
        assert len(result.unary("record")) == items

    def test_wrap_leaves_one_survivor_per_output_node_and_per_child_list(self):
        # What a wrap call leaves for later collections: the output tree's
        # OutputNode per kept node and children list per internal output
        # node (leaves share one empty tuple), plus the returned list.
        # Nothing of the document survives: a wrapper that kept its
        # page's structure would add seven, five more with list columns
        # (TestColumnForm pins the tuples).
        wrapper = catalog_wrapper()
        page = catalog_page(seed=7, items=160)
        wrapper.wrap_html_many([page])
        survivors, (out,) = gc_survivors(lambda: wrapper.wrap_html_many([page]))
        kept = sum(1 for _ in out.iter_subtree())
        internal = sum(1 for node in out.iter_subtree() if node.children)
        assert kept > 160 and internal > 160
        assert survivors <= kept + internal + 4, (survivors, kept, internal)

    def test_wrap_leaves_no_cyclic_garbage(self):
        # Everything a wrap call drops is freed by reference counting, so
        # the collector finds nothing even with automatic collection off.
        wrapper = catalog_wrapper()
        page = catalog_page(seed=7, items=160)
        wrapper.wrap_html_many([page])
        gc.collect()
        gc.disable()
        try:
            wrapper.wrap_html_many([page])
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_mixed_attribute_tags_match_the_node_path(self):
        for doc in (self.MIXED, "text" + self.MIXED, self.MIXED * 3):
            streamed = html_snapshot(doc)
            reference = UnrankedStructure(parse_html(doc)).snapshot()
            assert streamed.attrs == reference.attrs, doc
            assert columns(streamed) == columns(reference), doc
            dicts = list(streamed.attrs.values())
            assert all(type(attrs) is dict for attrs in dicts)
            assert len({id(attrs) for attrs in dicts}) == len(dicts)
            assert streamed.attrs is streamed.attrs

    def test_mixed_attribute_tags_survive_pickling(self):
        snapshot = html_snapshot(self.MIXED)
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone.attrs == snapshot.attrs
        assert Document(clone).attrs_of(1) == {"href": "/x"}

    def test_relations_are_built_once_from_the_id_sets(self):
        result = catalog_plan().run(Document(html_snapshot(catalog_page(3, 20))))
        relations = result.relations
        assert result.relations is relations
        for name in ("record", "name", "price"):
            assert relations[name] == {(i,) for i in result.unary(name)}
            assert result.holds(name, min(result.unary(name)))
