"""Tests for the wrapping layer (output trees, wrappers, XML) and the
HTML front end (tokenizer, entities, tree builder) plus the synthetic
workload generators."""

import pytest

from repro.datalog.parser import parse_program
from repro.errors import AutomatonError, WrapError
from repro.html import parse_html
from repro.html.entities import decode_entities
from repro.html.tokenizer import scan_list
from repro.mso import compile_query, parse_mso
from repro.trees import UnrankedStructure, parse_sexpr
from repro.workloads import catalog_page, news_page, noisy_table_page
from repro.trees.stream import html_snapshot
from repro.wrap import Document, Wrapper, build_output_tree, to_xml
from repro.wrap.output import node_text


class TestOutputTree:
    def test_relabel_and_drop(self):
        tree = parse_sexpr("a(b(c), d)")
        nodes = list(tree.iter_subtree())
        assignment = {id(nodes[1]): "item", id(nodes[2]): "value"}
        out = build_output_tree(tree, assignment)
        assert out.to_sexpr() == "result(item(value))"

    def test_ancestor_closure_reconnects(self):
        # The kept nodes are grandparent/grandchild: closure connects them.
        tree = parse_sexpr("a(b(c(d)))")
        nodes = list(tree.iter_subtree())
        assignment = {id(nodes[0]): "outer", id(nodes[3]): "inner"}
        out = build_output_tree(tree, assignment)
        assert out.to_sexpr() == "result(outer(inner))"

    def test_document_order_preserved(self):
        tree = parse_sexpr("a(b, c, d)")
        nodes = list(tree.iter_subtree())
        assignment = {id(n): "x" for n in nodes[1:]}
        out = build_output_tree(tree, assignment)
        assert [c.source.label for c in out.children[0].children] if out.children[0].children else True
        assert out.to_sexpr() == "result(x, x, x)"

    def test_text_capture(self):
        tree = parse_html("<p>hello <b>world</b></p>")
        paragraph = next(n for n in tree.iter_subtree() if n.label == "p")
        out = build_output_tree(tree, {id(paragraph): "para"})
        assert out.children[0].text == "hello world"


class TestWrapper:
    def test_multi_formalism_wrapper(self):
        tree = parse_sexpr("ul(li(b), li, li(b))")
        wrapper = Wrapper()
        wrapper.add_datalog(
            "item", parse_program("item(x) :- label_li(x).", query="item")
        )
        wrapper.add_mso(
            "bold", parse_mso("label_b(x)"), "x", ["ul", "li", "b"]
        )
        results = wrapper.extract(tree)
        assert results["item"] == {1, 3, 4}
        assert results["bold"] == {2, 5}
        assert wrapper.wrap(tree).to_sexpr() == "result(item(bold), item, item(bold))"

    def test_priority_order(self):
        tree = parse_sexpr("ul(li)")
        wrapper = Wrapper()
        wrapper.add_datalog("first", parse_program("p(x) :- label_li(x).", query="p"))
        wrapper.add_datalog("second", parse_program("q(x) :- leaf(x).", query="q"))
        assert wrapper.extract(tree) == {"first": {1}, "second": {1}}
        out = wrapper.wrap(tree)
        assert out.children[0].label == "first"

    @pytest.mark.parametrize(
        "text", ["label_td(x)", "exists y (child(y, x) & label_tr(y))"]
    )
    def test_mso_wrapper_output_equals_automaton_output(self, text):
        # The automaton's answer, assembled the way the Node path assembles
        # any wrapper's: every path of the lowered wrapper must match it.
        formula = parse_mso(text)
        pages = [catalog_page(seed=s, items=40) for s in range(3)]
        labels = html_snapshot(pages[0]).labels
        query = compile_query(formula, "x", labels)
        wrapper = Wrapper().add_mso("cell", formula, "x", labels)
        trees = [parse_html(page) for page in pages]
        expected = [
            build_output_tree(tree, {id(n): "cell" for n in query.select(tree)})
            .to_sexpr()
            for tree in trees
        ]
        assert "cell" in expected[0]
        assert [out.to_sexpr() for out in wrapper.wrap_many(trees)] == expected
        assert [out.to_sexpr() for out in wrapper.wrap_html_many(pages)] == expected

    def test_mso_alphabet_is_closed_on_every_path(self):
        wrapper = Wrapper().add_datalog(
            "item", parse_program("item(x) :- label_li(x).", query="item")
        )
        wrapper.add_mso("bold", parse_mso("label_b(x)"), "x", ["ul", "li", "b"])
        assert wrapper.extract_html_many(["<ul><li><b></b></li></ul>"]) == [
            {"item": {1}, "bold": {2}}
        ]
        page = "<ul><li><b>x</b></li></ul>"
        # '#text' is unlisted: the first label outside the alphabet in
        # document order, which select_ids names too.
        query = compile_query(parse_mso("label_b(x)"), "x", ["ul", "li", "b"])
        with pytest.raises(AutomatonError, match="'#text'") as oracle:
            query.select_ids(UnrankedStructure(parse_html(page)))
        message = str(oracle.value)
        calls = [
            lambda: wrapper.wrap_html_many([page]),
            lambda: wrapper.extract_html_many([page]),
            lambda: wrapper.wrap_many([parse_html(page)]),
            lambda: wrapper.wrap_many([Document.from_html(page)]),
            lambda: wrapper.extract(parse_html(page)),
            lambda: wrapper.extract(Document.from_html(page)),
        ]
        for call in calls:
            with pytest.raises(AutomatonError) as raised:
                call()
            assert str(raised.value) == message

    def test_missing_query_predicate_raises(self):
        with pytest.raises(WrapError):
            Wrapper().add_datalog("x", parse_program("p(x) :- leaf(x)."))

    def test_xml_serialization(self):
        tree = parse_sexpr("ul(li, li)")
        wrapper = Wrapper()
        wrapper.add_datalog(
            "item", parse_program("item(x) :- label_li(x).", query="item")
        )
        xml = to_xml(wrapper.wrap(tree))
        assert xml == "<result>\n  <item/>\n  <item/>\n</result>"

    def test_xml_escaping(self):
        from repro.wrap.output import OutputNode

        root = OutputNode("result")
        child = root.add(OutputNode("v"))
        child.text = "a < b & c"
        assert "&lt;" in to_xml(root) and "&amp;" in to_xml(root)


class TestEntities:
    def test_named_and_numeric(self):
        assert decode_entities("a &amp; b") == "a & b"
        assert decode_entities("&#65;&#x42;") == "AB"

    def test_unknown_left_verbatim(self):
        assert decode_entities("&bogus; & x") == "&bogus; & x"


class TestTokenizer:
    def test_basic_stream(self):
        kinds = [e[0] for e in scan_list('<p class="x">hi</p>')]
        assert kinds == ["start", "text", "end"]

    def test_attributes(self):
        event = scan_list('<a href="/x" checked data-i=3>')[0]
        assert event[2] == {"href": "/x", "checked": "", "data-i": "3"}

    def test_comment_and_doctype(self):
        kinds = [e[0] for e in scan_list("<!DOCTYPE html><!-- hi --><p>")]
        assert kinds == ["doctype", "comment", "start"]

    def test_self_closing(self):
        event = scan_list("<br/>")[0]
        assert event[3]

    def test_rawtext_script(self):
        events = scan_list("<script>if (a<b) x();</script><p>")
        assert events[0][1] == "script"
        assert events[1][1] == "if (a<b) x();"
        assert events[2][0] == "end"

    def test_stray_lt(self):
        events = scan_list("a < b")
        assert any(e[0] == "text" for e in events)


class TestHTMLParser:
    def test_implicit_li_close(self):
        ul = parse_html("<ul><li>a<li>b</ul>")
        assert ul.label == "ul"
        assert [c.label for c in ul.children] == ["li", "li"]

    def test_implicit_table_cells(self):
        table = parse_html("<table><tr><td>1<td>2<tr><td>3</table>")
        assert [row.label for row in table.children] == ["tr", "tr"]
        assert [len(row.children) for row in table.children] == [2, 1]

    def test_void_elements(self):
        tree = parse_html("<div><br><img src='x'>text</div>")
        div = tree.children[0] if tree.label == "document" else tree
        assert [c.label for c in div.children] == ["br", "img", "#text"]

    def test_unmatched_end_tag_ignored(self):
        tree = parse_html("<div></span>ok</div>")
        assert node_text(tree) == "ok"

    def test_unclosed_elements_closed_at_eof(self):
        tree = parse_html("<div><p>one")
        labels = [n.label for n in tree.iter_subtree()]
        assert labels[:3] == ["div", "p", "#text"]

    def test_single_root_unwrapped(self):
        assert parse_html("<html><body/></html>").label == "html"

    def test_fragment_gets_document_root(self):
        assert parse_html("<p>a</p><p>b</p>").label == "document"

    def test_p_implicit_close(self):
        tree = parse_html("<div><p>one<p>two</div>")
        div = tree
        assert [c.label for c in div.children] == ["p", "p"]

    def test_attributes_preserved_on_nodes(self):
        tree = parse_html('<div id="main"><a href="/x">y</a></div>')
        assert tree.attrs["id"] == "main"


class TestWorkloads:
    def test_catalog_is_deterministic(self):
        assert catalog_page(3, 5) == catalog_page(3, 5)
        assert catalog_page(3, 5) != catalog_page(4, 5)

    def test_catalog_row_count(self):
        tree = parse_html(catalog_page(1, 8))
        rows = [n for n in tree.iter_subtree() if n.label == "tr"]
        assert len(rows) == 8

    def test_news_nested_comments_parse(self):
        tree = parse_html(news_page(11, 3))
        comments = [
            n
            for n in tree.iter_subtree()
            if n.label == "li" and n.attrs.get("class") == "comment"
        ]
        assert comments, "expected at least one comment"

    def test_noisy_table(self):
        tree = parse_html(noisy_table_page(2, rows=4))
        rows = [n for n in tree.iter_subtree() if n.label == "tr"]
        assert len(rows) == 5  # header + 4

    def test_structures_build(self):
        structure = UnrankedStructure(parse_html(catalog_page(5, 3)))
        assert structure.size > 10
