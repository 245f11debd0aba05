"""HTML tree construction.

Builds a :class:`repro.trees.Node` document from the events of
:func:`repro.html.tokenizer.scan_into`:

* labels are lowercased tag names; text nodes carry the label ``#text``
  with the text in ``node.text``;
* void elements (``br``, ``img``, ...) never take children;
* the common implicit-close rules are applied (``<li>`` closes an open
  ``li``; ``<tr>`` closes ``td``/``th``/``tr``; ``<p>`` closes ``p``;
  table sections close each other), so the usual "tag soup" of
  real-world pages yields sensible trees;
* unmatched end tags are ignored; unclosed elements are closed at end of
  input;
* if the input has no single root element, everything is wrapped under a
  synthetic ``document`` node.

The tag-soup policy (void elements, implicit closers, scope barriers)
lives in :mod:`repro.html.policy` and is shared verbatim with the
Node-free streaming snapshot builder (:mod:`repro.trees.stream`), so the
two front ends cannot drift apart: both keep their open elements in one
:class:`~repro.html.policy.OpenElements` stack, whose cuts cost O(1)
amortized, so construction is linear in the document on any tag soup.
"""

from __future__ import annotations

from repro.html.policy import OpenElements
from repro.html.tokenizer import scan_into
from repro.trees.node import Node


def parse_html(html: str, root_label: str = "document") -> Node:
    """Parse HTML into a labeled unranked tree.

    >>> tree = parse_html("<ul><li>a<li>b</ul>")
    >>> str(tree)
    'ul(li(#text), li(#text))'
    """
    synthetic_root = Node(root_label)
    stack = OpenElements()
    stack.push(root_label, synthetic_root)
    open_nodes = stack.items
    start_tag = stack.start_tag

    def on_start(name, attrs, self_closing):
        element = Node(name, attrs=attrs)
        start_tag(name, element, self_closing).add_child(element)

    def on_text(data):
        open_nodes[-1].add_child(Node("#text", text=data))

    # Comments and doctypes carry no tree content: no ``on_misc``.
    scan_into(html, on_start, stack.end_tag, on_text)

    # Unwrap the synthetic root when the document has one root element and
    # no top-level text.
    children = synthetic_root.children
    if len(children) == 1 and children[0].label != "#text":
        root = children[0]
        root.parent = None
        return root
    return synthetic_root
