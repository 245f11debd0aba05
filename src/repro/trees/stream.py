"""Streaming snapshot construction: document events -> columns, no Nodes.

The classic ingestion path allocates a :class:`~repro.trees.node.Node`
per element/text token, walks the tree again to assign identifiers
(:class:`~repro.trees.unranked.UnrankedStructure`), and only then
flattens into the integer columns the propagation kernel reads.  This
module collapses those three passes into one: a
:class:`SnapshotBuilder` consumes open/text/close events and writes the
:class:`~repro.trees.snapshot.TreeSnapshot` columns directly, assigning
identifiers in document order as elements open.  Nothing but flat lists
is ever allocated, so huge pages can be wrapped with the runtime touching
only arrays from bytes to output.

Event sources:

* :func:`html_snapshot` -- drives the builder from
  :func:`repro.html.tokenizer.scan_into`, applying the *same*
  void-element / implicit-close / end-tag policy as
  :func:`repro.html.parser.parse_html` (both keep their open elements in
  one :class:`repro.html.policy.OpenElements` stack, so the two front
  ends cannot drift, and every cut is O(1) amortized, so ingestion is
  linear on any tag soup), with identical synthetic-root unwrapping;
* :func:`sexpr_snapshot` -- the s-expression reader;
* :func:`tree_snapshot` -- replays an existing :class:`Node` tree as
  events (parity harness, and snapshots for generated trees).

Parity invariant (enforced by ``tests/test_stream.py``): for every
document, ``html_snapshot(doc)`` is column-identical to
``UnrankedStructure(parse_html(doc)).snapshot()``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import TreeError
from repro.html.policy import OpenElements
from repro.html.tokenizer import scan_into
from repro.trees.node import Node
from repro.trees.snapshot import TreeSnapshot


class SnapshotBuilder:
    """Build a :class:`TreeSnapshot` from document events, Node-free.

    One pass, one :class:`~repro.html.policy.OpenElements` stack of
    integer ids; every event appends to the flat columns.  Identifiers
    are assigned in document order (preorder), exactly as
    :class:`~repro.trees.unranked.UnrankedStructure` numbers an
    equivalent tree.

    Examples
    --------
    >>> b = SnapshotBuilder()
    >>> _ = b.open("a"); _ = b.open("b"); b.close()
    >>> _ = b.leaf("c"); _ = b.open("b"); b.close()
    >>> snap = b.finish()
    >>> snap.parent
    array('i', [-1, 0, 0, 0])
    >>> snap.labels
    ['a', 'b', 'c']
    """

    __slots__ = (
        "_parent",
        "_firstchild",
        "_nextsibling",
        "_prevsibling",
        "_lastchild",
        "_label_ids",
        "_labels",
        "_label_index",
        "_texts",
        "_attrs",
        "_open",
    )

    def __init__(self):
        self._parent: List[int] = []
        self._firstchild: List[int] = []
        self._nextsibling: List[int] = []
        self._prevsibling: List[int] = []
        self._lastchild: List[int] = []
        self._label_ids: List[int] = []
        self._labels: List[str] = []
        self._label_index: Dict[str, int] = {}
        self._texts: Dict[int, str] = {}
        self._attrs: Dict[int, Dict[str, str]] = {}
        self._open = OpenElements()

    @property
    def size(self) -> int:
        """Number of nodes emitted so far."""
        return len(self._parent)

    @property
    def depth(self) -> int:
        """Number of currently open elements."""
        return len(self._open)

    def _append(
        self,
        label: str,
        text: Optional[str],
        attrs: Optional[Dict[str, str]],
    ) -> int:
        nid = len(self._parent)
        stack = self._open.items
        if stack:
            parent = stack[-1]
            previous = self._lastchild[parent]
            if previous < 0:
                self._firstchild[parent] = nid
            else:
                self._nextsibling[previous] = nid
            self._lastchild[parent] = nid
        else:
            if nid:
                raise TreeError("snapshot already has a root")
            parent = -1
            previous = -1
        self._parent.append(parent)
        self._firstchild.append(-1)
        self._nextsibling.append(-1)
        self._prevsibling.append(previous)
        self._lastchild.append(-1)
        lid = self._label_index.get(label)
        if lid is None:
            lid = self._label_index[label] = len(self._labels)
            self._labels.append(label)
        self._label_ids.append(lid)
        if text:
            self._texts[nid] = text
        if attrs:
            self._attrs[nid] = attrs
        return nid

    def open(
        self,
        label: str,
        attrs: Optional[Dict[str, str]] = None,
        text: Optional[str] = None,
    ) -> int:
        """Open an element; returns its document-order id."""
        nid = self._append(label, text, attrs)
        self._open.push(label, nid)
        return nid

    def leaf(
        self,
        label: str,
        text: Optional[str] = None,
        attrs: Optional[Dict[str, str]] = None,
    ) -> int:
        """Emit a childless node (open + immediate close)."""
        return self._append(label, text, attrs)

    def text(self, data: str) -> int:
        """Emit an HTML text node (label ``#text`` with payload)."""
        return self._append("#text", data, None)

    def close(self) -> None:
        """Close the innermost open element."""
        if not self._open:
            raise TreeError("no open element to close")
        self._open.pop()

    def strip_root(self) -> None:
        """Drop node 0, promoting its single child to the root.

        This is the streaming counterpart of the synthetic-root unwrapping
        in :func:`repro.html.parser.parse_html`; it requires node 0 to
        have exactly one child.
        """
        if not self._parent or self._parent[0] != -1:
            raise TreeError("no root to strip")
        first = self._firstchild[0]
        if first < 0 or first != self._lastchild[0]:
            raise TreeError("root does not have exactly one child")
        for column in (
            self._parent,
            self._firstchild,
            self._nextsibling,
            self._prevsibling,
            self._lastchild,
        ):
            column[:] = [v - 1 if v > 0 else -1 for v in column]
            del column[0]
        # Re-intern labels: the dropped root's label may no longer occur,
        # and label ids must match first-occurrence order over the
        # remaining nodes (column parity with the Node-built snapshot).
        label_ids = self._label_ids
        del label_ids[0]
        if 0 not in label_ids:
            # Fast path: the synthetic root's label (id 0, interned first)
            # occurs nowhere else, so dropping it shifts every id by one
            # while preserving first-occurrence order.
            label_ids[:] = [lid - 1 for lid in label_ids]
            del self._labels[0]
            self._label_index = {
                name: lid for lid, name in enumerate(self._labels)
            }
        else:
            old_labels = self._labels
            labels: List[str] = []
            label_index: Dict[str, int] = {}
            for i, lid in enumerate(label_ids):
                name = old_labels[lid]
                new = label_index.get(name)
                if new is None:
                    new = label_index[name] = len(labels)
                    labels.append(name)
                label_ids[i] = new
            self._labels = labels
            self._label_index = label_index
        self._texts = {k - 1: v for k, v in self._texts.items() if k}
        self._attrs = {k - 1: v for k, v in self._attrs.items() if k}
        old_open = self._open
        self._open = OpenElements()
        for label, nid in zip(old_open.labels, old_open.items):
            if nid > 0:
                self._open.push(label, nid - 1)

    def finish(self, schema: str = "unranked", max_rank: int = 0) -> TreeSnapshot:
        """Close any open elements and return the finished snapshot."""
        self._open.truncate(0)
        return TreeSnapshot(
            schema,
            self._parent,
            self._firstchild,
            self._nextsibling,
            self._prevsibling,
            self._lastchild,
            self._label_ids,
            self._labels,
            self._label_index,
            max_rank=max_rank,
            texts=self._texts,
            attrs=self._attrs,
        )


def html_snapshot(html: str, root_label: str = "document") -> TreeSnapshot:
    """Tokenize HTML straight into snapshot columns (zero Node objects).

    Column-identical to ``UnrankedStructure(parse_html(html)).snapshot()``
    -- same document-order ids, same interned labels, same tag-soup
    handling -- but built in a single pass over the token events.

    This is the batch pipeline's hottest loop, so the column appends of
    :meth:`SnapshotBuilder._append` are inlined over the builder's own
    lists (the randomized parity suite in ``tests/test_stream.py`` pins
    the equivalence); every tag-soup decision still goes through the
    builder's :class:`~repro.html.policy.OpenElements` stack, shared with
    :func:`repro.html.parser.parse_html`.

    >>> snap = html_snapshot("<ul><li>a<li>b</ul>")
    >>> [snap.labels[l] for l in snap.label_ids]
    ['ul', 'li', '#text', 'li', '#text']
    """
    builder = SnapshotBuilder()
    builder.open(root_label)
    parent = builder._parent
    label_ids = builder._label_ids
    labels = builder._labels
    label_index = builder._label_index
    texts = builder._texts
    attrs_column = builder._attrs
    open_elements = builder._open
    stack = open_elements.items
    start_tag = open_elements.start_tag
    text_lid = -1
    get_lid = label_index.get
    parent_append = parent.append
    label_ids_append = label_ids.append

    def on_text(data):
        nonlocal text_lid
        if text_lid < 0:
            text_lid = get_lid("#text", -1)
            if text_lid < 0:
                text_lid = label_index["#text"] = len(labels)
                labels.append("#text")
        texts[len(parent)] = data
        parent_append(stack[-1])
        label_ids_append(text_lid)

    def on_start(name, attrs, self_closing):
        nid = len(parent)
        parent_append(start_tag(name, nid, self_closing))
        lid = get_lid(name)
        if lid is None:
            lid = label_index[name] = len(labels)
            labels.append(name)
        label_ids_append(lid)
        if attrs:
            attrs_column[nid] = attrs

    # Comments and doctypes carry no tree content (on_misc=None).
    scan_into(html, on_start, open_elements.end_tag, on_text)

    # Derive the sibling-link columns from ``parent`` in one pass: ids
    # are preorder, so each node's children arrive in document order and
    # the running last-child table is exactly ``lastchild`` at the end.
    n = len(parent)
    firstchild = [-1] * n
    nextsibling = [-1] * n
    prevsibling = [-1] * n
    lastchild = [-1] * n
    for v in range(1, n):
        p = parent[v]
        previous = lastchild[p]
        if previous < 0:
            firstchild[p] = v
        else:
            nextsibling[previous] = v
            prevsibling[v] = previous
        lastchild[p] = v
    builder._firstchild = firstchild
    builder._nextsibling = nextsibling
    builder._prevsibling = prevsibling
    builder._lastchild = lastchild

    # Unwrap the synthetic root when the document has one root element and
    # no top-level text (same rule as parse_html).
    first = firstchild[0]
    if first >= 0 and first == lastchild[0] and labels[label_ids[first]] != "#text":
        builder.strip_root()
    return builder.finish()


def tree_snapshot(root: Node, schema: str = "unranked", max_rank: int = 0) -> TreeSnapshot:
    """Replay an existing tree through the builder (document order).

    Equivalent to ``UnrankedStructure(root).snapshot()`` plus the text and
    attribute side columns, without materializing the id dictionary.
    """
    builder = SnapshotBuilder()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            builder.close()
            continue
        children = node.children
        if children:
            builder.open(
                node.label,
                dict(node.attrs) if node.attrs else None,
                node.text,
            )
            stack.append((node, True))
            for child in reversed(children):
                stack.append((child, False))
        else:
            builder.leaf(
                node.label,
                node.text,
                dict(node.attrs) if node.attrs else None,
            )
    return builder.finish(schema=schema, max_rank=max_rank)


def sexpr_snapshot(text: str) -> TreeSnapshot:
    """Parse s-expression tree syntax straight into snapshot columns.

    >>> sexpr_snapshot("a(b, c(d), b)").parent
    array('i', [-1, 0, 0, 2, 0])
    """
    from repro.trees.node import parse_sexpr

    return tree_snapshot(parse_sexpr(text))
