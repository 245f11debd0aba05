"""Streaming snapshot construction: document events -> columns, no Nodes.

The classic ingestion path allocates a :class:`~repro.trees.node.Node`
per element/text token, walks the tree again to assign identifiers
(:class:`~repro.trees.unranked.UnrankedStructure`), and only then
flattens into the integer columns the propagation kernel reads.  This
module collapses those three passes into one, writing the
:class:`~repro.trees.snapshot.TreeSnapshot` columns directly and
assigning identifiers in document order as elements open.  Nothing but
flat lists is ever allocated, so huge pages can be wrapped with the
runtime touching only flat columns (tuples, byte lanes) from bytes to
output.

Sources:

* :func:`html_snapshot` -- one loop from HTML text to columns over the
  scanner's own front end (:mod:`repro.html.tokenizer`): the document
  split once on ``<``, each regular tag run from a per-document cache
  of build steps with the column appends inline, and every other token one
  :func:`repro.html.tokenizer.scan_step`, the scanner's general step.
  It applies the *same* void-element / implicit-close / end-tag policy
  as :func:`repro.html.parser.parse_html` (both keep their open
  elements in one :class:`repro.html.policy.OpenElements` stack, so the
  two front ends cannot drift, and every cut is O(1) amortized, so
  ingestion is linear on any tag soup), with identical synthetic-root
  unwrapping;
* :func:`sexpr_snapshot` -- the s-expression reader, and
  :func:`tree_snapshot` -- an existing :class:`Node` tree (parity
  harness, and snapshots for generated trees), both flattened by
  :meth:`TreeSnapshot.from_tree` over the tree's document order.

Parity invariant (enforced by ``tests/test_stream.py``): for every
document, ``html_snapshot(doc)`` is column-identical to
``UnrankedStructure(parse_html(doc)).snapshot()``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.html.entities import decode_entities
from repro.html.policy import (
    IMPLICIT_CLOSERS,
    SCOPE_BARRIERS,
    VOID_ELEMENTS,
    OpenElements,
)
from repro.html.tokenizer import UNSEEN, parse_tag, resync, scan_step
from repro.trees.node import Node
from repro.trees.snapshot import TreeSnapshot
from repro.trees.traversal import document_order

#: Implicit closer -> the labels it closes, as tuples for the build steps.
_CLOSES = {name: tuple(closed) for name, closed in IMPLICIT_CLOSERS.items()}

#: Build-step kinds: an end tag, a start tag that is a plain push, an
#: implicit closer (a push unless it closes an open frame), and a void or
#: self-closing start tag, which opens no frame.
_END, _PUSH, _CLOSER, _VOID = range(4)


def html_snapshot(html: str, root_label: str = "document") -> TreeSnapshot:
    """Tokenize HTML straight into snapshot columns (zero Node objects).

    Column-identical to ``UnrankedStructure(parse_html(html)).snapshot()``
    -- same document-order ids, same interned labels, same tag-soup
    handling -- but built in a single pass over the document.

    This is the batch pipeline's hottest loop, so it drives the scanner
    itself, with the column appends inline and no callback: the document
    is split once on ``<``, each piece once at its first ``>``, and the
    tag text between is looked up in a per-document cache of build steps.
    A step is compiled from :func:`~repro.html.tokenizer.parse_tag` once
    per distinct tag text and holds everything the tag's path reads: its
    kind (end tag, plain push, implicit closer, or void/self-closing),
    the interned name and its label id, whether the name is a scope
    barrier, the stack's position lists of the name and of the labels it
    closes, and the attribute entry.  So a cached tag does no label or
    policy lookup.  Label ids are assigned as steps are compiled, which
    is when their tag first occurs, so they keep first-occurrence order.

    Three fast paths of the shared :class:`~repro.html.policy.OpenElements`
    stack are inlined: the plain push, the matching pop, and the implicit
    closer that closes nothing (a ``<td>`` or ``<li>`` with no open
    ``td``/``li`` above the nearest scope barrier, as on every well-formed
    page), which is a plain push as well.  Every other tag-soup decision
    (a needed implied close, void and self-closing tags, unmatched end
    tags) goes through the stack's own methods, shared with
    :func:`repro.html.parser.parse_html`, and every token whose cache
    entry is ``None`` through :func:`~repro.html.tokenizer.scan_step`,
    after which :func:`~repro.html.tokenizer.resync` catches the split
    up.  The randomized parity suite in ``tests/test_stream.py`` pins the
    equivalence.

    >>> snap = html_snapshot("<ul><li>a<li>b</ul>")
    >>> [snap.labels[l] for l in snap.label_ids]
    ['ul', 'li', '#text', 'li', '#text']
    """
    # Ids are assigned as if the synthetic root were unwrapped: the root
    # is not a node (its frame carries id -1), so node 0 is the first
    # node of the document.  The root is added at the end if it stays.
    parent: List[int] = []
    label_ids: List[int] = []
    labels: List[str] = []
    label_index: Dict[str, int] = {}
    texts: Dict[int, str] = {}
    # A dict per multi-attribute node (scan_step's own); a single-attribute
    # node's shared parse_tag entry, which TreeSnapshot.attrs turns into a
    # dict of its own only when the column is read.
    attrs_column: Dict[int, object] = {}
    open_elements = OpenElements()
    open_elements.push(root_label, -1)
    frames = open_elements.labels
    items = open_elements.items
    positions = open_elements.positions
    barriers = open_elements.barriers
    start_tag = open_elements.start_tag
    end_tag = open_elements.end_tag
    parent_append = parent.append
    label_ids_append = label_ids.append
    text_lid = -1

    def label_id(name):
        lid = label_index.get(name)
        if lid is None:
            lid = label_index[name] = len(labels)
            labels.append(name)
        return lid

    def on_text(data):
        nonlocal text_lid
        if text_lid < 0:
            text_lid = label_id("#text")
        texts[len(parent)] = data
        parent_append(items[-1])
        label_ids_append(text_lid)

    def on_start(name, attrs, self_closing):
        nid = len(parent)
        parent_append(start_tag(name, nid, self_closing))
        label_ids_append(label_id(name))
        if attrs:
            attrs_column[nid] = attrs

    def compile_step(tag):
        """The build step of tag text ``tag``, or ``None`` for a token
        that the general step scans."""
        entry = parse_tag(tag)
        if entry is None:
            return None
        name, is_end, attr, _, self_closing = entry
        barrier = name in SCOPE_BARRIERS
        if is_end:
            return _END, name, -1, barrier, (), None, positions[name]
        if self_closing or name in VOID_ELEMENTS:
            kind, closes = _VOID, ()
        elif name in _CLOSES:
            kind = _CLOSER
            closes = tuple(positions[closed] for closed in _CLOSES[name])
        else:
            kind, closes = _PUSH, ()
        attr_entry = entry if attr is not None else None
        return kind, name, label_id(name), barrier, closes, attr_entry, positions[name]

    steps: Dict[str, Optional[tuple]] = {}  # tag text -> build step
    get_step = steps.get
    unseen = UNSEEN
    pieces = iter(html.split("<"))
    text = next(pieces)
    at = len(text)  # offset of the next piece's '<'
    for piece in pieces:
        if text and not text.isspace():
            if text_lid < 0:
                text_lid = label_id("#text")
            texts[len(parent)] = decode_entities(text) if "&" in text else text
            parent_append(items[-1])
            label_ids_append(text_lid)
        tag, gt, text = piece.partition(">")
        step = get_step(tag, unseen) if gt else None
        if step is unseen:
            step = steps[tag] = compile_step(tag)
        if step is None:
            # Comments and doctypes carry no tree content (on_misc=None).
            i = scan_step(html, at, on_start, end_tag, on_text, None)
            text, at = resync(html, pieces, at + len(piece) + 1, i)
            continue
        at += len(piece) + 1
        kind, name, lid, barrier, closes, attr_entry, at_name = step
        if kind == _END:
            if frames[-1] == name and len(frames) > 1:
                # OpenElements.end_tag's fast path, inlined.
                frames.pop()
                items.pop()
                at_name.pop()
                if barrier:
                    barriers.pop()
            else:
                end_tag(name)
            continue
        nid = len(parent)
        if kind == _CLOSER:
            # An implicit closer cuts only when a label it closes is open
            # above the nearest scope barrier; otherwise it is a push.
            floor = barriers[-1] if barriers else 0
            for found in closes:
                if found and found[-1] > floor:
                    break
            else:
                kind = _PUSH
        if kind == _PUSH:
            # OpenElements.start_tag's fast path (a plain push), inlined.
            parent_append(items[-1])
            at_name.append(len(frames))
            if barrier:
                barriers.append(len(frames))
            frames.append(name)
            items.append(nid)
        else:
            # A closer that cuts, or a tag that opens no frame.
            parent_append(start_tag(name, nid, kind == _VOID))
        label_ids_append(lid)
        if attr_entry is not None:
            attrs_column[nid] = attr_entry
    if text and not text.isspace():
        on_text(decode_entities(text) if "&" in text else text)

    # Unwrap the synthetic root when the document has one root element and
    # no top-level text (same rule as parse_html): the columns are final.
    # Otherwise the root becomes node 0 with label id 0, shifting the rest.
    if parent.count(-1) != 1 or label_ids[0] == text_lid:
        parent = [-1] + [p + 1 for p in parent]
        old_labels = labels
        labels = [root_label] + [name for name in old_labels if name != root_label]
        label_index = {name: lid for lid, name in enumerate(labels)}
        new_lid = [label_index[name] for name in old_labels]
        label_ids = [0] + [new_lid[lid] for lid in label_ids]
        texts = {nid + 1: data for nid, data in texts.items()}
        attrs_column = {nid + 1: attrs for nid, attrs in attrs_column.items()}

    # Derive the sibling-link columns from ``parent`` in one pass: ids
    # are preorder, so each node's children arrive in document order and
    # the running last-child table is exactly ``lastchild`` at the end.
    size = len(parent)
    firstchild = [-1] * size
    nextsibling = [-1] * size
    prevsibling = [-1] * size
    lastchild = [-1] * size
    for v in range(1, size):
        p = parent[v]
        previous = lastchild[p]
        if previous < 0:
            firstchild[p] = v
        else:
            nextsibling[previous] = v
            prevsibling[v] = previous
        lastchild[p] = v
    return TreeSnapshot(
        "unranked",
        parent,
        firstchild,
        nextsibling,
        prevsibling,
        lastchild,
        label_ids,
        labels,
        label_index,
        texts=texts,
        attrs=attrs_column,
    )


def tree_snapshot(root: Node, schema: str = "unranked", max_rank: int = 0) -> TreeSnapshot:
    """Flatten an existing tree into snapshot columns (document order).

    Column-identical to ``UnrankedStructure(root).snapshot()`` (attribute
    dicts shared with the nodes), without building the structure.
    """
    nodes = document_order(root)
    ids = {id(node): i for i, node in enumerate(nodes)}
    return TreeSnapshot.from_tree(nodes, ids, schema, max_rank)


def sexpr_snapshot(text: str) -> TreeSnapshot:
    """Parse s-expression tree syntax straight into snapshot columns.

    >>> sexpr_snapshot("a(b, c(d), b)").parent
    (-1, 0, 0, 2, 0)
    """
    from repro.trees.node import parse_sexpr

    return tree_snapshot(parse_sexpr(text))
