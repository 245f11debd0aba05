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
* :func:`html_snapshot_warm` -- a page's next version: its pieces
  compared with the previous version's, and when the structure is
  unchanged, the previous snapshot's columns with the changed texts,
  else :func:`html_snapshot` (with no comparison after a version that
  took the general scanner step);
* :func:`sexpr_snapshot` -- the s-expression reader, and
  :func:`tree_snapshot` -- an existing :class:`Node` tree (parity
  harness, and snapshots for generated trees), both flattened by
  :meth:`TreeSnapshot.from_tree` over the tree's document order.

Parity invariant (enforced by ``tests/test_stream.py``): for every
document, ``html_snapshot(doc)`` is column-identical to
``UnrankedStructure(parse_html(doc)).snapshot()``, and so is every
snapshot :func:`html_snapshot_warm` returns.
"""

from __future__ import annotations

from array import array
from itertools import compress, islice
from operator import ne
from typing import Dict, List, Optional, Tuple, Union

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
    return _build(html, root_label)[0]


def _build(
    html: str, root_label: str, split: Optional[List[str]] = None
) -> Tuple[TreeSnapshot, bool]:
    """:func:`html_snapshot`'s loop: the snapshot, and whether any token
    went through the general step (after which the split on ``<`` no
    longer says what the page's tokens are).  ``split`` is
    ``html.split("<")`` when the caller already made it."""
    general = False
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
    # This loop reads the split as _new_texts and _ranks do (the
    # partition at '>' and the blankness test); the exactness of
    # html_snapshot_warm rests on them staying in step, so change them
    # together.
    pieces = iter(html.split("<") if split is None else split)
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
            general = True
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
    ), general


#: The page kept after a build that took the general step: that page's
#: next version builds cold without a comparison (:func:`html_snapshot_warm`).
GENERAL = b""


def html_snapshot_warm(
    html: str,
    page: Union[str, bytes, None] = None,
    previous: Optional[TreeSnapshot] = None,
    ranks: Optional[array] = None,
    root_label: str = "document",
) -> Tuple[TreeSnapshot, Union[str, bytes], Optional[array], bool]:
    """The snapshot of a page's new version, built on its previous one.

    ``page``, ``previous`` and ``ranks`` are what this function returned
    for the previous version, built with the same ``root_label``: the page
    to compare with, its snapshot and its rank table.  Without a
    ``previous`` (a page's first version) or after :data:`GENERAL`, the
    page builds cold (:func:`html_snapshot`) with no comparison.  So it
    does when the two pages split into different numbers of pieces on
    ``<``, and the previous page is then never split.  Otherwise
    :func:`_new_texts` compares the pieces, and when the structure is the
    previous one, the new snapshot shares every column of ``previous``
    (:meth:`TreeSnapshot.with_texts`) but the text column, where only the
    changed runs get new texts; any other page builds cold from its split.

    Returns ``(snapshot, page, ranks, reused)``, where ``page`` and
    ``ranks`` are the ones to keep for the next version: ``html``, or
    :data:`GENERAL` when the build took the general step, so that version
    skips a comparison it could not use; and the rank table, built by the
    first comparison that needs it and carried forward while the
    structure holds (``None`` after a cold build).

    >>> snap, page, ranks, reused = html_snapshot_warm("<ul><li>a<li>b</ul>")
    >>> snap, page, ranks, reused = html_snapshot_warm(
    ...     "<ul><li>x<li>b</ul>", page, snap, ranks)
    >>> reused, snap.texts
    (True, {2: 'x', 4: 'b'})
    >>> html_snapshot_warm("<ul><li>x<li>b<li>c</ul>", page, snap, ranks)[3]
    False
    >>> html_snapshot_warm("<ul><!-- c --><li>z</ul>", page, snap, ranks)[1] == GENERAL
    True
    """
    pieces = html.split("<")
    if (
        previous is not None
        and isinstance(page, str)
        and len(pieces) == page.count("<") + 1
    ):
        found = _new_texts(pieces, page.split("<"), previous.texts, ranks)
        if found is not None:
            texts, ranks = found
            return previous.with_texts(texts), html, ranks, True
    snapshot, general = _build(html, root_label, pieces)
    return snapshot, GENERAL if general else html, None, False


def _new_texts(
    pieces: List[str], old: List[str], texts: Dict[int, str], ranks: Optional[array]
) -> Optional[Tuple[Dict[int, str], Optional[array]]]:
    """The text column and rank table of a page whose structure is the
    previous version's, or ``None`` when it may differ.

    ``pieces`` and ``old`` are the new and the previous page split on
    ``<``, equally many; ``texts`` and ``ranks`` are the previous text
    column and rank table (:func:`_ranks`, ``None`` until a change needs
    it).  The differing pieces are found at C speed, so the Python work
    is per changed piece.  Each must keep its tag text (up to its first
    ``>``), its ``>`` and the blankness of its run.  A changed head piece
    (the run before the first ``<``, which has no tag text) is refused,
    which costs only a cold build.

    Exactness.  The previous page's build took no general step (else its
    page is :data:`GENERAL`), so each of its pieces but the head has a
    ``>``.  Such a build visits the pieces in order and reads, per piece,
    the tag text and whether the run after it is blank.  The tag text
    fixes the piece's build step (a pure function of it, with label ids
    in first-occurrence order), the steps alone drive the open-element
    stack, the stack fixes each node's parent, and a non-blank run adds
    one text node under the open element.  Root unwrapping reads only
    ``parent`` and ``label_ids``, and attribute entries come from the
    steps.  So the structural columns -- ``parent``, the sibling
    columns, ``label_ids``, ``labels``, ``label_index`` and the raw
    attribute column -- are a function of the tag texts and of which
    runs are non-blank; a run's text reaches only the text column.  An
    equal piece reads alike, and so does a differing one with the same
    tag text, ``>`` and blankness.  Whether a token takes the general
    step depends on its tag text and ``>`` alone, so the new page's build
    would take none either and would give the previous structural
    columns, with the text nodes in the same order: the run of piece
    ``i``, when non-blank, is text node number ``ranks[i]``.  The raw
    attribute column then holds only shared tag entries, never dicts, so
    the new version's ``attrs`` dicts are its own.
    """
    changed = list(compress(range(len(pieces)), map(ne, pieces, old)))
    if changed and changed[0] == 0:
        return None
    runs = []
    for i in changed:
        tag, gt, text = pieces[i].partition(">")
        old_tag, old_gt, old_text = old[i].partition(">")
        keep = bool(text and not text.isspace())
        if (
            tag != old_tag
            or gt != old_gt
            or keep != bool(old_text and not old_text.isspace())
        ):
            return None
        if keep:
            runs.append((i, decode_entities(text) if "&" in text else text))
    texts = dict(texts)
    if runs:
        if ranks is None:
            ranks = _ranks(old)
        ids = list(texts)
        for i, text in runs:
            texts[ids[ranks[i]]] = text
    return texts, ranks


def _ranks(pieces: List[str]) -> array:
    """For each piece of a page split on ``<``, how many non-blank text
    runs come before its own run (the head piece is a run of its own)."""
    ranks = array("i", [0])
    append = ranks.append
    count = 0
    text = pieces[0]
    for piece in islice(pieces, 1, None):
        if text and not text.isspace():
            count += 1
        append(count)
        text = piece.partition(">")[2]
    return ranks


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
