"""Output-tree construction.

Following the paper: given an input tree and a predicate assignment, the
output tree keeps exactly the nodes that received a new label, connected
through the transitive closure of the input edge relation (i.e. each kept
node's parent is its nearest kept ancestor), preserving document order.
A synthetic ``result`` root collects top-level matches.

Two equivalent builders: :func:`build_output_tree` walks a
:class:`~repro.trees.node.Node` tree, while
:func:`build_output_from_snapshot` applies the same nearest-kept-ancestor
rule over the flat columns of a
:class:`~repro.trees.snapshot.TreeSnapshot` (the streaming pipeline's
path -- no ``Node`` is ever touched, and text capture reads the
snapshot's text column).  A snapshot-built output's columns without
its texts, an :class:`OutputShape`, rebuild the output of any document
with the same tree and the same assignment
(:func:`build_output_from_shape`), reading only the leaf texts again.
"""

from __future__ import annotations

from array import array
from itertools import compress, islice, repeat
from operator import ne
from typing import Dict, List, Optional, Sequence

from repro.trees.node import Node
from repro.trees.snapshot import TreeSnapshot


#: The ``children`` of every output leaf: one shared empty tuple.
LEAF = ()


class OutputNode:
    """A node of a wrapped output tree.

    Attributes
    ----------
    label:
        The new label (the extraction predicate's name, or a custom
        relabeling).
    source:
        The originating input :class:`Node` (``None`` for the synthetic
        root and for snapshot-built outputs).
    source_id:
        The originating node's document-order identifier (``None`` for
        the synthetic root; always set by the snapshot builder, set by
        the tree builder only when the caller supplies ids).
    children:
        Output children in document order: a list once the node has a
        child, and until then the one shared empty tuple :data:`LEAF`, so
        a leaf holds no list of its own (:meth:`add` swaps the list in).
    text:
        Concatenated text content of the source subtree, when the source
        tree carries text (HTML wrapping).
    """

    __slots__ = ("label", "source", "source_id", "children", "text")

    def __init__(
        self,
        label: str,
        source: Optional[Node] = None,
        source_id: Optional[int] = None,
    ):
        self.label = label
        self.source = source
        self.source_id = source_id
        self.children: Sequence[OutputNode] = LEAF
        self.text: Optional[str] = None

    def add(self, child: "OutputNode") -> "OutputNode":
        """Append ``child``; a leaf's first child gives it a list.

        >>> root = OutputNode("result")
        >>> root.children is LEAF
        True
        >>> _ = root.add(OutputNode("item"))
        >>> root.children
        [OutputNode(item)]
        """
        if self.children is LEAF:
            self.children = [child]
        else:
            self.children.append(child)
        return child

    def to_sexpr(self) -> str:
        """Compact s-expression rendering (tests and examples)."""
        if not self.children:
            return self.label
        inner = ", ".join(c.to_sexpr() for c in self.children)
        return f"{self.label}({inner})"

    def iter_subtree(self):
        """Document-order iteration."""
        yield self
        for child in self.children:
            yield from child.iter_subtree()

    def to_dict(self) -> dict:
        """JSON-serializable rendering (the serving subsystem's payload).

        Keys are always present: ``label``, ``source_id`` (``None`` for
        the synthetic root), ``text`` (``None`` when absent), and
        ``children`` (possibly empty).  Iterative so arbitrarily deep
        wrapped outputs never hit the recursion limit.

        >>> root = OutputNode("result")
        >>> item = root.add(OutputNode("item", source_id=3))
        >>> item.text = "42"
        >>> root.to_dict() == {
        ...     "label": "result", "source_id": None, "text": None,
        ...     "children": [{"label": "item", "source_id": 3,
        ...                   "text": "42", "children": []}]}
        True
        """
        top = {
            "label": self.label,
            "source_id": self.source_id,
            "text": self.text,
            "children": [],
        }
        stack = [(self, top)]
        while stack:
            node, rendered = stack.pop()
            for child in node.children:
                entry = {
                    "label": child.label,
                    "source_id": child.source_id,
                    "text": child.text,
                    "children": [],
                }
                rendered["children"].append(entry)
                stack.append((child, entry))
        return top

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"OutputNode({self.to_sexpr()})"


def node_text(node: Node) -> str:
    """Concatenated text payloads of a subtree, in document order."""
    parts: List[str] = []
    for n in node.iter_subtree():
        if n.text:
            parts.append(n.text)
    return " ".join(p.strip() for p in parts if p.strip())


def build_output_tree(
    root: Node,
    assignment: Dict[int, str],
    root_label: str = "result",
    capture_text: bool = True,
) -> OutputNode:
    """Build the wrapped output tree.

    Parameters
    ----------
    root:
        The input tree.
    assignment:
        ``id(node) -> new_label`` for every node to keep.  (Wrappers
        produce this from extraction-predicate results; a node carrying
        several predicates gets one output node per predicate in a stable
        order only if callers merge labels beforehand.)
    root_label:
        Label of the synthetic output root.
    capture_text:
        Record the source subtree's text content on leaf output nodes.
    """
    out_root = OutputNode(root_label)

    def walk(node: Node, parent_out: OutputNode) -> None:
        label = assignment.get(id(node))
        if label is not None:
            out_node = parent_out.add(OutputNode(label, source=node))
        else:
            out_node = parent_out
        for child in node.children:
            walk(child, out_node)
        if label is not None and capture_text and not out_node.children:
            text = node_text(node)
            if text:
                out_node.text = text

    walk(root, out_root)
    return out_root


def build_output_from_snapshot(
    snapshot: TreeSnapshot,
    assignment: Dict[int, str],
    root_label: str = "result",
    capture_text: bool = True,
) -> OutputNode:
    """Build the wrapped output tree from snapshot columns (no ``Node``).

    The exact analogue of :func:`build_output_tree` over a columnar
    document: ``assignment`` maps document-order node identifiers to new
    labels, kept nodes attach to their nearest kept ancestor in document
    order, and leaf output nodes capture the concatenated text of their
    source subtree from the snapshot's text column.

    >>> from repro.trees.stream import html_snapshot
    >>> snap = html_snapshot("<ul><li>a</li><li>b</li></ul>")
    >>> out = build_output_from_snapshot(snap, {1: "item", 3: "item"})
    >>> out.to_sexpr()
    'result(item, item)'
    >>> [c.text for c in out.children]
    ['a', 'b']
    """
    out_root = OutputNode(root_label)
    if not snapshot.size:
        return out_root
    parent = snapshot.parent
    # Snapshot ids are assigned in document (pre-) order by every builder,
    # so ascending kept ids visit parents before children and siblings
    # left to right: appending each kept node to its nearest kept
    # ancestor's output reproduces the recursive Node walk exactly.
    # ``out_of[u]`` is u's output node (kept) or that of its nearest kept
    # ancestor (unkept, memoized on the walk up), so the walks touch
    # O(kept + ancestors) ids.  Its extra last slot, read as ``out_of[-1]``
    # through the root's parent, holds the synthetic root.  Most kept
    # nodes hang directly under a known id (a record's cells under the
    # record), so the path list is only allocated when that lookup misses.
    # Nodes are made by ``new`` with their five slots set inline: no
    # ``__init__`` call per kept node, and a leaf keeps the shared LEAF.
    kept = sorted(assignment)
    new = object.__new__
    leaf = LEAF
    out_of: List[Optional[OutputNode]] = [None] * (snapshot.size + 1)
    out_of[-1] = out_root
    for v in kept:
        u = parent[v]
        ancestor_out = out_of[u]
        if ancestor_out is None:
            path: List[int] = []
            while ancestor_out is None:
                path.append(u)
                u = parent[u]
                ancestor_out = out_of[u]
            for u in path:
                out_of[u] = ancestor_out
        out_node = out_of[v] = new(OutputNode)
        out_node.label = assignment[v]
        out_node.source = None
        out_node.source_id = v
        out_node.children = leaf
        out_node.text = None
        siblings = ancestor_out.children
        if siblings is leaf:
            ancestor_out.children = [out_node]
        else:
            siblings.append(out_node)
    if capture_text and snapshot.texts:
        leaves = [v for v in kept if out_of[v].children is leaf]
        for v, text in zip(leaves, snapshot.node_texts(leaves)):
            if text:
                out_of[v].text = text
    return out_root


class OutputShape:
    """A snapshot-built output's columns, texts aside (:func:`output_shape`).

    Position ``i`` is the ``i``-th output node below the synthetic root in
    document order: ``ids[i]`` is its source node id (ascending),
    ``labels[i]`` its label and ``parents[i]`` the position of its output
    parent (-1 for the synthetic root); ``leaves`` lists the positions of
    the output leaves, the nodes that capture text.
    """

    __slots__ = ("ids", "labels", "parents", "leaves")

    def __init__(self, ids: array, labels: tuple, parents: array, leaves: array):
        self.ids = ids
        self.labels = labels
        self.parents = parents
        self.leaves = leaves


def output_shape(snapshot: TreeSnapshot, assignment: Dict[int, str]) -> OutputShape:
    """The shape of ``build_output_from_snapshot(snapshot, assignment)``,
    read without building it.

    The builder's own nearest-kept-ancestor walk, memoized the same way,
    so it touches O(kept + ancestors) ids, recording positions instead
    of making nodes.

    >>> from repro.trees.stream import html_snapshot
    >>> shape = output_shape(html_snapshot("<ul><li>a<b>x</b><li>b</ul>"),
    ...                      {1: "item", 3: "bold", 5: "item"})
    >>> list(shape.ids), shape.labels, list(shape.parents), list(shape.leaves)
    ([1, 3, 5], ('item', 'bold', 'item'), [-1, 0, -1], [1, 2])
    """
    kept = sorted(assignment)
    parent = snapshot.parent
    # ``at[u]`` is the position of u's output node (kept) or of its
    # nearest kept ancestor's (unkept, memoized on the walk up); its extra
    # last slot, read as ``at[-1]`` through the root's parent, holds the
    # synthetic root's -1.
    at: List[Optional[int]] = [None] * (snapshot.size + 1)
    at[-1] = -1
    parents: List[int] = []
    append = parents.append
    position = 0
    for v in kept:
        u = parent[v]
        up = at[u]
        if up is None:
            path: List[int] = []
            while up is None:
                path.append(u)
                u = parent[u]
                up = at[u]
            for u in path:
                at[u] = up
        at[v] = position
        position += 1
        append(up)
    # Positions are in pre-order, so a node has a child exactly when the
    # next position's parent is that node.
    leaves = array(
        "i", compress(range(position), map(ne, islice(parents, 1, None), range(position)))
    )
    if position:
        leaves.append(position - 1)
    return OutputShape(
        array("i", kept),
        tuple(map(assignment.__getitem__, kept)),
        array("i", parents),
        leaves,
    )


def build_output_from_shape(
    shape: OutputShape, snapshot: TreeSnapshot, root_label: str = "result"
) -> OutputNode:
    """:func:`build_output_from_snapshot` for a snapshot whose tree and
    assignment are those of the output ``shape`` was read from.

    Fresh nodes at the recorded places, and each leaf's text read from
    ``snapshot`` by the same :meth:`TreeSnapshot.node_texts` call: the
    output equals the cold build's, and shares no node with any other.

    >>> from repro.trees.stream import html_snapshot
    >>> snap = html_snapshot("<ul><li>a</li><li>b</li></ul>")
    >>> shape = output_shape(snap, {1: "item", 3: "item"})
    >>> out = build_output_from_shape(shape, html_snapshot("<ul><li>c</li><li>b</li></ul>"))
    >>> out.to_sexpr(), [c.text for c in out.children]
    ('result(item, item)', ['c', 'b'])
    """
    out_root = OutputNode(root_label)
    ids = shape.ids
    # ``nodes[i]`` is position i's output node, made as
    # :func:`build_output_from_snapshot` makes its nodes; the extra last
    # slot, read as ``nodes[-1]``, holds the synthetic root.
    nodes = list(map(object.__new__, repeat(OutputNode, len(ids))))
    nodes.append(out_root)
    leaf = LEAF
    for out_node, v, label, up in zip(nodes, ids, shape.labels, shape.parents):
        out_node.label = label
        out_node.source = None
        out_node.source_id = v
        out_node.children = leaf
        out_node.text = None
        owner = nodes[up]
        siblings = owner.children
        if siblings is leaf:
            owner.children = [out_node]
        else:
            siblings.append(out_node)
    leaves = shape.leaves
    if leaves and snapshot.texts:
        texts = snapshot.node_texts([ids[i] for i in leaves])
        for i, text in zip(leaves, texts):
            if text:
                nodes[i].text = text
    return out_root
