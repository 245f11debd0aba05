"""Columnar tree snapshots: the document as flat integer columns.

The linear-time propagation kernel (:mod:`repro.datalog.kernel`) never
touches :class:`~repro.trees.node.Node` objects or tuple sets on its hot
path.  Instead, each tree structure is backed by a :class:`TreeSnapshot`
-- a set of parallel integer columns built once per document in a single
document-order pass -- and reads its relations from it too:

* ``parent[i]`` / ``firstchild[i]`` / ``nextsibling[i]`` /
  ``prevsibling[i]`` / ``lastchild[i]`` -- the tree edges as partial
  functions (``-1`` where undefined), realizing Proposition 4.1's
  observation that every binary relation of a tree schema is a partial
  bijection (or, for ``child``, backward-functional);
* ``label_ids[i]`` -- interned label identifiers (``labels`` /
  ``label_index`` translate back and forth; ``bytes`` under 256 labels);
* byte masks for the unary schema relations (``root``, ``leaf``,
  ``lastsibling``, ``firstsibling``, ``label_a``, ...), plus the node
  lists behind them for selective enumeration.

Everything derived (masks, node lists, per-direction functional maps) is
memoized on the snapshot, so it is shared by every program evaluated on
the same document.  The ``schema`` field (``"unranked"`` or ``"ranked"``)
gates name resolution to exactly the relations the owning structure
would itself supply: asking for a relation outside the schema returns
``None``, which the kernel treats as "not applicable, fall back".

The integer columns are tuples: every reader (the scanner's sibling
pass, kernel bind, the generated worklist, output assembly) indexes one
element at a time, which CPython 3.11 specializes on a tuple
(``BINARY_SUBSCR_TUPLE_INT``), where ``array('i')`` boxes a fresh int
per read above 256 and costs a conversion per column per page.  On
catalog-640 (2-core x86 VM) the build fell from 3.39 to 3.00 ms, the
fixpoint from 0.74 to 0.60 and output assembly from 1.33 to 1.22 ms.
Lists read as fast, but the collector re-walks a long-lived list of
ints on every collection (generation-1 time +50%, full +35%; ``recrawl``
p99 14.0-16.2 -> 16.5-17.5 ms), while an all-int tuple is untracked by
the first collection that sees it.  ``label_ids`` is ``bytes`` under
256 distinct labels (nearly every page), so every ``label_a`` /
``notlabel_a`` mask is one ``bytes.translate``; wider sets keep a tuple.

Each unary relation is also served as one byte-lane big int
(:meth:`unary_int`, byte ``v`` set when node ``v`` is in the relation):
a warm re-evaluation cuts its sweep anchors down to the changed region
with one big-int AND.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.trees.node import Node


class TreeSnapshot:
    """Flat columnar view of one document tree.

    Built by :meth:`from_tree` when a
    :class:`repro.trees.unranked.UnrankedStructure` or
    :class:`repro.trees.ranked.RankedStructure` is constructed, or
    column-by-column -- without any :class:`~repro.trees.node.Node`
    allocation -- by :func:`repro.trees.stream.html_snapshot`; not usually
    constructed by hand.  Every
    :class:`repro.trees.unranked.TreeStructure` (``Document`` included)
    reads its relations from one.

    The optional ``texts`` / ``attrs`` side columns carry the text payload
    and attribute dictionary per node (sparse ``node id -> value``
    mappings; most nodes have neither), so HTML documents can be wrapped
    -- including text capture on output nodes -- from the columns alone.

    ``attrs`` holds one distinct dict per node that has attributes, built
    on its first read and kept.  Until then the column stays as its
    producer gave it, where a value may also be a
    :func:`repro.html.tokenizer.parse_tag` entry ``(name, is_end, attr,
    value, self_closing)``: :func:`repro.trees.stream.html_snapshot`
    stores a single-attribute tag's shared entry there (the one its
    cached build step holds), so a
    page whose attributes are never read allocates no dict for them.

    The tree columns and every :meth:`forward_map` / :meth:`backward_map`
    are tuples; ``label_ids`` is ``bytes`` under 256 distinct labels and
    a tuple otherwise.  Every producer goes through ``__init__``, which
    picks the form, so snapshots of one document built by different
    producers compare equal column by column.

    Examples
    --------
    >>> from repro.trees import parse_sexpr
    >>> from repro.trees.unranked import UnrankedStructure
    >>> snap = UnrankedStructure(parse_sexpr("a(b, c(d), b)")).snapshot()
    >>> snap.parent
    (-1, 0, 0, 2, 0)
    >>> snap.firstchild
    (1, -1, 3, -1, -1)
    >>> snap.nextsibling
    (-1, 2, 4, -1, -1)
    >>> snap.label_ids
    b'\\x00\\x01\\x02\\x03\\x01'
    >>> snap.labels[snap.label_ids[3]]
    'd'
    """

    __slots__ = (
        "size",
        "schema",
        "max_rank",
        "parent",
        "firstchild",
        "nextsibling",
        "prevsibling",
        "lastchild",
        "label_ids",
        "labels",
        "label_index",
        "texts",
        "_attrs",
        "_attr_dicts",
        "_unary_masks",
        "_unary_nodes",
        "_unary_ints",
        "_forward",
        "_backward",
        "_child_index",
        "_label_nodes",
        "_sig",
        "_diff",
    )

    def __init__(
        self,
        schema: str,
        parent: List[int],
        firstchild: List[int],
        nextsibling: List[int],
        prevsibling: List[int],
        lastchild: List[int],
        label_ids: List[int],
        labels: List[str],
        label_index: Dict[str, int],
        max_rank: int = 0,
        texts: Optional[Dict[int, str]] = None,
        attrs: Optional[Dict[int, Union[Dict[str, str], tuple]]] = None,
    ):
        self.size = len(parent)
        self.schema = schema
        self.max_rank = max_rank
        # One tuple per column (`bytes` label ids under 256 labels),
        # built once here so every producer (HTML scanner, tree
        # flattener) can keep assembling plain lists.
        self.parent = tuple(parent)
        self.firstchild = tuple(firstchild)
        self.nextsibling = tuple(nextsibling)
        self.prevsibling = tuple(prevsibling)
        self.lastchild = tuple(lastchild)
        self.label_ids = tuple(label_ids) if len(labels) >= 256 else bytes(label_ids)
        self.labels = labels
        self.label_index = label_index
        self.texts = texts
        self._attrs = attrs
        self._attr_dicts: Optional[Dict[int, Dict[str, str]]] = None
        self._unary_masks: Dict[str, Optional[Sequence[int]]] = {}
        self._unary_nodes: Dict[str, Optional[List[int]]] = {}
        self._unary_ints: Dict[str, Optional[int]] = {}
        self._forward: Dict[str, Optional[Sequence[int]]] = {}
        self._backward: Dict[str, Optional[Sequence[int]]] = {}
        self._child_index: Optional[List[int]] = None
        self._label_nodes: Optional[List[List[int]]] = None
        #: Cached :func:`repro.trees.merkle.signature_table` lanes (the
        #: bulk-comparison form the snapshot diff matches on); computed on
        #: first use, shared by every diff against this snapshot.
        self._sig = None
        #: One-entry diff memo ``(new_snapshot, SnapshotDiff)`` held by the
        #: *old* version, so wrappers diffing the same pair once per
        #: compiled plan pay for one diff (and dropping the old version
        #: frees the whole chain).
        self._diff = None

    @classmethod
    def from_tree(
        cls,
        nodes: Sequence[Node],
        ids: Dict[int, int],
        schema: str,
        max_rank: int = 0,
    ) -> "TreeSnapshot":
        """Flatten an existing :class:`Node` tree (document-order ids)."""
        n = len(nodes)
        parent = [-1] * n
        firstchild = [-1] * n
        nextsibling = [-1] * n
        prevsibling = [-1] * n
        lastchild = [-1] * n
        label_ids = [0] * n
        labels: List[str] = []
        label_index: Dict[str, int] = {}
        texts: Dict[int, str] = {}
        attrs: Dict[int, Dict[str, str]] = {}
        for i, node in enumerate(nodes):
            lid = label_index.get(node.label)
            if lid is None:
                lid = label_index[node.label] = len(labels)
                labels.append(node.label)
            label_ids[i] = lid
            if node.text:
                texts[i] = node.text
            if node.attrs:
                attrs[i] = node.attrs
            children = node.children
            if children:
                previous = -1
                for child in children:
                    ci = ids[id(child)]
                    parent[ci] = i
                    if previous < 0:
                        firstchild[i] = ci
                    else:
                        nextsibling[previous] = ci
                        prevsibling[ci] = previous
                    previous = ci
                lastchild[i] = previous
        return cls(
            schema,
            parent,
            firstchild,
            nextsibling,
            prevsibling,
            lastchild,
            label_ids,
            labels,
            label_index,
            max_rank=max_rank,
            texts=texts,
            attrs=attrs,
        )

    @property
    def attrs(self) -> Optional[Dict[int, Dict[str, str]]]:
        """``node id -> attribute dict`` (``None`` when the producer gave
        no column); a tag-cache entry becomes a fresh dict on first read."""
        built = self._attr_dicts
        if built is None and self._attrs is not None:
            built = self._attr_dicts = {
                nid: {value[2]: value[3]} if type(value) is tuple else value
                for nid, value in self._attrs.items()
            }
        return built

    # -- unary relations ---------------------------------------------------

    def label_nodes(self) -> List[List[int]]:
        """Node-id lists per label id (one document-order pass, cached).

        The anchor lists behind ``label_a`` on documents with 256 or more
        distinct labels (tuple label ids), so such a document pays
        one scan total instead of one scan per queried label.  Byte-lane
        label ids derive each list from the label's mask instead.
        """
        if self._label_nodes is None:
            by_label: List[List[int]] = [[] for _ in self.labels]
            label_ids = self.label_ids
            for i in range(self.size):
                by_label[label_ids[i]].append(i)
            self._label_nodes = by_label
        return self._label_nodes

    def _compute_unary_mask(self, name: str) -> Optional[Sequence[int]]:
        n = self.size
        if name == "dom":
            return bytearray(b"\x01" * n)
        if name == "root":
            mask = bytearray(n)
            if n:
                mask[0] = 1
            return mask
        if name == "leaf":
            # Non-leaves are exactly the nodes that occur as a parent.
            mask = bytearray(b"\x01" * n)
            for p in self.parent:
                if p >= 0:
                    mask[p] = 0
            return mask
        if self.schema == "unranked" and name == "lastsibling":
            # Last siblings are exactly the ``lastchild`` targets.
            mask = bytearray(n)
            for v in self.lastchild:
                if v >= 0:
                    mask[v] = 1
            return mask
        if self.schema == "unranked" and name == "firstsibling":
            # First siblings are exactly the ``firstchild`` targets.
            mask = bytearray(n)
            for v in self.firstchild:
                if v >= 0:
                    mask[v] = 1
            return mask
        if name.startswith(("label_", "notlabel_")):
            hit = 1 if name.startswith("label_") else 0
            lid = self.label_index.get(name[name.index("_") + 1 :])
            label_ids = self.label_ids
            if isinstance(label_ids, bytes):
                # Byte-lane ids: the whole mask is one C-speed translate.
                table = bytearray([1 - hit]) * 256
                if lid is not None:
                    table[lid] = hit
                return label_ids.translate(table)
            mask = bytearray([1 - hit]) * n
            if lid is not None:
                for i in self.label_nodes()[lid]:
                    mask[i] = hit
            return mask
        return None

    def unary_mask(self, name: str) -> Optional[Sequence[int]]:
        """Byte mask of unary relation ``name``; ``None`` if unsupported.

        A bytes-like object (``bytes`` or ``bytearray``) with byte ``v``
        set to 1 exactly when node ``v`` is in the relation.  It is cached
        and shared by every caller, so treat it as read-only.
        """
        if name not in self._unary_masks:
            self._unary_masks[name] = self._compute_unary_mask(name)
        return self._unary_masks[name]

    def unary_int(self, name: str) -> Optional[int]:
        """Unary relation ``name`` as one byte-lane big int.

        Little-endian packing of :meth:`unary_mask`: byte ``v`` of the
        integer is 1 exactly when node ``v`` is in the relation, so set
        intersection is a single big-int ``&``.  ``None`` if unsupported.

        >>> from repro.trees import parse_sexpr
        >>> from repro.trees.unranked import UnrankedStructure
        >>> snap = UnrankedStructure(parse_sexpr("a(b, c(d), b)")).snapshot()
        >>> snap.unary_int("leaf") == (1 << 8) | (1 << 24) | (1 << 32)
        True
        """
        if name not in self._unary_ints:
            mask = self.unary_mask(name)
            self._unary_ints[name] = (
                None if mask is None else int.from_bytes(mask, "little")
            )
        return self._unary_ints[name]

    def unary_nodes(self, name: str) -> Optional[List[int]]:
        """Node ids satisfying unary relation ``name`` (anchor lists)."""
        if name not in self._unary_nodes:
            if name.startswith("label_") and not isinstance(self.label_ids, bytes):
                lid = self.label_index.get(name[len("label_") :])
                nodes: Optional[List[int]] = (
                    [] if lid is None else self.label_nodes()[lid]
                )
            else:
                mask = self.unary_mask(name)
                nodes = (
                    None
                    if mask is None
                    else list(compress(range(self.size), mask))
                )
            self._unary_nodes[name] = nodes
        return self._unary_nodes[name]

    # -- binary relations --------------------------------------------------

    def _child_k(self, name: str) -> Optional[int]:
        suffix = name[len("child") :]
        if not suffix.isdigit():
            return None
        k = int(suffix)
        if not 1 <= k <= self.max_rank:
            return None
        return k

    def _child_indexes(self) -> List[int]:
        """Position of each node among its siblings (0 for first/root)."""
        if self._child_index is None:
            out = [0] * self.size
            nextsibling = self.nextsibling
            firstchild = self.firstchild
            for i in range(self.size):
                child = firstchild[i]
                index = 0
                while child >= 0:
                    out[child] = index
                    index += 1
                    child = nextsibling[child]
            self._child_index = out
        return self._child_index

    def forward_map(self, name: str) -> Optional[Sequence[int]]:
        """Column ``a`` with ``R(v, a[v])`` when ``R`` is forward-functional.

        Returns ``None`` for unknown relations and for ``child`` (whose
        forward direction branches; use :attr:`firstchild` /
        :attr:`nextsibling` to enumerate children instead).
        """
        if name not in self._forward:
            computed = self._compute_forward(name)
            self._forward[name] = None if computed is None else tuple(computed)
        return self._forward[name]

    def _compute_forward(self, name: str) -> Optional[List[int]]:
        if self.schema == "unranked":
            if name == "firstchild":
                return self.firstchild
            if name == "nextsibling":
                return self.nextsibling
            if name == "lastchild":
                return self.lastchild
            return None
        k = self._child_k(name)
        if k is None:
            return None
        nextsibling = self.nextsibling
        out = list(self.firstchild)
        for _ in range(k - 1):
            out = [nextsibling[v] if v >= 0 else -1 for v in out]
        return out

    def backward_map(self, name: str) -> Optional[Sequence[int]]:
        """Column ``a`` with ``R(a[v], v)`` when ``R`` is backward-functional."""
        if name not in self._backward:
            computed = self._compute_backward(name)
            self._backward[name] = None if computed is None else tuple(computed)
        return self._backward[name]

    def _compute_backward(self, name: str) -> Optional[List[int]]:
        n = self.size
        parent = self.parent
        if name == "child":
            # ``child`` is backward-functional over any tree schema: the
            # ranked signature derives it as the union of the ``child_k``
            # partial bijections (Lemma 5.4's reading), so branching-heavy
            # ``tau_rk`` programs can ride the kernel too.
            return parent
        if self.schema == "unranked":
            if name == "firstchild":
                prevsibling = self.prevsibling
                return [
                    parent[v] if prevsibling[v] < 0 else -1 for v in range(n)
                ]
            if name == "nextsibling":
                return self.prevsibling
            if name == "lastchild":
                nextsibling = self.nextsibling
                return [
                    parent[v] if nextsibling[v] < 0 else -1 for v in range(n)
                ]
            return None
        k = self._child_k(name)
        if k is None:
            return None
        child_index = self._child_indexes()
        return [
            parent[v] if parent[v] >= 0 and child_index[v] == k - 1 else -1
            for v in range(n)
        ]

    def branches_forward(self, name: str) -> bool:
        """Whether ``name`` is traversable forward by child enumeration.

        True for ``child`` over both schemata: the ``firstchild`` /
        ``nextsibling`` columns exist regardless of the owning structure's
        signature, and ranked structures supply ``child`` as the union of
        their ``child_k`` relations.
        """
        return name == "child"

    # -- tree navigation ---------------------------------------------------

    def children(self, v: int) -> Iterator[int]:
        """Ids of ``v``'s children, left to right."""
        child = self.firstchild[v]
        nextsibling = self.nextsibling
        while child >= 0:
            yield child
            child = nextsibling[child]

    def subtree(self, v: int) -> Iterator[int]:
        """Ids of the subtree rooted at ``v`` in document (pre-) order."""
        firstchild = self.firstchild
        nextsibling = self.nextsibling
        stack = [v]
        pop = stack.pop
        while stack:
            u = pop()
            yield u
            child = firstchild[u]
            if child >= 0:
                row = [child]
                child = nextsibling[child]
                while child >= 0:
                    row.append(child)
                    child = nextsibling[child]
                stack.extend(reversed(row))

    def node_text(self, v: int) -> str:
        """Concatenated text payloads of ``v``'s subtree, in document order.

        Mirrors :func:`repro.wrap.output.node_text`; returns ``""`` when
        the snapshot carries no text column.
        """
        return self.node_texts((v,))[0]

    def node_texts(self, ids: Sequence[int]) -> List[str]:
        """:meth:`node_text` for a batch of nodes, binding the walk once.

        The single columnar implementation of the strip-and-join rule:
        the wrapped-output builder feeds every captured leaf through this
        in one call.
        """
        texts = self.texts
        if not texts:
            return [""] * len(ids)
        get = texts.get
        firstchild = self.firstchild
        nextsibling = self.nextsibling
        out: List[str] = []
        for v in ids:
            child = firstchild[v]
            if (
                child >= 0
                and firstchild[child] < 0
                and nextsibling[child] < 0
                and v not in texts
            ):
                # Fast path: an element whose whole subtree is one leaf
                # (e.g. a table cell holding a single text node).
                t = get(child)
                out.append(t.strip() if t else "")
                continue
            parts: List[str] = []
            stack = [v]
            pop = stack.pop
            while stack:
                u = pop()
                t = get(u)
                if t:
                    t = t.strip()
                    if t:
                        parts.append(t)
                child = firstchild[u]
                if child >= 0:
                    row = [child]
                    child = nextsibling[child]
                    while child >= 0:
                        row.append(child)
                        child = nextsibling[child]
                    stack.extend(reversed(row))
            out.append(" ".join(parts))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"TreeSnapshot({self.schema!r}, {self.size} nodes)"
