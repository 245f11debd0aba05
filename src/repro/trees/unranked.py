"""The relational view of a tree, and the schema ``tau_ur`` for unranked trees.

Section 2 of the paper represents an unranked ordered tree as the structure::

    t_ur = <dom, root, leaf, (label_a)_{a in Sigma},
            firstchild, nextsibling, lastsibling>

:class:`TreeStructure` is the one relational view of a tree: it reads every
relation from the columns of a :class:`TreeSnapshot`, over ``tau_ur`` or,
for a ranked snapshot, over ``tau_rk`` (:mod:`repro.trees.ranked`).
:class:`UnrankedStructure` builds that view over a :class:`Node` tree,
assigning node identifiers in document order;
:class:`repro.wrap.document.Document` builds it over a snapshot streamed
from HTML.  Besides the six core relations, an unranked view supplies, on
demand, every derived relation used elsewhere in the paper:

``child``
    natural child relation (``firstchild . nextsibling*``), Section 5;
``lastchild``
    rightmost-child relation, Section 5 / Theorem 5.2;
``firstsibling``
    leftmost children (the mirror image of ``lastsibling``), Definition 6.2;
``nextsibling_star`` / ``nextsibling_plus``
    reflexive-transitive / transitive sibling closure, Lemma 5.5;
``child_star`` / ``child_plus``
    ancestor-descendant closures;
``docorder``
    the strict document order ``<`` of Example 2.5;
``total``
    the total binary relation (``docorder | eps | docorder^-1``), used by the
    connectedness step of Theorem 5.2.

The quadratic-size closures are guarded by a size limit so that benchmarks
cannot accidentally materialize them on huge trees.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.errors import DatalogError, TreeError
from repro.structures import Fact, Structure
from repro.trees.node import Node
from repro.trees.snapshot import TreeSnapshot

#: Unary relation names (``label_a`` / ``notlabel_a`` aside).
_UNARY = ("dom", "root", "leaf", "lastsibling", "firstsibling")

#: Upper bound on tree size for materializing quadratic closures.
_CLOSURE_LIMIT = 4000


class TreeStructure(Structure):
    """Relational view of a tree, read from its snapshot columns.

    An ``"unranked"`` snapshot answers ``tau_ur`` plus the derived
    relations listed in the module docstring; a ``"ranked"`` one answers
    ``tau_rk`` (``dom, root, leaf, child1 .. childK, label_a``) plus
    ``child``, the union of the ``child_k``.  The binary relations of
    either schema satisfy both functional dependencies of Proposition 4.1
    (``child`` only the backward one), and :meth:`functional` serves them
    from the snapshot's forward columns.

    Parameters
    ----------
    snapshot:
        The tree's columns; every relation, label and size is read from it.
    """

    def __init__(self, snapshot: TreeSnapshot):
        self._snapshot = snapshot
        #: The ``Sigma`` behind ``relation_names``' ``label_a`` entries.
        self._symbols: Iterable[str] = snapshot.labels
        self._cache: Dict[str, FrozenSet[Fact]] = {}
        self._functional_cache: Dict[str, Tuple[Dict[int, int], Dict[int, int]]] = {}

    # -- identity ----------------------------------------------------------

    @property
    def size(self) -> int:
        return self._snapshot.size

    def snapshot(self) -> TreeSnapshot:
        """The columnar snapshot (the propagation kernel binds to this)."""
        return self._snapshot

    def label_of(self, ident: int) -> str:
        """Label of the node with identifier ``ident``."""
        snapshot = self._snapshot
        return snapshot.labels[snapshot.label_ids[ident]]

    def labels(self) -> Set[str]:
        """The set of labels occurring in the tree."""
        return set(self._snapshot.labels)

    # -- relations ---------------------------------------------------------

    def has_relation(self, name: str) -> bool:
        try:
            self.relation(name)
            return True
        except DatalogError:
            return False

    def arity(self, name: str) -> int:
        if name in _UNARY or name.startswith(("label_", "notlabel_")):
            return 1
        return 2

    def relation(self, name: str) -> FrozenSet[Fact]:
        if name not in self._cache:
            self._cache[name] = frozenset(self._compute(name))
        return self._cache[name]

    def functional(self, name: str) -> Optional[Tuple[Dict[int, int], Dict[int, int]]]:
        if name not in self._functional_cache:
            column = self._snapshot.forward_map(name)
            if column is None:
                return None
            forward: Dict[int, int] = {}
            backward: Dict[int, int] = {}
            for a, b in enumerate(column):
                if b >= 0:
                    forward[a] = b
                    backward[b] = a
            self._functional_cache[name] = (forward, backward)
        return self._functional_cache[name]

    def relation_names(self) -> Iterable[str]:
        """Core relation names of the schema (derived relations not included)."""
        snapshot = self._snapshot
        if snapshot.schema == "unranked":
            names = ["dom", "root", "leaf", "lastsibling", "firstchild", "nextsibling"]
        else:
            names = ["dom", "root", "leaf"]
            names.extend(f"child{k}" for k in range(1, snapshot.max_rank + 1))
        names.extend(sorted(f"label_{a}" for a in self._symbols))
        return names

    # -- computation -------------------------------------------------------

    def _check_closure_budget(self, name: str) -> None:
        if self.size > _CLOSURE_LIMIT:
            raise DatalogError(
                f"refusing to materialize quadratic relation {name!r} on a "
                f"tree with {self.size} nodes (limit {_CLOSURE_LIMIT})"
            )

    def _compute(self, name: str) -> Set[Fact]:
        snapshot = self._snapshot
        n = snapshot.size
        unranked = snapshot.schema == "unranked"
        if name in _UNARY or name.startswith(("label_", "notlabel_")):
            nodes = snapshot.unary_nodes(name)
            if nodes is not None:
                return {(v,) for v in nodes}
        elif name == "child":
            parent = snapshot.parent
            return {(parent[v], v) for v in range(n) if parent[v] >= 0}
        elif unranked and name in ("nextsibling_star", "nextsibling_plus"):
            reflexive = name.endswith("_star")
            out: Set[Fact] = set()
            for v in range(n):
                row = list(snapshot.children(v))
                for i, a in enumerate(row):
                    start = i if reflexive else i + 1
                    for b in row[start:]:
                        out.add((a, b))
            if reflexive:
                for v in range(n):
                    out.add((v, v))
            return out
        elif unranked and name in ("child_star", "child_plus"):
            self._check_closure_budget(name)
            out = set()
            for v in range(n):
                for d in snapshot.subtree(v):
                    if d != v:
                        out.add((v, d))
                if name == "child_star":
                    out.add((v, v))
            return out
        elif unranked and name == "docorder":
            self._check_closure_budget(name)
            return {(i, j) for i in range(n) for j in range(i + 1, n)}
        elif unranked and name == "total":
            self._check_closure_budget(name)
            return {(i, j) for i in range(n) for j in range(n)}
        else:
            # firstchild / nextsibling / lastchild, or child1 .. childK.
            column = snapshot.forward_map(name)
            if column is not None:
                return {(a, b) for a, b in enumerate(column) if b >= 0}
        schema = "tau_ur" if unranked else "tau_rk"
        raise DatalogError(f"unknown relation {name!r} over {schema}")


class NodeTreeStructure(TreeStructure):
    """A :class:`TreeStructure` built over a :class:`Node` tree.

    Flattens the tree once with :meth:`TreeSnapshot.from_tree` (document-
    order identifiers) and keeps the handles between nodes and identifiers.
    """

    def __init__(self, root: Node, schema: str, max_rank: int = 0):
        nodes: List[Node] = list(root.iter_subtree())
        ids: Dict[int, int] = {id(n): i for i, n in enumerate(nodes)}
        super().__init__(TreeSnapshot.from_tree(nodes, ids, schema, max_rank))
        self._root = root
        self._nodes = nodes
        self._ids = ids

    @property
    def root_node(self) -> Node:
        """The underlying root :class:`Node`."""
        return self._root

    def node(self, ident: int) -> Node:
        """The :class:`Node` with identifier ``ident``."""
        return self._nodes[ident]

    def ident(self, node: Node) -> int:
        """The identifier of ``node`` (must belong to this tree)."""
        try:
            return self._ids[id(node)]
        except KeyError:
            raise TreeError("node does not belong to this structure") from None

    def nodes(self) -> List[Node]:
        """All nodes in document order."""
        return list(self._nodes)


class UnrankedStructure(NodeTreeStructure):
    """Relational view of an unranked ordered tree (schema ``tau_ur``).

    Node identifiers are assigned in document order, so ``i < j`` iff node
    ``i`` precedes node ``j`` in document order.

    Parameters
    ----------
    root:
        Root node of the tree.

    Examples
    --------
    >>> from repro.trees import parse_sexpr
    >>> s = UnrankedStructure(parse_sexpr("a(a, a(a, a), a)"))
    >>> sorted(s.relation("firstchild"))
    [(0, 1), (2, 3)]
    >>> sorted(v for (v,) in s.relation("leaf"))
    [1, 3, 4, 5]
    """

    def __init__(self, root: Node):
        if root.parent is not None:
            raise TreeError("structure must be built from a root node")
        super().__init__(root, "unranked")
