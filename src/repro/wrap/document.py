"""Node-free documents: a relational facade over snapshot columns.

:class:`Document` is the streaming counterpart of
:class:`repro.trees.unranked.UnrankedStructure`: the same ``tau_ur``
relational schema (plus the derived relations), but backed purely by a
:class:`repro.trees.snapshot.TreeSnapshot` -- no :class:`Node` objects
anywhere.  The propagation kernel binds to the snapshot directly; the
general evaluation strategies read the relations computed from the
columns; wrapped output trees are assembled by
:func:`repro.wrap.output.build_output_from_snapshot` with text capture
from the snapshot's text column.

This is the per-document payload of the streaming batch pipeline
(:meth:`repro.wrap.extraction.Wrapper.wrap_html_many`): it is built in
one pass over the HTML token events and holds flat lists only.

Examples
--------
>>> doc = Document.from_html("<ul><li>alpha<li>beta</ul>")
>>> doc.size
5
>>> doc.label_of(0), doc.label_of(1)
('ul', 'li')
>>> sorted(v for (v,) in doc.relation("label_li"))
[1, 3]
>>> doc.text(1)
'alpha'
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.errors import DatalogError, TreeError
from repro.structures import Fact, Structure
from repro.trees.node import Node
from repro.trees.snapshot import TreeSnapshot
from repro.trees.unranked import _CLOSURE_LIMIT, _FUNCTIONAL_BINARY


class Document(Structure):
    """A document as flat columns: snapshot-backed ``tau_ur`` structure.

    Parameters
    ----------
    snapshot:
        A ``"unranked"``-schema :class:`TreeSnapshot`, usually built by
        :func:`repro.trees.stream.html_snapshot`.
    """

    def __init__(self, snapshot: TreeSnapshot):
        if snapshot.schema != "unranked":
            raise TreeError("Document requires an unranked-schema snapshot")
        self._snapshot = snapshot
        self._cache: Dict[str, FrozenSet[Fact]] = {}
        self._functional_cache: Dict[str, Tuple[Dict[int, int], Dict[int, int]]] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_html(cls, html: str, root_label: str = "document") -> "Document":
        """Stream HTML bytes into a document; no ``Node`` is allocated."""
        from repro.trees.stream import html_snapshot

        return cls(html_snapshot(html, root_label=root_label))

    @classmethod
    def from_tree(cls, root: Node) -> "Document":
        """Flatten an existing parsed tree (text/attr columns included)."""
        from repro.trees.stream import tree_snapshot

        return cls(tree_snapshot(root))

    # -- identity ----------------------------------------------------------

    @property
    def size(self) -> int:
        return self._snapshot.size

    def snapshot(self) -> TreeSnapshot:
        """The underlying columnar snapshot (the kernel binds to this)."""
        return self._snapshot

    def label_of(self, ident: int) -> str:
        """Label of the node with identifier ``ident``."""
        snapshot = self._snapshot
        return snapshot.labels[snapshot.label_ids[ident]]

    def labels(self) -> Set[str]:
        """The set of labels occurring in the document."""
        return set(self._snapshot.labels)

    def text(self, ident: int) -> str:
        """Concatenated text of the subtree at ``ident`` (document order)."""
        return self._snapshot.node_text(ident)

    def attrs_of(self, ident: int) -> Dict[str, str]:
        """Attribute dictionary of the node with identifier ``ident``."""
        attrs = self._snapshot.attrs
        found = attrs.get(ident) if attrs else None
        return dict(found) if found else {}

    # -- relations ---------------------------------------------------------

    def has_relation(self, name: str) -> bool:
        try:
            self.relation(name)
            return True
        except DatalogError:
            return False

    def arity(self, name: str) -> int:
        unary = {"dom", "root", "leaf", "lastsibling", "firstsibling"}
        if name in unary or name.startswith("label_"):
            return 1
        return 2

    def relation(self, name: str) -> FrozenSet[Fact]:
        if name not in self._cache:
            self._cache[name] = frozenset(self._compute(name))
        return self._cache[name]

    def functional(self, name: str) -> Optional[Tuple[Dict[int, int], Dict[int, int]]]:
        if name not in _FUNCTIONAL_BINARY:
            return None
        if name not in self._functional_cache:
            column = self._snapshot.forward_map(name)
            forward: Dict[int, int] = {}
            backward: Dict[int, int] = {}
            for a, b in enumerate(column):
                if b >= 0:
                    forward[a] = b
                    backward[b] = a
            self._functional_cache[name] = (forward, backward)
        return self._functional_cache[name]

    def relation_names(self) -> Iterable[str]:
        """Core ``tau_ur`` relation names (derived relations not included)."""
        names = ["dom", "root", "leaf", "lastsibling", "firstchild", "nextsibling"]
        names.extend(sorted(f"label_{a}" for a in self._snapshot.labels))
        return names

    # -- computation -------------------------------------------------------

    def _check_closure_budget(self, name: str) -> None:
        if self.size > _CLOSURE_LIMIT:
            raise DatalogError(
                f"refusing to materialize quadratic relation {name!r} on a "
                f"document with {self.size} nodes (limit {_CLOSURE_LIMIT})"
            )

    def _compute(self, name: str) -> Set[Fact]:
        snapshot = self._snapshot
        n = snapshot.size
        if name in (
            "dom", "root", "leaf", "lastsibling", "firstsibling",
        ) or name.startswith(("label_", "notlabel_")):
            nodes = snapshot.unary_nodes(name)
            if nodes is None:  # pragma: no cover - unranked supplies all five
                raise DatalogError(f"unknown relation {name!r} over tau_ur")
            return {(v,) for v in nodes}
        if name in ("firstchild", "nextsibling", "lastchild"):
            column = snapshot.forward_map(name)
            return {(a, b) for a, b in enumerate(column) if b >= 0}
        if name == "child":
            parent = snapshot.parent
            return {(parent[v], v) for v in range(n) if parent[v] >= 0}
        if name in ("nextsibling_star", "nextsibling_plus"):
            reflexive = name.endswith("_star")
            out: Set[Fact] = set()
            firstchild = snapshot.firstchild
            nextsibling = snapshot.nextsibling
            for v in range(n):
                child = firstchild[v]
                if child < 0:
                    continue
                row: List[int] = []
                while child >= 0:
                    row.append(child)
                    child = nextsibling[child]
                for i, a in enumerate(row):
                    start = i if reflexive else i + 1
                    for b in row[start:]:
                        out.add((a, b))
            if reflexive:
                for v in range(n):
                    out.add((v, v))
            return out
        if name in ("child_star", "child_plus"):
            self._check_closure_budget(name)
            out = set()
            for v in range(n):
                for d in snapshot.subtree(v):
                    if d != v:
                        out.add((v, d))
                if name == "child_star":
                    out.add((v, v))
            return out
        if name == "docorder":
            self._check_closure_budget(name)
            return {(i, j) for i in range(n) for j in range(i + 1, n)}
        if name == "total":
            self._check_closure_budget(name)
            return {(i, j) for i in range(n) for j in range(n)}
        raise DatalogError(f"unknown relation {name!r} over tau_ur")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Document({self.size} nodes, {len(self._snapshot.labels)} labels)"
