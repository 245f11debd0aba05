"""Node-free documents: a relational facade over snapshot columns.

:class:`Document` is the tree relational view
(:class:`repro.trees.unranked.TreeStructure`, schema ``tau_ur`` plus the
derived relations) over a :class:`repro.trees.snapshot.TreeSnapshot`
streamed from HTML -- no :class:`Node` objects anywhere -- plus the
snapshot's text and attribute columns.  The propagation kernel binds to
the snapshot directly; the general evaluation strategies read the
relations computed from the columns; wrapped output trees are assembled
by :func:`repro.wrap.output.build_output_from_snapshot` with text capture
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

from typing import Dict

from repro.errors import TreeError
from repro.trees.snapshot import TreeSnapshot
from repro.trees.unranked import TreeStructure


class Document(TreeStructure):
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
        super().__init__(snapshot)

    @classmethod
    def from_html(cls, html: str, root_label: str = "document") -> "Document":
        """Stream HTML bytes into a document; no ``Node`` is allocated."""
        from repro.trees.stream import html_snapshot

        return cls(html_snapshot(html, root_label=root_label))

    def text(self, ident: int) -> str:
        """Concatenated text of the subtree at ``ident`` (document order)."""
        return self._snapshot.node_text(ident)

    def attrs_of(self, ident: int) -> Dict[str, str]:
        """Attribute dictionary of the node with identifier ``ident``."""
        attrs = self._snapshot.attrs
        found = attrs.get(ident) if attrs else None
        return dict(found) if found else {}

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Document({self.size} nodes, {len(self._snapshot.labels)} labels)"
