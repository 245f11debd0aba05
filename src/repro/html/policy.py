"""Shared HTML tree-construction policy.

The tag-soup rules -- void elements, implicit-close tables, scope
barriers, end-tag matching -- are needed by *two* builders that must
never drift apart: the classic :class:`~repro.trees.node.Node` builder
(:mod:`repro.html.parser`) and the Node-free streaming snapshot builder
(:mod:`repro.trees.stream`).  Both keep their open elements in one
:class:`OpenElements` stack and hand it every start and end tag; the
stack applies all of these rules itself.

Each cut costs O(1) amortized, so ingestion stays linear in the document
on any tag soup (the bound every later layer relies on, Thm 4.2): the
stack indexes its frames by label and remembers where the scope barriers
sit, instead of rescanning the open elements on every tag.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Set

#: Elements that never have content.
VOID_ELEMENTS = {
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
}

#: opening tag -> set of open tags it implicitly closes (nearest first).
IMPLICIT_CLOSERS: Dict[str, Set[str]] = {
    "li": {"li"},
    "option": {"option"},
    "p": {"p"},
    "tr": {"td", "th", "tr"},
    "td": {"td", "th"},
    "th": {"td", "th"},
    "thead": {"tr", "td", "th"},
    "tbody": {"thead", "tr", "td", "th", "tbody"},
    "dt": {"dd", "dt"},
    "dd": {"dd", "dt"},
}

#: Block elements an implicit closer must not escape.
SCOPE_BARRIERS = {"table", "ul", "ol", "dl", "select", "body", "html", "document"}


class OpenElements:
    """The open-element stack of an HTML tree builder.

    Frame 0 is the document root, which no tag ever closes.  ``items``
    holds the builder's own per-frame value (a Node, a node id) and
    ``labels`` the element names.  Two indexes make every cut O(1)
    amortized:

    * ``positions[label]`` -- the positions of the open ``label``
      frames, ascending;
    * ``barriers`` -- the positions of the open scope barriers,
      ascending.

    All four, and each list in ``positions``, are only ever mutated in
    place, so a builder may bind them to locals.
    :func:`repro.trees.stream.html_snapshot` does (it keeps a label's
    position list in each cached build step that reads it), to inline
    three fast paths: a start tag that is neither void nor an implicit
    closer is a plain push; so is an implicit closer none of whose closed
    labels is open above the top barrier (``positions[closed]`` empty or
    its last entry at or below ``barriers[-1]``); and an end tag matching
    the innermost frame is a plain pop.

    >>> stack = OpenElements()
    >>> stack.push("document", 0)
    >>> for nid, name in enumerate(["table", "tr", "td", "b"], 1):
    ...     _ = stack.start_tag(name, nid)
    >>> stack.start_tag("tr", 5), stack.labels
    (1, ['document', 'table', 'tr'])
    >>> stack.start_tag("br", 6), stack.labels
    (5, ['document', 'table', 'tr'])
    >>> stack.end_tag("p"); stack.end_tag("table"); stack.labels
    ['document']
    """

    __slots__ = ("items", "labels", "positions", "barriers")

    def __init__(self):
        self.items: List[Any] = []
        self.labels: List[str] = []
        self.positions: Dict[str, List[int]] = defaultdict(list)
        self.barriers: List[int] = []

    def __len__(self) -> int:
        return len(self.labels)

    def push(self, label: str, item: Any) -> None:
        """Open a ``label`` frame carrying the builder's ``item``."""
        labels = self.labels
        self.positions[label].append(len(labels))
        if label in SCOPE_BARRIERS:
            self.barriers.append(len(labels))
        labels.append(label)
        self.items.append(item)

    def pop(self) -> None:
        """Close the innermost frame."""
        self.truncate(len(self.labels) - 1)

    def truncate(self, cut: int) -> None:
        """Close frames until only ``cut`` remain."""
        labels = self.labels
        positions = self.positions
        for position in range(len(labels) - 1, cut - 1, -1):
            positions[labels[position]].pop()
        del labels[cut:]
        del self.items[cut:]
        barriers = self.barriers
        while barriers and barriers[-1] >= cut:
            barriers.pop()

    def start_tag(self, name: str, item: Any, self_closing: bool = False) -> Any:
        """Apply ``<name>``: implied closes, then open ``name`` unless void.

        Returns the item of the new element's parent.  Repeatedly closing
        the innermost open element that ``name`` implicitly closes --
        without crossing a scope barrier -- amounts to cutting at the
        *lowest* such frame above the nearest barrier.  Each closed name's
        position list is walked down from its top while the position is
        above the barrier; every position visited is closed by the cut.
        """
        labels = self.labels
        closers = IMPLICIT_CLOSERS.get(name)
        if closers:
            barriers = self.barriers
            floor = barriers[-1] if barriers else 0
            cut = len(labels)
            get = self.positions.get
            for closed in closers:
                positions = get(closed)
                if positions:
                    index = len(positions) - 1
                    while index >= 0 and positions[index] > floor:
                        if positions[index] < cut:
                            cut = positions[index]
                        index -= 1
            if cut < len(labels):
                self.truncate(cut)
        items = self.items
        parent = items[-1]
        if not self_closing and name not in VOID_ELEMENTS:
            # push(), inlined: this runs once per start tag.
            self.positions[name].append(len(labels))
            if name in SCOPE_BARRIERS:
                self.barriers.append(len(labels))
            labels.append(name)
            items.append(item)
        return parent

    def end_tag(self, name: str) -> None:
        """Close the innermost open ``name`` frame; unmatched tags close nothing."""
        labels = self.labels
        if len(labels) > 1 and labels[-1] == name:
            # Fast path: the end tag matches the innermost element.
            labels.pop()
            self.items.pop()
            self.positions[name].pop()
            if name in SCOPE_BARRIERS:
                self.barriers.pop()
            return
        positions = self.positions.get(name)
        if positions and positions[-1]:
            self.truncate(positions[-1])
