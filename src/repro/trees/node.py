"""Ordered labeled trees.

The paper models Web documents as finite ordered trees whose nodes carry
labels from an alphabet Sigma (Section 2).  :class:`Node` is the single tree
representation used across the whole library; relational views over it are
built by :mod:`repro.trees.unranked` and :mod:`repro.trees.ranked`.

Trees can be written and read in a compact s-expression syntax::

    a(b, c(d, e), f)

which is used pervasively in tests and documentation.  Labels containing
characters outside ``[A-Za-z0-9_#:-]`` must be double-quoted.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.errors import ParseError, TreeError

_BARE_LABEL_CHARS = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_#:-."
)


class Node:
    """A node of an ordered labeled tree.

    Attributes
    ----------
    label:
        The node's symbol from the alphabet.
    children:
        Ordered list of child nodes.
    parent:
        The parent node, or ``None`` for a root.
    attrs:
        Optional attribute dictionary (used by the HTML front end; empty for
        plain trees).
    text:
        Optional text payload (used for HTML text nodes).
    """

    __slots__ = ("label", "children", "parent", "attrs", "text")

    def __init__(
        self,
        label: str,
        children: Optional[List["Node"]] = None,
        attrs: Optional[Dict[str, str]] = None,
        text: Optional[str] = None,
    ):
        self.label = label
        self.children: List[Node] = []
        self.parent: Optional[Node] = None
        self.attrs: Dict[str, str] = attrs or {}
        self.text = text
        for child in children or []:
            self.add_child(child)

    # -- construction ------------------------------------------------------

    def add_child(self, child: "Node") -> "Node":
        """Append ``child`` as the rightmost child and return it."""
        if child.parent is not None:
            raise TreeError("node already has a parent")
        child.parent = self
        self.children.append(child)
        return child

    def new_child(self, label: str, **kwargs) -> "Node":
        """Create, append and return a fresh child with the given label."""
        return self.add_child(Node(label, **kwargs))

    def copy(self) -> "Node":
        """Return a deep copy of the subtree rooted at this node."""
        clone = Node(self.label, attrs=dict(self.attrs), text=self.text)
        for child in self.children:
            clone.add_child(child.copy())
        return clone

    # -- inspection --------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        """Whether this node has no children."""
        return not self.children

    @property
    def child_index(self) -> int:
        """Zero-based position among siblings (0 for a root)."""
        if self.parent is None:
            return 0
        for i, sibling in enumerate(self.parent.children):
            if sibling is self:
                return i
        raise TreeError("node not found among its parent's children")

    @property
    def next_sibling(self) -> Optional["Node"]:
        """The sibling immediately to the right, or ``None``."""
        if self.parent is None:
            return None
        i = self.child_index
        siblings = self.parent.children
        return siblings[i + 1] if i + 1 < len(siblings) else None

    @property
    def prev_sibling(self) -> Optional["Node"]:
        """The sibling immediately to the left, or ``None``."""
        if self.parent is None:
            return None
        i = self.child_index
        return self.parent.children[i - 1] if i > 0 else None

    @property
    def is_last_sibling(self) -> bool:
        """Whether this node is its parent's rightmost child.

        Following the paper, the root is *not* a last sibling, as it has no
        parent.
        """
        return self.parent is not None and self.parent.children[-1] is self

    @property
    def is_first_sibling(self) -> bool:
        """Whether this node is its parent's leftmost child (root excluded)."""
        return self.parent is not None and self.parent.children[0] is self

    def subtree_size(self) -> int:
        """Number of nodes in the subtree rooted here."""
        return 1 + sum(child.subtree_size() for child in self.children)

    def depth(self) -> int:
        """Distance to the root (0 for a root)."""
        node, d = self, 0
        while node.parent is not None:
            node = node.parent
            d += 1
        return d

    def root(self) -> "Node":
        """The root of the tree containing this node."""
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def ancestors(self) -> Iterator["Node"]:
        """Iterate over proper ancestors, nearest first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def iter_subtree(self) -> Iterator["Node"]:
        """Iterate over the subtree in document (pre-) order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def label_path_from(self, ancestor: "Node") -> List[str]:
        """Labels on the path from ``ancestor`` down to this node.

        The returned list excludes ``ancestor``'s own label and includes this
        node's label; this is exactly the path alphabet used by ``subelem``
        paths (Definition 6.1).
        """
        path: List[str] = []
        node: Optional[Node] = self
        while node is not None and node is not ancestor:
            path.append(node.label)
            node = node.parent
        if node is not ancestor:
            raise TreeError("given node is not an ancestor")
        path.reverse()
        return path

    # -- formatting --------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Node({to_sexpr(self)})"

    def __str__(self) -> str:
        return to_sexpr(self)


def _quote_label(label: str) -> str:
    if label and all(c in _BARE_LABEL_CHARS for c in label):
        return label
    escaped = label.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def to_sexpr(node: Node) -> str:
    """Serialize the subtree rooted at ``node`` to s-expression syntax.

    >>> to_sexpr(Node("a", [Node("b"), Node("c")]))
    'a(b, c)'
    """
    head = _quote_label(node.label)
    if not node.children:
        return head
    inner = ", ".join(to_sexpr(child) for child in node.children)
    return f"{head}({inner})"


class _SexprReader:
    """Recursive-descent reader for the s-expression tree syntax."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, position=self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def read_label(self) -> str:
        self.skip_ws()
        if self.peek() == '"':
            self.pos += 1
            out: List[str] = []
            while True:
                if self.pos >= len(self.text):
                    raise self.error("unterminated quoted label")
                c = self.text[self.pos]
                self.pos += 1
                if c == "\\":
                    if self.pos >= len(self.text):
                        raise self.error("dangling escape in label")
                    out.append(self.text[self.pos])
                    self.pos += 1
                elif c == '"':
                    return "".join(out)
                else:
                    out.append(c)
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _BARE_LABEL_CHARS:
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a label")
        return self.text[start : self.pos]

    def read_node(self) -> Node:
        label = self.read_label()
        node = Node(label)
        self.skip_ws()
        if self.peek() == "(":
            self.pos += 1
            self.skip_ws()
            if self.peek() == ")":
                raise self.error("empty child list; drop the parentheses")
            while True:
                node.add_child(self.read_node())
                self.skip_ws()
                c = self.peek()
                if c == ",":
                    self.pos += 1
                elif c == ")":
                    self.pos += 1
                    break
                else:
                    raise self.error("expected ',' or ')'")
        return node


def parse_sexpr(text: str) -> Node:
    """Parse a tree from s-expression syntax.

    >>> str(parse_sexpr("a(b, c(d))"))
    'a(b, c(d))'
    """
    reader = _SexprReader(text)
    node = reader.read_node()
    reader.skip_ws()
    if reader.pos != len(text):
        raise reader.error("trailing input after tree")
    return node
