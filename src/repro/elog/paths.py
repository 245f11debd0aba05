"""The path language of Definition 6.1.

Paths are words over ``Sigma u {_}``; ``_`` is a wildcard matching any
label.  ``subelem_pi(x, y)`` holds when ``y`` is reached from ``x`` by a
chain of ``child`` steps whose labels spell ``pi`` (the empty path makes
``x = y``); ``contains_pi`` is the same with nonempty paths only.

Paths are written ``a.b._.c`` in the textual syntax.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.datalog.terms import Atom, Variable
from repro.errors import ElogError

WILDCARD = "_"

Path = Tuple[str, ...]


def parse_path(text: str) -> Path:
    """Parse ``"a.b._"`` into ``("a", "b", "_")`` (empty string -> ())."""
    text = text.strip()
    if not text:
        return ()
    parts = [p.strip() for p in text.split(".")]
    if any(not p for p in parts):
        raise ElogError(f"malformed path {text!r}")
    return tuple(parts)


def path_to_text(path: Path) -> str:
    """Inverse of :func:`parse_path`."""
    return ".".join(path)


def expand_subelem(
    path: Path, x: Variable, y: Variable, fresh
) -> Tuple[List[Atom], Variable]:
    """Expand ``subelem_path(x, y)`` into ``child``/``label`` atoms.

    Returns ``(atoms, end_variable)``; for the empty path the atom list is
    empty and the end variable is ``x`` itself (the ``x = y`` case of
    Definition 6.1 -- the caller substitutes ``y := x``).

    >>> from repro.datalog.program import fresh_variable_factory
    >>> from repro.datalog.terms import Variable
    >>> atoms, end = expand_subelem(("a", "_"), Variable("x"), Variable("y"),
    ...                             fresh_variable_factory())
    >>> [str(a) for a in atoms]
    ['child(x, z_0)', 'label_a(z_0)', 'child(z_0, y)']
    """
    if not path:
        return [], x
    atoms: List[Atom] = []
    current = x
    for i, symbol in enumerate(path):
        target = y if i == len(path) - 1 else fresh()
        atoms.append(Atom("child", (current, target)))
        if symbol != WILDCARD:
            atoms.append(Atom(f"label_{symbol}", (target,)))
        current = target
    return atoms, y


def expand_contains(
    path: Path, x: Variable, y: Variable, fresh
) -> Tuple[List[Atom], Variable]:
    """Expand ``contains_path(x, y)``; empty paths are rejected
    (Definition 6.2)."""
    if not path:
        raise ElogError("contains requires a nonempty path")
    return expand_subelem(path, x, y, fresh)


def match_path(node, path: Path) -> List:
    """All descendants of ``node`` reachable along ``path`` (tree-level
    semantics, used by the Elog-Delta evaluator and the visual builder)."""
    frontier = [node]
    for symbol in path:
        next_frontier = []
        for current in frontier:
            for child in current.children:
                if symbol == WILDCARD or child.label == symbol:
                    next_frontier.append(child)
        frontier = next_frontier
    return frontier
