"""Ranked alphabets and the relational schema ``tau_rk``.

Section 2 of the paper represents a ranked tree as the structure::

    t_rk = <dom, root, leaf, (child_k)_{k <= K}, (label_a)_{a in Sigma}>

where each symbol ``a`` has a fixed rank (arity) and a node labeled with a
rank-``k`` symbol has exactly ``k`` children.  :class:`RankedStructure`
reads these relations from the tree's ``"ranked"`` snapshot through
:class:`repro.trees.unranked.TreeStructure`, the one relational view of a
tree.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.errors import TreeError
from repro.trees.node import Node
from repro.trees.unranked import NodeTreeStructure


class RankedAlphabet:
    """A finite alphabet in which every symbol has a fixed rank.

    >>> sigma = RankedAlphabet({"a": 2, "b": 0})
    >>> sigma.rank("a")
    2
    >>> sigma.max_rank
    2
    """

    def __init__(self, ranks: Dict[str, int]):
        if not ranks:
            raise TreeError("ranked alphabet must be nonempty")
        for symbol, rank in ranks.items():
            if rank < 0:
                raise TreeError(f"symbol {symbol!r} has negative rank")
        self._ranks = dict(ranks)

    def rank(self, symbol: str) -> int:
        """The rank of ``symbol``."""
        if symbol not in self._ranks:
            raise TreeError(f"symbol {symbol!r} not in ranked alphabet")
        return self._ranks[symbol]

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._ranks

    def symbols(self) -> Iterable[str]:
        """All symbols of the alphabet."""
        return self._ranks.keys()

    def symbols_of_rank(self, k: int) -> List[str]:
        """Symbols of rank exactly ``k`` (the partition Sigma_k)."""
        return sorted(s for s, r in self._ranks.items() if r == k)

    @property
    def max_rank(self) -> int:
        """The maximum rank ``K``."""
        return max(self._ranks.values())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RankedAlphabet({self._ranks!r})"


def validate_ranked(root: Node, alphabet: RankedAlphabet) -> None:
    """Check that every node's child count matches its label's rank.

    Raises :class:`TreeError` on the first violation.
    """
    for node in root.iter_subtree():
        expected = alphabet.rank(node.label)
        if len(node.children) != expected:
            raise TreeError(
                f"node labeled {node.label!r} has {len(node.children)} "
                f"children but rank {expected}"
            )


class RankedStructure(NodeTreeStructure):
    """Relational view of a ranked tree (schema ``tau_rk``).

    Node identifiers are assigned in document order.  The binary relations
    ``child1 .. childK`` each satisfy both functional dependencies of
    Proposition 4.1; ``child`` is their union (Lemma 5.4's generic
    ``child`` over a ranked signature), so programs written over
    ``tau_ur u {child}`` shapes also evaluate on ranked trees.

    >>> from repro.trees import parse_sexpr
    >>> sigma = RankedAlphabet({"f": 2, "c": 0})
    >>> s = RankedStructure(parse_sexpr("f(c, f(c, c))"), sigma)
    >>> sorted(s.relation("child2"))
    [(0, 2), (2, 4)]
    """

    def __init__(
        self,
        root: Node,
        alphabet: Optional[RankedAlphabet] = None,
        max_rank: Optional[int] = None,
    ):
        """Build the view; with an explicit ``alphabet`` the tree is
        validated against it, otherwise ranks are taken from the tree
        itself (Example 4.9 uses the same label at several ranks, which
        the paper glosses by partitioning Sigma implicitly)."""
        if alphabet is not None:
            validate_ranked(root, alphabet)
        else:
            k = max_rank if max_rank is not None else max(
                len(n.children) for n in root.iter_subtree()
            )
            labels = {n.label for n in root.iter_subtree()}
            alphabet = RankedAlphabet({label: max(k, 1) for label in labels})
        super().__init__(root, "ranked", alphabet.max_rank)
        self._alphabet = alphabet
        self._symbols = alphabet.symbols()

    @property
    def alphabet(self) -> RankedAlphabet:
        """The ranked alphabet of the tree."""
        return self._alphabet
