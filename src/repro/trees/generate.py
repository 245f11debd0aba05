"""Deterministic tree generators for tests and benchmarks.

All generators take an explicit :class:`random.Random` instance (or a seed)
so that every experiment in ``benchmarks/`` and every property test is
reproducible.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Union

from repro.trees.node import Node

RngLike = Union[int, random.Random]


def _rng(seed_or_rng: RngLike) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def random_tree(
    seed_or_rng: RngLike,
    size: int,
    labels: Sequence[str] = ("a", "b"),
    max_children: int = 4,
) -> Node:
    """Generate a uniform-ish random unranked tree with exactly ``size`` nodes.

    Nodes are attached to a random existing node whose child count is below
    ``max_children`` (falling back to any node if all are full), which yields
    a good mix of deep and bushy shapes.

    >>> random_tree(7, 5).subtree_size()
    5
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    rng = _rng(seed_or_rng)
    root = Node(rng.choice(labels))
    nodes: List[Node] = [root]
    for _ in range(size - 1):
        open_nodes = [n for n in nodes if len(n.children) < max_children]
        parent = rng.choice(open_nodes) if open_nodes else rng.choice(nodes)
        child = parent.new_child(rng.choice(labels))
        nodes.append(child)
    return root


def random_binary_tree(
    seed_or_rng: RngLike,
    internal: int,
    internal_label: str = "a",
    leaf_label: Optional[str] = None,
) -> Node:
    """Generate a random *full* binary tree with ``internal`` internal nodes.

    Every internal node has exactly two children; leaves carry
    ``leaf_label`` (defaulting to ``internal_label``).  Full binary trees are
    the input domain of the ranked query automata of Examples 4.9 and 4.21.
    """
    rng = _rng(seed_or_rng)
    if leaf_label is None:
        leaf_label = internal_label
    root = Node(leaf_label)
    leaves: List[Node] = [root]
    for _ in range(internal):
        node = leaves.pop(rng.randrange(len(leaves)))
        node.label = internal_label
        left = node.new_child(leaf_label)
        right = node.new_child(leaf_label)
        leaves.extend([left, right])
    return root


def complete_binary_tree(depth: int, label: str = "a") -> Node:
    """A complete binary tree of the given depth (depth 0 = single node).

    Used by Example 4.21: a complete binary tree of depth ``d`` has
    ``2^(d+1) - 1`` nodes.
    """
    root = Node(label)
    frontier = [root]
    for _ in range(depth):
        next_frontier = []
        for node in frontier:
            next_frontier.append(node.new_child(label))
            next_frontier.append(node.new_child(label))
        frontier = next_frontier
    return root


def complete_kary_tree(depth: int, k: int, label: str = "a") -> Node:
    """A complete ``k``-ary tree of the given depth."""
    root = Node(label)
    frontier = [root]
    for _ in range(depth):
        next_frontier = []
        for node in frontier:
            for _ in range(k):
                next_frontier.append(node.new_child(label))
        frontier = next_frontier
    return root


def chain_tree(length: int, label: str = "a") -> Node:
    """A unary chain of ``length`` nodes (worst case for depth recursion)."""
    if length < 1:
        raise ValueError("length must be >= 1")
    root = Node(label)
    node = root
    for _ in range(length - 1):
        node = node.new_child(label)
    return root


def thread_tree(
    threads: int,
    depth: int,
    label: str = "c",
    leaf_label: str = "leafc",
    root_label: str = "r",
) -> Node:
    """A root with ``threads`` unary comment chains of ``depth`` nodes.

    Each chain node carries a distinct deterministic text payload (like a
    comment body), and every chain ends in a ``leaf_label`` node.  The
    deep-recursion workload of the incremental benchmarks: a recursive
    descent program derives a fact per chain node cold, while a warm
    re-run over a few edited texts reuses the previous fixpoint (the
    tree is unchanged).

    >>> t = thread_tree(2, 3)
    >>> t.subtree_size()
    9
    >>> str(t)
    'r(c(c(c(leafc))), c(c(c(leafc))))'
    """
    if threads < 1 or depth < 1:
        raise ValueError("threads and depth must be >= 1")
    root = Node(root_label)
    for t in range(threads):
        node = root.new_child(label, text=f"comment {t} 0")
        for d in range(depth - 1):
            node = node.new_child(label, text=f"comment {t} {d + 1}")
        node.new_child(leaf_label)
    return root


def flat_tree(word: Sequence[str], root_label: str = "r") -> Node:
    """A root whose children carry the labels of ``word`` left to right.

    This is the shape used throughout Section 6 (the children of the root
    spell a word, e.g. ``a^n b^n`` for Theorem 6.6).

    >>> str(flat_tree("aab"))
    'r(a, a, b)'
    """
    root = Node(root_label)
    for symbol in word:
        root.new_child(symbol)
    return root


def figure1_tree() -> Node:
    """The six-node tree of Figure 1 / Example 2.5.

    All nodes are labeled ``a``; the shape is ``a(a, a(a, a), a)`` with
    document order n1 < n2 < n3 < n4 < n5 < n6.
    """
    n1 = Node("a")
    n1.new_child("a")                     # n2
    n3 = n1.new_child("a")                # n3
    n3.new_child("a")                     # n4
    n3.new_child("a")                     # n5
    n1.new_child("a")                     # n6
    return n1


def example32_tree() -> Node:
    """The four-node tree of Example 3.2.

    A root ``n1`` with three children ``n2, n3, n4``, all labeled ``a``.
    """
    root = Node("a")
    root.new_child("a")
    root.new_child("a")
    root.new_child("a")
    return root
