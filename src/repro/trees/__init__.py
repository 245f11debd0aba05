"""Tree substrate: ordered labeled trees and their relational views.

This package implements Section 2 of the paper:

* :mod:`repro.trees.node` -- ordered labeled unranked trees with an
  s-expression reader/writer;
* :mod:`repro.trees.unranked` -- the one relational view of a tree,
  :class:`TreeStructure`, which reads every relation from snapshot
  columns: the schema ``tau_ur`` (``root, leaf, label_a, firstchild,
  nextsibling, lastsibling``) plus the derived relations used elsewhere
  in the paper (``child, lastchild, firstsibling, nextsibling_star,
  ...``), or ``tau_rk`` for ranked snapshots; and
  :class:`UnrankedStructure`, that view over a :class:`Node` tree;
* :mod:`repro.trees.ranked` -- ranked alphabets and the schema ``tau_rk``
  (``root, leaf, child_k, label_a``) over a :class:`Node` tree;
* :mod:`repro.trees.binary` -- the firstchild/nextsibling binary encoding of
  Figure 1;
* :mod:`repro.trees.snapshot` -- columnar tree snapshots (flat integer
  columns + interned labels) feeding the linear-time propagation kernel;
* :mod:`repro.trees.stream` -- snapshot sources: HTML tokens written
  straight into snapshot columns with no :class:`Node` allocation, plus
  s-expressions and existing trees flattened to the same columns;
* :mod:`repro.trees.traversal` -- traversals and document order;
* :mod:`repro.trees.generate` -- deterministic random tree generators for
  tests and benchmarks.
"""

from repro.trees.node import Node, parse_sexpr, to_sexpr
from repro.trees.snapshot import TreeSnapshot
from repro.trees.stream import (
    html_snapshot,
    sexpr_snapshot,
    tree_snapshot,
)
from repro.trees.unranked import TreeStructure, UnrankedStructure
from repro.trees.ranked import RankedAlphabet, RankedStructure, validate_ranked
from repro.trees.binary import BinNode, decode_binary, encode_binary
from repro.trees.traversal import (
    depth_of,
    document_order,
    postorder,
    preorder,
)
from repro.trees.generate import (
    chain_tree,
    complete_binary_tree,
    complete_kary_tree,
    flat_tree,
    random_binary_tree,
    random_tree,
)

__all__ = [
    "Node",
    "parse_sexpr",
    "to_sexpr",
    "TreeSnapshot",
    "html_snapshot",
    "sexpr_snapshot",
    "tree_snapshot",
    "TreeStructure",
    "UnrankedStructure",
    "RankedAlphabet",
    "RankedStructure",
    "validate_ranked",
    "BinNode",
    "encode_binary",
    "decode_binary",
    "preorder",
    "postorder",
    "document_order",
    "depth_of",
    "random_tree",
    "random_binary_tree",
    "complete_binary_tree",
    "complete_kary_tree",
    "chain_tree",
    "flat_tree",
]
