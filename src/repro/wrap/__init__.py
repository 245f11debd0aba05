"""The wrapping layer (Section 1 and the introduction to Section 6).

A *wrapper* is a set of information extraction functions -- unary queries
assigning predicates to document tree nodes.  From the predicate
assignment, a new tree is computed "along the lines of the input tree but
using the new labels and omitting nodes that have not been relabeled":

* :mod:`repro.wrap.extraction` -- :class:`Wrapper`: bundles extraction
  functions from any of the library's query formalisms, with serial batch
  entry points;
* :mod:`repro.wrap.document` -- :class:`Document`: the streaming,
  Node-free document representation (snapshot columns straight from the
  HTML tokenizer);
* :mod:`repro.wrap.output` -- output-tree construction (relabel, drop
  unlabeled nodes, reconnect through the ancestor closure, preserve
  document order), from trees or straight from snapshot columns;
* :mod:`repro.wrap.serialize` -- XML serialization of wrapped results;
* :mod:`repro.wrap.visual` -- a programmatic simulation of the Lixto-style
  visual specification process of Section 6.2.
"""

from repro.wrap.document import Document
from repro.wrap.extraction import Wrapper
from repro.wrap.output import OutputNode, build_output_from_snapshot, build_output_tree
from repro.wrap.serialize import to_xml
from repro.wrap.visual import VisualSession

__all__ = [
    "Wrapper",
    "Document",
    "OutputNode",
    "build_output_tree",
    "build_output_from_snapshot",
    "to_xml",
    "VisualSession",
]
