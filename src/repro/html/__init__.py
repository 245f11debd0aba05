"""A from-scratch permissive HTML front end.

The paper's tree-based wrapping presumes "an existing HTML parser as a
front end"; none is available offline, so this package implements one:

* :mod:`repro.html.entities` -- character reference decoding;
* :mod:`repro.html.tokenizer` -- tag/text/comment tokenization with
  rawtext handling for ``script``/``style``: the scanner
  :func:`~repro.html.tokenizer.scan_into` delivers events through
  callbacks, :func:`~repro.html.tokenizer.scan_list` as plain tuples;
* :mod:`repro.html.policy` -- the shared tag-soup policy (void elements,
  implicit closers, scope barriers) used by both tree construction and
  the streaming snapshot builder;
* :mod:`repro.html.parser` -- tree construction with void elements and
  the common implicit-close rules (``li``, ``p``, ``td``, ``tr``, ...),
  producing :class:`repro.trees.Node` documents whose labels are tag
  names and whose text nodes carry the label ``#text``.
"""

from repro.html.parser import parse_html
from repro.html.policy import IMPLICIT_CLOSERS, VOID_ELEMENTS

__all__ = [
    "parse_html",
    "VOID_ELEMENTS",
    "IMPLICIT_CLOSERS",
]
