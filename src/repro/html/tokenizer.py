"""HTML tokenization.

One scanner, two front ends:

* :func:`scan_into` -- the scanner: delivers events through callbacks,
  which tree construction (:mod:`repro.html.parser`) supplies;
* :func:`scan_list` -- the same events as plain tuples
  (``("start", name, attrs, self_closing)``, ``("end", name)``,
  ``("text", data)``, ``("comment", data)``, ``("doctype", data)``).

The scan splits the document once on ``<``: each piece after the first
holds one token and the text run after it, split once more at its first
``>``.  The text between a ``<`` and that ``>`` is looked up in a
per-document tag cache, filled by :func:`parse_tag`: a regular tag -- a
start tag with no attribute or one double-quoted attribute, or an end
tag -- is :data:`TAG`'s parsed form, built once per distinct tag text.
Everything else (comments, doctypes, tags with other attributes or a
``>`` inside a quoted value, ``script``/``style`` start tags, a stray
``<``, an end tag with no ``>``) is one call of :func:`scan_step`, the
general scanner step, at the token's ``<``; :func:`resync` then skips
the pieces that step consumed.  The Node-free snapshot builder
(:func:`repro.trees.stream.html_snapshot`) drives the same split and
step itself, with its column appends inline, and caches a build step
compiled from each distinct tag's :func:`parse_tag` entry, so the two
paths cannot drift.

``script`` and ``style`` contents are treated as rawtext (scanned
verbatim until the matching close tag, see :func:`scan_rawtext`), as the
HTML standard prescribes.
"""

from __future__ import annotations

import re
from sys import intern
from typing import Dict, Iterator, List, Optional, Tuple

from repro.html.entities import decode_entities

RAWTEXT_ELEMENTS = ("script", "style")

#: Tag and attribute names: alphanumerics plus ``-``, ``_``, ``:``.
_NAME = re.compile(r"[\w:-]+")

#: One regular tag, matched against the whole text between a ``<`` and
#: the first ``>`` after it: a start tag (name in group 1) with no
#: attribute or exactly one double-quoted attribute (name, value and an
#: optional ``/`` in groups 2-4), or an end tag (name in group 5).
TAG = re.compile(r'([\w:-]+)(?:\s([\w:-]+)="([^"]*)"(/?))?|/([\w:-]+)[^>]*')

#: The close tag of each rawtext element, matched without regard to
#: ASCII case.
_RAWTEXT_CLOSE = {
    name: re.compile("</" + name, re.IGNORECASE | re.ASCII)
    for name in RAWTEXT_ELEMENTS
}

#: One attribute-scanner step inside a start tag: tag close, ``name [=
#: value]`` with double-quoted / single-quoted / unquoted value forms, or
#: one junk character (a stray slash, ``=``, a quote...), which is skipped.
#: Unterminated quotes run to end of input; unquoted values stop at
#: whitespace or ``>`` (and may therefore swallow a ``/``).  Every step
#: matches and consumes its leading whitespace, so a tag is scanned in
#: time linear in its length.
_ATTR = re.compile(
    r"""\s*
    (?: (?P<close>/?>)
      | (?P<name>[\w:-]+)
        (?: \s*=\s*
            (?: "(?P<dq>[^"]*)"?
              | '(?P<sq>[^']*)'?
              | (?P<uq>[^\s>]*)
            )
        )?
      | .?
    )""",
    re.X,
)


def _scan_attributes(html: str, i: int) -> Tuple[Dict[str, str], bool, int]:
    attrs: Dict[str, str] = {}
    n = len(html)
    match = _ATTR.match
    while i < n:
        m = match(html, i)
        close = m.group("close")
        if close is not None:
            return attrs, close == "/>", m.end()
        name = m.group("name")
        if name is not None:
            value = m.group("dq")
            if value is None:
                value = m.group("sq")
            if value is None:
                value = m.group("uq")
            attrs[name.lower()] = decode_entities(value) if value else ""
        i = m.end()
    return attrs, False, i


def scan_rawtext(html: str, i: int, name: str, on_text, on_end) -> int:
    """Scan the body of rawtext element ``name`` that starts at ``i``.

    Delivers the body verbatim (unless empty or whitespace-only) and the
    end tag, if the document has one; returns the position after it.
    """
    n = len(html)
    m = _RAWTEXT_CLOSE[name].search(html, i)
    close = n if m is None else m.start()
    raw = html[i:close]
    if raw and not raw.isspace():
        on_text(raw)
    if m is None:
        return n
    on_end(name)
    gt = html.find(">", close)
    return (gt + 1) if gt != -1 else n


def scan_step(html: str, i: int, on_start, on_end, on_text, on_misc) -> int:
    """One general scanner step from the ``<`` at ``i``.

    Takes the token there (a comment, a doctype, a start tag with its
    rawtext body, an end tag, a stray ``<``), delivering its events
    through the :func:`scan_into` callbacks; returns the position after
    it.  The scan loops call it for every token that :func:`parse_tag`
    leaves to it, so a start tag seen here goes straight to the
    attribute scanner.

    Tag names are interned, so the events -- and the Node labels and
    open-element frames built from them -- hold one string per name, not
    one per tag.
    """
    n = len(html)
    nxt = html[i + 1 : i + 2]
    if nxt == "!":
        if html.startswith("<!--", i):
            end = html.find("-->", i + 4)
            if end == -1:
                end = n - 3
            if on_misc is not None:
                on_misc("comment", html[i + 4 : end])
            return end + 3
        end = html.find(">", i + 2)
        if end == -1:
            end = n - 1
        if on_misc is not None:
            on_misc("doctype", html[i + 2 : end].strip())
        return end + 1
    if nxt == "/":
        m = _NAME.match(html, i + 2)
        if m is None:
            end = html.find(">", i + 2)
        else:
            end = html.find(">", m.end())
            on_end(intern(m.group().lower()))
        return (end + 1) if end != -1 else n
    m = _NAME.match(html, i + 1)
    if m is None:
        # A stray '<' -- treat as text.
        on_text("<")
        return i + 1
    name = intern(m.group().lower())
    attrs, self_closing, i = _scan_attributes(html, m.end())
    on_start(name, attrs, self_closing)
    if name in RAWTEXT_ELEMENTS and not self_closing:
        i = scan_rawtext(html, i, name, on_text, on_end)
    return i


def parse_tag(tag: str) -> Optional[tuple]:
    """The tag-cache entry for ``tag``, the text between a ``<`` and the
    first ``>`` after it.

    A regular tag (a :data:`TAG` match) becomes ``(name, is_end, attr,
    value, self_closing)``: the interned lowercased name, the lowercased
    attribute name (``None`` when the tag has none) and its
    entity-decoded value.  ``None`` leaves the token to
    :func:`scan_step`: any other text, and a ``script``/``style`` start
    tag, whose rawtext body the step scans.
    """
    m = TAG.fullmatch(tag)
    if m is None:
        return None
    raw, attr, value, slash, raw_end = m.groups()
    if raw_end is not None:
        return intern(raw_end.lower()), True, None, None, False
    name = intern(raw.lower())
    if name in RAWTEXT_ELEMENTS and not slash:
        return None
    if attr is None:
        return name, False, None, None, False
    if "&" in value:
        value = decode_entities(value)
    return name, False, attr.lower(), value, slash == "/"


#: The value of a tag-cache lookup for tag text not seen yet.
UNSEEN = object()


def resync(html: str, pieces: Iterator[str], at: int, i: int) -> Tuple[str, int]:
    """Catch the split on ``<`` up with a general step that ended at ``i``.

    ``pieces`` iterates the pieces of ``html.split("<")`` and ``at`` is
    the offset of the ``<`` before the next one.  Skips the pieces whose
    ``<`` lies before ``i`` (the step consumed them); returns the text
    run from ``i`` to the next ``<`` (or the end) and that ``<``'s
    offset.  Positions only move forward, so a scan stays linear.
    """
    while at < i:
        at += len(next(pieces)) + 1
    return html[i:at], at


def scan_into(html: str, on_start, on_end, on_text, on_misc=None) -> None:
    """Scan an HTML document, delivering events through callbacks.

    The scanner behind :func:`scan_list` and
    :func:`repro.html.parser.parse_html`.  Permissive, never raises on
    bad markup.

    * ``on_start(name, attrs, self_closing)`` -- lowercased tag name,
      attribute dict (``None`` when the tag has no attributes),
      ``<br/>``-style flag;
    * ``on_end(name)`` -- explicit end tags (unmatched ones included);
    * ``on_text(data)`` -- entity-decoded text, whitespace-only runs
      dropped, rawtext (``script``/``style``) delivered verbatim;
    * ``on_misc(kind, data)`` -- comments and doctypes, skipped when the
      callback is ``None``.
    """
    decode = decode_entities
    tags: Dict[str, Optional[tuple]] = {}  # tag text -> parse_tag(tag text)
    get_tag = tags.get
    unseen = UNSEEN
    pieces = iter(html.split("<"))
    text = next(pieces)
    at = len(text)  # offset of the next piece's '<'
    for piece in pieces:
        if text and not text.isspace():
            on_text(decode(text) if "&" in text else text)
        tag, gt, text = piece.partition(">")
        entry = get_tag(tag, unseen) if gt else None
        if entry is unseen:
            entry = tags[tag] = parse_tag(tag)
        if entry is None:
            i = scan_step(html, at, on_start, on_end, on_text, on_misc)
            text, at = resync(html, pieces, at + len(piece) + 1, i)
            continue
        at += len(piece) + 1
        name, is_end, attr, value, self_closing = entry
        if is_end:
            on_end(name)
        elif attr is None:
            on_start(name, None, False)
        else:
            on_start(name, {attr: value}, self_closing)
    if text and not text.isspace():
        on_text(decode(text) if "&" in text else text)


def scan_list(html: str) -> List[tuple]:
    """Scan an HTML document into a list of plain event tuples.

    Permissive, never raises on bad markup.  In document order:

    * ``("start", name, attrs, self_closing)``
    * ``("end", name)``
    * ``("text", data)`` (entity-decoded, whitespace-only runs dropped)
    * ``("comment", data)`` / ``("doctype", data)``

    >>> [e[0] for e in scan_list('<p class="x">hi</p>')]
    ['start', 'text', 'end']
    """
    out: List[tuple] = []
    emit = out.append
    scan_into(
        html,
        lambda name, attrs, self_closing: emit(
            ("start", name, attrs if attrs is not None else {}, self_closing)
        ),
        lambda name: emit(("end", name)),
        lambda data: emit(("text", data)),
        lambda kind, data: emit((kind, data)),
    )
    return out
