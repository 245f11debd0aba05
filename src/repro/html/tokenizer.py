"""HTML tokenization.

Two entry points over the same scanner:

* :func:`scan_events` -- the streaming core: a generator of plain event
  tuples (``("start", name, attrs, self_closing)``, ``("end", name)``,
  ``("text", data)``, ``("comment", data)``, ``("doctype", data)``) with
  no per-token object allocation.  Both tree construction
  (:mod:`repro.html.parser`) and the Node-free snapshot builder
  (:mod:`repro.trees.stream`) consume these events.
* :func:`tokenize` -- the classic API: wraps each event in a
  :class:`Token` value.

``script`` and ``style`` contents are treated as rawtext (scanned
verbatim until the matching close tag), as the HTML standard prescribes;
the document is lowercased at most once for all rawtext scans combined.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.html.entities import decode_entities

RAWTEXT_ELEMENTS = ("script", "style")

#: Tag and attribute names: alphanumerics plus ``-``, ``_``, ``:``.
_NAME = re.compile(r"[\w:-]+")

#: Whole-tail fast path for the single most common attributed tag shape:
#: one double-quoted attribute immediately followed by the tag close.
_ONE_ATTR = re.compile(r'\s([\w:-]+)="([^"]*)"(/?)>')

#: Lowercased tag names, cached (tag vocabulary is tiny; values are
#: shared string objects, so later dict lookups hash once).
_LOWER_NAMES: Dict[str, str] = {}

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


@dataclass
class Token:
    """One HTML token.

    ``kind`` is ``"start"``, ``"end"``, ``"text"``, ``"comment"`` or
    ``"doctype"``; ``name`` is the tag name (lowercased) for tags;
    ``data`` is the decoded text/comment payload; ``attrs`` the attribute
    dictionary; ``self_closing`` marks ``<br/>``-style tags.
    """

    kind: str
    name: str = ""
    data: str = ""
    attrs: Dict[str, str] = field(default_factory=dict)
    self_closing: bool = False


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


def scan_into(html: str, on_start, on_end, on_text, on_misc=None) -> None:
    """Scan an HTML document, delivering events through callbacks.

    The single scanner implementation behind every front end: the event
    list of :func:`scan_list` (and :func:`tokenize`) and the Node-free
    streaming snapshot builder (:func:`repro.trees.stream.html_snapshot`),
    which consumes the callbacks directly so no per-token object of any
    kind is allocated.  Permissive, never raises on bad markup.

    * ``on_start(name, attrs, self_closing)`` -- lowercased tag name,
      attribute dict (``None`` when the tag has no attributes),
      ``<br/>``-style flag;
    * ``on_end(name)`` -- explicit end tags (unmatched ones included);
    * ``on_text(data)`` -- entity-decoded text, whitespace-only runs
      dropped, rawtext (``script``/``style``) delivered verbatim;
    * ``on_misc(kind, data)`` -- comments and doctypes, skipped when the
      callback is ``None``.
    """
    i = 0
    n = len(html)
    lower = None  # lowercased document, built at most once (rawtext scans)
    find = html.find
    name_match = _NAME.match
    one_attr_match = _ONE_ATTR.match
    scan_attributes = _scan_attributes
    decode = decode_entities
    lower_names = _LOWER_NAMES
    while i < n:
        if html[i] == "<":
            lt = i
        else:
            lt = find("<", i)
            end = n if lt == -1 else lt
            text = html[i:end]
            if not text.isspace():
                on_text(decode(text) if "&" in text else text)
            if lt == -1:
                return
            i = lt
        nxt = html[i + 1] if i + 1 < n else ""
        if nxt == "!":
            if html.startswith("<!--", i):
                end = find("-->", i + 4)
                if end == -1:
                    end = n - 3
                if on_misc is not None:
                    on_misc("comment", html[i + 4 : end])
                i = end + 3
            else:
                end = find(">", i + 2)
                if end == -1:
                    end = n - 1
                if on_misc is not None:
                    on_misc("doctype", html[i + 2 : end].strip())
                i = end + 1
            continue
        if nxt == "/":
            m = name_match(html, i + 2)
            if m is None:
                end = find(">", i + 2)
            else:
                end = find(">", m.end())
                raw_name = m.group()
                name = lower_names.get(raw_name)
                if name is None:
                    name = raw_name.lower()
                    if len(lower_names) < 4096:
                        lower_names[raw_name] = name
                on_end(name)
            i = (end + 1) if end != -1 else n
            continue
        m = name_match(html, i + 1)
        if m is None:
            # A stray '<' -- treat as text.
            on_text("<")
            i += 1
            continue
        raw_name = m.group()
        name = lower_names.get(raw_name)
        if name is None:
            name = raw_name.lower()
            if len(lower_names) < 4096:
                lower_names[raw_name] = name
        j = m.end()
        if j < n and html[j] == ">":
            # Fast path: attribute-free tag, by far the common case.
            attrs = None
            self_closing = False
            i = j + 1
        else:
            m = one_attr_match(html, j)
            if m is not None:
                # Fast path: exactly one double-quoted attribute.
                value = m.group(2)
                if value and "&" in value:
                    value = decode(value)
                attrs = {m.group(1).lower(): value}
                self_closing = m.group(3) == "/"
                i = m.end()
            else:
                attrs, self_closing, i = scan_attributes(html, j)
        on_start(name, attrs, self_closing)
        if name in RAWTEXT_ELEMENTS and not self_closing:
            if lower is None:
                lower = html.lower()
            close = lower.find(f"</{name}", i)
            if close == -1:
                close = n
            raw = html[i:close]
            if raw and not raw.isspace():
                on_text(raw)
            gt = find(">", close)
            if close < n:
                on_end(name)
            i = (gt + 1) if gt != -1 else n


def scan_list(html: str) -> List[tuple]:
    """Scan an HTML document into a list of plain event tuples.

    Permissive, never raises on bad markup.  In document order:

    * ``("start", name, attrs, self_closing)``
    * ``("end", name)``
    * ``("text", data)`` (entity-decoded, whitespace-only runs dropped)
    * ``("comment", data)`` / ``("doctype", data)``
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


def scan_events(html: str) -> Iterator[tuple]:
    """Iterate the event tuples of :func:`scan_list`.

    Note that the full event list is materialized up front (a few dozen
    bytes per event); consumers needing callback-grained delivery with no
    buffering should drive :func:`scan_into` directly.

    >>> [e[0] for e in scan_events('<p class="x">hi</p>')]
    ['start', 'text', 'end']
    """
    return iter(scan_list(html))


def tokenize(html: str) -> Iterator[Token]:
    """Tokenize an HTML document (permissive, never raises on bad markup).

    A thin :class:`Token`-building wrapper over :func:`scan_list` (the
    event list is materialized up front; :class:`Token` objects are built
    lazily); the streaming pipeline consumes the events directly.

    >>> [t.kind for t in tokenize('<p class="x">hi</p>')]
    ['start', 'text', 'end']
    """
    for event in scan_list(html):
        kind = event[0]
        if kind == "text" or kind == "comment" or kind == "doctype":
            yield Token(kind, data=event[1])
        elif kind == "start":
            yield Token(kind, name=event[1], attrs=event[2], self_closing=event[3])
        else:
            yield Token(kind, name=event[1])
