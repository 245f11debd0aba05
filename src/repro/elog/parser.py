"""Textual syntax for Elog- programs.

Grammar (one rule per ``.``; ``%`` comments)::

    rule ::= pattern "(" var ")" "<-" body "."
    body ::= parent_atom ("," atom)*
    parent_atom ::= pattern "(" var ")"
                  | pattern "(" var ")" followed by a subelem atom
    atom ::= "subelem" "(" var "," path "," var ")"
           | "contains" "(" var "," path "," var ")"
           | "leaf" "(" var ")" | "firstsibling" "(" var ")"
           | "lastsibling" "(" var ")"
           | "nextsibling" "(" var "," var ")"
           | pattern "(" var ")"                       (pattern reference)
    path ::= "'" label ("." label)* "'" | "''"         (labels or "_")

Example::

    item(x)  <- record(x0), subelem(x0, 'tr', x), contains(x, 'td', y),
                price(y).
    price(y) <- root(z), subelem(z, '_.td', y), lastsibling(y).

>>> p = parse_elog("a0(x) <- root(x0), subelem(x0, 'a', x).")
>>> len(p.rules)
1
"""

from __future__ import annotations

from typing import List, Optional

from repro.elog.paths import parse_path
from repro.elog.syntax import (
    CONDITION_PREDICATES,
    Condition,
    ElogProgram,
    ElogRule,
    PatternRef,
)
from repro.errors import ParseError

_IDENT = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


class _Reader:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, position=self.pos)

    def skip(self) -> None:
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c.isspace():
                self.pos += 1
            elif c == "%":
                while self.pos < len(self.text) and self.text[self.pos] != "\n":
                    self.pos += 1
            else:
                break

    def at_end(self) -> bool:
        self.skip()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, literal: str) -> None:
        self.skip()
        if not self.text.startswith(literal, self.pos):
            raise self.error(f"expected {literal!r}")
        self.pos += len(literal)

    def try_consume(self, literal: str) -> bool:
        self.skip()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def identifier(self) -> str:
        self.skip()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _IDENT:
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an identifier")
        return self.text[start : self.pos]

    def quoted_path(self) -> str:
        self.skip()
        if self.peek() != "'":
            raise self.error("expected a quoted path")
        self.pos += 1
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] != "'":
            self.pos += 1
        if self.pos >= len(self.text):
            raise self.error("unterminated path literal")
        out = self.text[start : self.pos]
        self.pos += 1
        return out


def _parse_rule(r: _Reader) -> ElogRule:
    head = r.identifier()
    r.expect("(")
    head_var = r.identifier()
    r.expect(")")
    r.expect("<-")

    parent = r.identifier()
    r.expect("(")
    parent_var = r.identifier()
    r.expect(")")

    path = ()
    conditions: List[Condition] = []
    refs: List[PatternRef] = []
    subelem_seen = False

    while r.try_consume(","):
        name = r.identifier()
        if name == "subelem":
            if subelem_seen:
                raise r.error("at most one subelem atom per rule")
            r.expect("(")
            source = r.identifier()
            r.expect(",")
            path_text = r.quoted_path()
            r.expect(",")
            target = r.identifier()
            r.expect(")")
            if source != parent_var or target != head_var:
                raise r.error(
                    "subelem must run from the parent variable to the head variable"
                )
            path = parse_path(path_text)
            subelem_seen = True
        elif name == "contains":
            r.expect("(")
            source = r.identifier()
            r.expect(",")
            path_text = r.quoted_path()
            r.expect(",")
            target = r.identifier()
            r.expect(")")
            conditions.append(
                Condition("contains", (source, target), parse_path(path_text))
            )
        elif name in CONDITION_PREDICATES:
            r.expect("(")
            args = [r.identifier()]
            while r.try_consume(","):
                args.append(r.identifier())
            r.expect(")")
            expected = 2 if name == "nextsibling" else 1
            if len(args) != expected:
                raise r.error(f"{name} takes {expected} argument(s)")
            conditions.append(Condition(name, tuple(args)))
        else:
            r.expect("(")
            variable = r.identifier()
            r.expect(")")
            refs.append(PatternRef(name, variable))
    r.expect(".")

    if not path and head_var != parent_var:
        raise ParseError(
            "specialization rules must reuse the parent variable "
            f"({head_var!r} vs {parent_var!r})"
        )
    return ElogRule(
        head=head,
        head_var=head_var,
        parent=parent,
        parent_var=parent_var,
        path=path,
        conditions=conditions,
        refs=refs,
    )


def parse_elog(text: str, query: Optional[str] = None) -> ElogProgram:
    """Parse an Elog- program (see module docstring)."""
    reader = _Reader(text)
    rules: List[ElogRule] = []
    while not reader.at_end():
        rules.append(_parse_rule(reader))
    return ElogProgram(rules, query=query)
