"""Textual syntax for datalog programs.

Grammar (whitespace-insensitive, ``%`` starts a line comment)::

    program  ::=  rule*
    rule     ::=  atom ( ":-" | "<-" ) atom ("," atom)* "."  |  atom "."
    atom     ::=  pred [ "(" term ("," term)* ")" ]
    term     ::=  variable | integer
    pred     ::=  identifier  (letters, digits, "_", ".", "[", "]", "<", ">")

A "." followed by whitespace, a comment or the end of the input ends the
rule, so a 0-ary atom may close a body (``item(x) :- label_li(x), seen.``).

Variables are identifiers whose first letter is ``x``, ``y`` or ``z``
(optionally suffixed, e.g. ``x0``, ``y_left``), matching the paper's naming
convention; everything else is a predicate symbol.  A leading ``?`` also
forces a variable (``?node``).

>>> p = parse_program("even(x) :- root(x), aux(x). aux(x) :- leaf(x).")
>>> len(p.rules)
2
"""

from __future__ import annotations

from typing import List, Optional

from repro.datalog.program import Program, Rule
from repro.datalog.terms import Atom, Constant, Term, Variable
from repro.errors import ParseError

_IDENT_CHARS = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.[]<>*-"
)


def _is_variable_name(name: str) -> bool:
    if name.startswith("?"):
        return True
    first = name[0]
    if first not in "xyz":
        return False
    return all(c.isalnum() or c == "_" for c in name)


class _Tokens:
    """Tokenizer shared by :func:`parse_program` and :func:`parse_rule`."""

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
        if self.peek() == "?":
            self.pos += 1
        text = self.text
        while self.pos < len(text) and text[self.pos] in _IDENT_CHARS:
            # A "." before whitespace, a comment or the end of the input
            # ends the rule (``..., seen.``), not the name.
            after = text[self.pos + 1 : self.pos + 2]
            if text[self.pos] == "." and (not after or after.isspace() or after == "%"):
                break
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an identifier")
        return self.text[start : self.pos]


def _parse_term(tokens: _Tokens) -> Term:
    tokens.skip()
    c = tokens.peek()
    if c.isdigit() or c == "-":
        start = tokens.pos
        if c == "-":
            tokens.pos += 1
        while tokens.pos < len(tokens.text) and tokens.text[tokens.pos].isdigit():
            tokens.pos += 1
        if tokens.pos == start or tokens.text[start:tokens.pos] == "-":
            raise tokens.error("expected an integer constant")
        return Constant(int(tokens.text[start : tokens.pos]))
    name = tokens.identifier()
    if _is_variable_name(name):
        return Variable(name.lstrip("?"))
    raise tokens.error(
        f"term {name!r} is neither a variable (x/y/z... or ?name) nor an integer"
    )


def _parse_atom(tokens: _Tokens) -> Atom:
    pred = tokens.identifier()
    if _is_variable_name(pred):
        raise tokens.error(f"predicate name {pred!r} looks like a variable")
    args: List[Term] = []
    if tokens.try_consume("("):
        while True:
            args.append(_parse_term(tokens))
            if tokens.try_consume(","):
                continue
            tokens.expect(")")
            break
    return Atom(pred, tuple(args))


def _parse_one_rule(tokens: _Tokens) -> Rule:
    head = _parse_atom(tokens)
    body: List[Atom] = []
    if tokens.try_consume(":-") or tokens.try_consume("<-"):
        while True:
            body.append(_parse_atom(tokens))
            if tokens.try_consume(","):
                continue
            break
    tokens.expect(".")
    return Rule(head, body)


def parse_rule(text: str) -> Rule:
    """Parse a single rule, e.g. ``"p(x) :- q(x), r(x, y)."``."""
    tokens = _Tokens(text)
    rule = _parse_one_rule(tokens)
    if not tokens.at_end():
        raise tokens.error("trailing input after rule")
    return rule


def parse_program(text: str, query: Optional[str] = None) -> Program:
    """Parse a whole program; ``query`` selects the query predicate."""
    tokens = _Tokens(text)
    rules: List[Rule] = []
    while not tokens.at_end():
        rules.append(_parse_one_rule(tokens))
    return Program(rules, query=query)
