"""Elog- rules and programs (Definition 6.2).

An Elog- rule has the shape::

    p(x) <- p0(x0), subelem_pi(x0, x), C, R.

where ``p`` is a pattern predicate, ``p0`` a pattern predicate or
``root``, ``C`` a set of condition atoms over
``leaf / firstsibling / nextsibling / lastsibling / contains_pi``, and
``R`` a set of pattern references.  The rule's query graph must be
connected.  Rules with the empty path are *specialization rules*
``p(x) <- p0(x), C, R``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.elog.paths import Path, path_to_text
from repro.errors import ElogError

#: Condition predicates of Definition 6.2 (``contains`` handled separately).
CONDITION_PREDICATES = ("leaf", "firstsibling", "nextsibling", "lastsibling")

#: The reserved parent pattern naming the document root.
ROOT_PATTERN = "root"


@dataclass(frozen=True)
class Condition:
    """A condition atom: structural predicate or ``contains_path``.

    ``pred`` is one of :data:`CONDITION_PREDICATES` or ``"contains"``;
    ``args`` are variable names; ``path`` is set for ``contains`` only.
    """

    pred: str
    args: Tuple[str, ...]
    path: Optional[Path] = None

    def __str__(self) -> str:
        if self.pred == "contains":
            return f"contains({self.args[0]}, '{path_to_text(self.path or ())}', {self.args[1]})"
        return f"{self.pred}({', '.join(self.args)})"


@dataclass(frozen=True)
class PatternRef:
    """A pattern reference atom ``p(v)``."""

    pattern: str
    var: str

    def __str__(self) -> str:
        return f"{self.pattern}({self.var})"


@dataclass
class ElogRule:
    """One Elog- rule (see module docstring).

    ``path`` is the ``subelem`` path; ``()`` makes this a specialization
    rule (head variable equals parent variable).
    """

    head: str
    head_var: str
    parent: str
    parent_var: str
    path: Path = ()
    conditions: List[Condition] = field(default_factory=list)
    refs: List[PatternRef] = field(default_factory=list)

    def __post_init__(self):
        if self.head == ROOT_PATTERN:
            raise ElogError("'root' cannot be a head pattern")
        if not self.path and self.head_var != self.parent_var:
            # Normalize specialization rules to share one variable.
            raise ElogError(
                "specialization rules use the same variable for head and parent"
            )
        self._check_connected()

    def variables(self) -> Set[str]:
        """All variable names of the rule."""
        out = {self.head_var, self.parent_var}
        for condition in self.conditions:
            out.update(condition.args)
        for ref in self.refs:
            out.add(ref.var)
        return out

    def _check_connected(self) -> None:
        """Definition 6.2 requires a connected query graph."""
        edges: List[Tuple[str, str]] = []
        if self.path:
            edges.append((self.parent_var, self.head_var))
        for condition in self.conditions:
            if len(condition.args) == 2:
                edges.append((condition.args[0], condition.args[1]))
        variables = self.variables()
        adjacency = {v: set() for v in variables}
        for a, b in edges:
            adjacency[a].add(b)
            adjacency[b].add(a)
        seen = {self.head_var}
        stack = [self.head_var]
        while stack:
            v = stack.pop()
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != variables:
            raise ElogError(
                f"rule query graph not connected; unreachable variables "
                f"{sorted(variables - seen)} in {self}"
            )

    def __str__(self) -> str:
        parts = [f"{self.parent}({self.parent_var})"]
        if self.path:
            parts.append(
                f"subelem({self.parent_var}, '{path_to_text(self.path)}', {self.head_var})"
            )
        parts.extend(str(c) for c in self.conditions)
        parts.extend(str(r) for r in self.refs)
        return f"{self.head}({self.head_var}) <- {', '.join(parts)}."


class ElogProgram:
    """A set of Elog- rules with optional distinguished query patterns."""

    def __init__(self, rules: List[ElogRule], query: Optional[str] = None):
        self.rules = list(rules)
        self.query = query
        patterns = self.patterns()
        for rule in rules:
            if rule.parent != ROOT_PATTERN and rule.parent not in patterns:
                raise ElogError(
                    f"parent pattern {rule.parent!r} is never defined"
                )
            for ref in rule.refs:
                if ref.pattern not in patterns and ref.pattern != ROOT_PATTERN:
                    raise ElogError(
                        f"referenced pattern {ref.pattern!r} is never defined"
                    )

    def patterns(self) -> Set[str]:
        """All defined pattern predicates."""
        return {rule.head for rule in self.rules}

    def __iter__(self):
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self.rules)
